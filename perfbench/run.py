#!/usr/bin/env python3
"""Build and run the cen-dtn benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (its own cargo workspace, path-dependent on
the repository's crates) in release mode, then runs the named workload in
its own process. The benchmark prints one JSON object as the last line of
standard output; build output goes to standard error. The build honours
CARGO_TARGET_DIR and defaults to `.bench_build` in the checkout.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def stat_fields(stat: Path) -> list:
    """The fields of a /proc/<pid>/stat file after the command name."""
    try:
        return stat.read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def children_of(pid: int) -> list:
    """Ids of the live processes whose parent is `pid`."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        fields = stat_fields(stat)
        if len(fields) > 1 and fields[0] != "Z" and int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def alive(pid: int) -> bool:
    """Whether `pid` still runs (a zombie has ended)."""
    fields = stat_fields(Path(f"/proc/{pid}/stat"))
    return bool(fields) and fields[0] != "Z"


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return build.returncode or 1
    child = subprocess.Popen([str(target / "release" / "perfbench"), *sys.argv[1:]], cwd=ROOT)
    stopped = []

    def stop(signum, _frame):
        # The benchmark runs each pass in a child process of its own: note
        # them, stop the benchmark so it starts no more, then stop them.
        passes = children_of(child.pid)
        child.terminate()
        for pid in passes:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        stopped.append((signum, passes))

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    if not stopped:
        return code
    signum, passes = stopped[0]
    for pid in passes:
        while alive(pid):
            time.sleep(0.05)
    return 128 + signum


if __name__ == "__main__":
    sys.exit(main())
