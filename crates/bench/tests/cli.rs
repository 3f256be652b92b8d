//! Command-line surfaces of the run binaries, driven through the real
//! executables: usage errors name the flag and the value, removed flags
//! fail as unknown, and `dtnrun`'s delivery-progress table follows the
//! run's horizon.

use std::process::Command;

/// Runs `bin` with `args`, returning (exit code, stdout, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn numeric_flag_errors_name_the_flag_and_the_value() {
    let dtnrun = env!("CARGO_BIN_EXE_dtnrun");
    for flag in ["--seed", "--buffer", "--lambda"] {
        let (code, _, err) = run(dtnrun, &[flag, "x", "--no-store"]);
        assert_eq!(code, 2, "{flag}: {err}");
        assert_eq!(
            err.trim(),
            format!("{flag}: invalid digit found in string, got x")
        );
    }
    let (code, _, err) = run(dtnrun, &["--progress-step", "0", "--no-store"]);
    assert_eq!(code, 2, "{err}");
    assert_eq!(err.trim(), "--progress-step: need a positive step, got 0");
    let (code, _, err) = run(dtnrun, &["--buffer", "0", "--no-store"]);
    assert_eq!(code, 2, "{err}");
    assert_eq!(err.trim(), "--buffer: must be at least 1 byte, got 0");
    let (code, _, err) = run(
        env!("CARGO_BIN_EXE_shootout"),
        &["--seeds", "x", "--no-large-n", "--no-store"],
    );
    assert_eq!(code, 2, "{err}");
    assert_eq!(err.trim(), "--seeds: invalid digit found in string, got x");
}

/// The sharded contact scan's `--run-threads` is gone: every binary that
/// took it rejects it as an unknown flag rather than parsing a count. The
/// bad `--duration` after it would fail differently if the flag were still
/// read.
#[test]
fn removed_run_threads_flag_is_unknown() {
    for bin in [
        env!("CARGO_BIN_EXE_dtnrun"),
        env!("CARGO_BIN_EXE_smoke"),
        env!("CARGO_BIN_EXE_shootout"),
        env!("CARGO_BIN_EXE_fig2"),
    ] {
        let (code, _, err) = run(bin, &["--run-threads", "1", "--duration", "x"]);
        assert_eq!(code, 2, "{bin}: {err}");
        assert!(
            err.starts_with("unknown flag --run-threads"),
            "{bin}: {err}"
        );
    }
}

#[test]
fn smoke_rejects_unknown_flags_by_name() {
    let smoke = env!("CARGO_BIN_EXE_smoke");
    let (code, _, err) = run(smoke, &["--drain", "ring:16", "--no-store"]);
    assert_eq!(code, 2, "{err}");
    assert_eq!(err.trim(), "unknown flag --drain (try --help)");
    let (code, _, err) = run(smoke, &["many", "--no-store"]);
    assert_eq!(code, 2, "{err}");
    assert_eq!(
        err.trim(),
        "n_nodes: invalid digit found in string, got many"
    );
}

#[test]
fn progress_table_follows_the_horizon() {
    let dtnrun = env!("CARGO_BIN_EXE_dtnrun");
    let cell = ["--protocol", "direct", "--nodes", "8", "--no-store"];
    let times = |out: &str| -> Vec<String> {
        out.lines()
            .filter_map(|l| l.strip_prefix("  t="))
            .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
            .collect()
    };
    let (code, out, err) = run(dtnrun, &[&cell[..], &["--duration", "60"]].concat());
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("every 12 s"), "{out}");
    assert_eq!(times(&out), ["0", "12", "24", "36", "48", "60"], "{out}");
    let (code, out, err) = run(
        dtnrun,
        &[&cell[..], &["--duration", "60", "--progress-step", "20"]].concat(),
    );
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("every 20 s"), "{out}");
    assert_eq!(times(&out), ["0", "20", "40", "60"], "{out}");
    // A step that does not divide the horizon ends on the horizon, not past
    // it.
    let (code, out, err) = run(
        dtnrun,
        &[&cell[..], &["--duration", "60", "--progress-step", "25"]].concat(),
    );
    assert_eq!(code, 0, "{err}");
    assert_eq!(times(&out), ["0", "25", "50", "60"], "{out}");
}
