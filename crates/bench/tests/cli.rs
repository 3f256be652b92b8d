//! Command-line surfaces of the run binaries, driven through the real
//! executables: usage errors name the flag and the value, removed flags
//! fail as unknown, explicit flags win over defaults, a trace sweep runs
//! each cell once, a scenario that cannot run fails at parse time, and
//! `dtnrun`'s delivery-progress table follows the run's horizon.

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

/// The ablations' own default node list applies only when `--nodes` is
/// absent: an explicit list equal to the figures' default is kept.
#[test]
fn ablation_default_nodes_yield_to_an_explicit_list() {
    let out = std::env::temp_dir().join(format!("ablation_nodes_{}.json", std::process::id()));
    let out_flag = format!("json:{}", out.display());
    let header = |nodes: &[&str]| {
        let cell = [
            "--seeds",
            "1",
            "--duration",
            "1",
            "--no-store",
            "--threads",
            "1",
        ];
        let args = [&["lambda-one"][..], nodes, &cell, &["--out", &out_flag]].concat();
        let (code, _, err) = run(env!("CARGO_BIN_EXE_ablation"), &args);
        assert_eq!(code, 0, "{err}");
        err.lines()
            .find(|l| l.starts_with("ablation lambda-one: "))
            .unwrap_or_else(|| panic!("no header in {err}"))
            .to_string()
    };
    assert_eq!(
        header(&[]),
        "ablation lambda-one: 4 variants x [80, 160] nodes x 1 seeds"
    );
    assert_eq!(
        header(&["--nodes", "40,80,120,160,200,240"]),
        "ablation lambda-one: 4 variants x [40, 80, 120, 160, 200, 240] nodes x 1 seeds"
    );
    std::fs::remove_file(&out).ok();
}

/// A replayed trace fixes the node count, so a trace sweep runs each cell
/// once: the default node list collapses to one point, whose panel column
/// is labelled with the recording's node count, and an explicit list of
/// several counts is a usage error naming `--nodes`.
#[test]
fn trace_sweeps_run_each_cell_once() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("trace_sweep_{}.trace", std::process::id()));
    let out = dir.join(format!("trace_sweep_{}.json", std::process::id()));
    std::fs::write(
        &trace,
        "nodes 5 duration 600\n0 1 10 40\n1 2 30 90\n2 3 100 160\n3 4 200 260\n0 4 300 400\n",
    )
    .unwrap();
    let scenario = format!("trace:{}", trace.display());
    let out_flag = format!("json:{}", out.display());
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    let sweep = [
        "--scenario",
        &scenario,
        "--seeds",
        "2",
        "--no-store",
        "--threads",
        "1",
        "--out",
        &out_flag,
    ];
    let (code, stdout, err) = run(fig3, &sweep);
    assert_eq!(code, 0, "{err}");
    let report = std::fs::read_to_string(&out).unwrap();
    let report = dtn_bench::ReportSpec::from_json_str(&report).unwrap();
    // Four lambdas at one point, two seeds each.
    assert_eq!(report.records.len(), 8);
    assert!(
        stdout.lines().any(|l| l.split_whitespace().eq(["N", "5"])),
        "{stdout}"
    );
    let (code, _, err) = run(fig3, &[&sweep[..], &["--nodes", "12,16"]].concat());
    assert_eq!(code, 2, "{err}");
    assert!(err.starts_with("--nodes: "), "{err}");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&out).ok();
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

/// A scenario that cannot run is a usage error before anything is built,
/// in `dtnrun` and `smoke` as in the figures: an unreadable trace file, and
/// a `--duration` override of trace replay.
#[test]
fn bad_scenarios_fail_at_parse_time() {
    let trace = std::env::temp_dir().join(format!("bad_scenario_{}.trace", std::process::id()));
    std::fs::write(&trace, "nodes 4 duration 100\n0 1 10 40\n").unwrap();
    let replay = format!("trace:{}", trace.display());
    let missing = "trace:/nonexistent/bad_scenario.trace";
    let (dtnrun, smoke) = (env!("CARGO_BIN_EXE_dtnrun"), env!("CARGO_BIN_EXE_smoke"));
    for bin in [dtnrun, smoke] {
        let (code, _, err) = run(bin, &["--scenario", missing, "--no-store"]);
        assert_eq!(code, 2, "{bin}: {err}");
        assert!(
            err.starts_with("cannot read /nonexistent/bad_scenario.trace: "),
            "{bin}: {err}"
        );
        let (code, _, err) = run(
            bin,
            &["--scenario", &replay, "--duration", "100", "--no-store"],
        );
        assert_eq!(code, 2, "{bin}: {err}");
        assert_eq!(
            err.trim(),
            "--duration cannot be combined with trace replay: a replayed trace runs at its \
             recorded horizon",
            "{bin}"
        );
    }
    std::fs::remove_file(&trace).ok();
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
