//! Command-line surfaces of the run binaries, driven through the real
//! executables: usage errors name the flag and the value, and `dtnrun`'s
//! delivery-progress table follows the run's horizon.

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
    for flag in ["--seed", "--buffer", "--run-threads", "--lambda"] {
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
    let (code, _, err) = run(
        env!("CARGO_BIN_EXE_shootout"),
        &["--seeds", "x", "--no-large-n", "--no-store"],
    );
    assert_eq!(code, 2, "{err}");
    assert_eq!(err.trim(), "--seeds: invalid digit found in string, got x");
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
    let (code, out, err) = run(dtnrun, &[&cell[..], &["--duration", "60"]].concat());
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("every 6 s"), "{out}");
    let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("  t=")).collect();
    assert_eq!(rows.len(), 6, "{out}");
    assert!(rows[5].starts_with("  t=     60"), "{out}");
    let (code, out, err) = run(
        dtnrun,
        &[&cell[..], &["--duration", "60", "--progress-step", "20"]].concat(),
    );
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("every 20 s"), "{out}");
}
