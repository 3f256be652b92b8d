//! The benchmark command.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload NAME --emit-digests
//! ```
//!
//! Runs passes of the workload for about `S` seconds, each pass in a fresh
//! child process of this binary (at least two untraced passes; with
//! `--trace 1`, traced and untraced passes alternate). A pass in a fresh
//! process sees the allocator state every single-run user sees; a second
//! pass in the same process inherits the first one's heap and times
//! differently from run to run. Every cell is checked, and one JSON object
//! is printed as the last line of standard output: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Failed cells are listed on standard
//! error with their keys. `--emit-digests` prints the default seed's cell
//! digests in the format of `digests.tsv`.
//!
//! A pass keeps its temporary stores and reports under `.perfbench/` in the
//! working directory and removes them when it ends; a traced pass leaves its
//! spans in `.perfbench/trace-<workload>-seed<N>.json`.

use perfbench::layers::{layer_metrics, NOT_MEASURED, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::workload::NAMES;
use perfbench::{digest, mean, median, proc_status_mb, CellResult, Pass, Workload, DEFAULT_SEED};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--emit-digests]";

/// Untraced passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// Hidden flag: run exactly one pass and report it on standard output.
const ONE_PASS: &str = "--one-pass";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_digests: bool,
    one_pass: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        emit_digests: false,
        one_pass: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--emit-digests" => {
                args.emit_digests = true;
                continue;
            }
            ONE_PASS => {
                args.one_pass = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload `{}`: expected one of {}",
            args.workload,
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// What one pass process measured and produced.
#[derive(Default)]
struct PassReport {
    pass: Pass,
    peak_rss_mb: f64,
    layers: BTreeMap<String, f64>,
}

/// Runs one pass in this process and writes its report to standard output,
/// one tab-separated record per line.
fn run_one_pass(workload: &Workload, args: &Args) -> Result<(), String> {
    let work_dir =
        PathBuf::from(".perfbench").join(format!("{}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let mut layers = BTreeMap::new();
    let pass = if args.trace {
        let tr = Tracer::new();
        let pass = workload.run_traced(args.seed, &work_dir, &tr);
        layers = layer_metrics(&tr, &pass);
        let path = PathBuf::from(".perfbench")
            .join(format!("trace-{}-seed{}.json", workload.name, args.seed));
        if let Err(e) = std::fs::write(&path, tr.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        pass
    } else {
        workload.run_untraced(args.seed, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    let mut out = String::new();
    for (phase, samples) in [
        ("setup_s", &pass.setup_s),
        ("run_s", &pass.run_s),
        ("warm_s", &pass.warm_s),
    ] {
        for v in samples {
            let _ = writeln!(out, "{phase}\t{v}");
        }
    }
    let _ = writeln!(out, "peak_rss_mb\t{}", proc_status_mb("VmHWM"));
    for (name, v) in &layers {
        let _ = writeln!(out, "layer\t{name}\t{v}");
    }
    for (kind, cells) in [("cell", &pass.cells), ("warm", &pass.warm)] {
        for c in cells {
            match &c.digest {
                Ok(d) => {
                    let _ = writeln!(out, "{kind}\t{}\t{d:016x}", c.key);
                }
                Err(e) => {
                    let e = e.replace(['\t', '\n'], " ");
                    let _ = writeln!(out, "{kind}\t{}\t!{e}", c.key);
                }
            }
        }
    }
    print!("{out}");
    Ok(())
}

fn parse_report(text: &str) -> Result<PassReport, String> {
    let mut r = PassReport::default();
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| -> Result<f64, String> {
            cols.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad report line `{line}`"))
        };
        match cols[0] {
            "setup_s" => r.pass.setup_s.push(num(1)?),
            "run_s" => r.pass.run_s.push(num(1)?),
            "warm_s" => r.pass.warm_s.push(num(1)?),
            "peak_rss_mb" => r.peak_rss_mb = num(1)?,
            "layer" => {
                r.layers
                    .insert(cols.get(1).unwrap_or(&"").to_string(), num(2)?);
            }
            kind @ ("cell" | "warm") => {
                let (Some(key), Some(d)) = (cols.get(1), cols.get(2)) else {
                    return Err(format!("bad report line `{line}`"));
                };
                let digest = match d.strip_prefix('!') {
                    Some(e) => Err(e.to_string()),
                    None => u64::from_str_radix(d, 16).map_err(|e| format!("{line}: {e}")),
                };
                let cell = CellResult {
                    key: key.to_string(),
                    digest,
                };
                if kind == "cell" {
                    r.pass.cells.push(cell);
                } else {
                    r.pass.warm.push(cell);
                }
            }
            _ => return Err(format!("bad report line `{line}`")),
        }
    }
    if r.pass.run_s.is_empty() {
        return Err("the pass reported no run".into());
    }
    Ok(r)
}

/// Runs one pass in a child process of this binary and waits for it.
fn spawn_pass(args: &Args, traced: bool) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg(ONE_PASS)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass process failed: {}", out.status));
    }
    parse_report(&String::from_utf8_lossy(&out.stdout))
}

/// Counts operations and checks every cell's digest.
struct Checker {
    committed: HashMap<String, u64>,
    /// Whether every cell must have a committed digest (the default seed).
    strict: bool,
    /// First digest seen per cell key.
    seen: HashMap<String, u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: &str, seed: u64) -> Self {
        Checker {
            committed: digest::committed(workload).into_iter().collect(),
            strict: seed == DEFAULT_SEED,
            seen: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn pass(&mut self, pass: &Pass, label: &str) {
        for c in &pass.cells {
            self.cell(c, label);
        }
        for c in &pass.warm {
            self.cell(c, &format!("{label} warm"));
        }
    }

    fn cell(&mut self, c: &CellResult, label: &str) {
        self.attempted += 1;
        let problem = match &c.digest {
            Err(e) => Some(e.clone()),
            Ok(d) => self.mismatch(&c.key, *d),
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("FAILED {label} {}: {p}", c.key);
        }
    }

    fn mismatch(&mut self, key: &str, d: u64) -> Option<String> {
        if let Some(&want) = self.committed.get(key) {
            if want != d {
                return Some(format!("digest {d:016x}, committed {want:016x}"));
            }
        } else if self.strict {
            return Some(format!("digest {d:016x} has no committed value"));
        }
        let first = *self.seen.entry(key.to_string()).or_insert(d);
        (first != d).then(|| format!("digest {d:016x} differs from the first pass's {first:016x}"))
    }
}

fn metric_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push('}');
    out
}

/// The median over passes of each pass's mean sample of a phase.
fn per_pass(reports: &[PassReport], phase: fn(&Pass) -> &[f64]) -> f64 {
    median(
        &reports
            .iter()
            .map(|r| mean(phase(&r.pass)))
            .collect::<Vec<_>>(),
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = Workload::named(&args.workload).expect("parse_args checked the name");

    if args.one_pass {
        if let Err(e) = run_one_pass(&workload, &args) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }

    if args.emit_digests {
        let work_dir = PathBuf::from(".perfbench").join(format!("digests-{}", std::process::id()));
        let pass = workload.run_untraced(DEFAULT_SEED, &work_dir);
        let _ = std::fs::remove_dir_all(&work_dir);
        for c in &pass.cells {
            match &c.digest {
                Ok(d) => println!("{}\t{}\t{d:016x}", workload.name, c.key),
                Err(e) => {
                    eprintln!("FAILED {}: {e}", c.key);
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    let mut checker = Checker::new(&workload.name, args.seed);
    let start = Instant::now();
    let mut untraced: Vec<PassReport> = Vec::new();
    let mut traced: Vec<PassReport> = Vec::new();
    let mut broken = false;
    while !broken {
        let t = Instant::now();
        for trace in [true, false] {
            if trace && !args.trace {
                continue;
            }
            let label = if trace { "traced" } else { "untraced" };
            match spawn_pass(&args, trace) {
                Ok(r) => {
                    checker.pass(&r.pass, label);
                    eprintln!(
                        "{label} pass: setup {:?} run {:?} warm {:?}",
                        r.pass.setup_s, r.pass.run_s, r.pass.warm_s
                    );
                    if trace { &mut traced } else { &mut untraced }.push(r);
                }
                Err(e) => {
                    checker.cell(
                        &CellResult {
                            key: format!("{} {label} pass", workload.name),
                            digest: Err(e),
                        },
                        label,
                    );
                    broken = true;
                }
            }
        }
        let round_s = t.elapsed().as_secs_f64();
        let enough = untraced.len() >= if args.trace { 1 } else { MIN_PASSES };
        if enough && start.elapsed().as_secs_f64() + round_s > args.seconds {
            break;
        }
    }

    let run = per_pass(&untraced, |p| &p.run_s);
    // Peak RSS is the run's highest pass peak: the sweep's peak depends on
    // which cells overlapped, and the maximum over more cold runs settles.
    let peak = |reports: &[PassReport]| reports.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let overhead = per_pass(&traced, |p| &p.run_s) / run - 1.0;
        for why in NOT_MEASURED {
            eprintln!("not measured from outside: {why}");
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "rss.peak_mb" => peak(&traced),
                    "trace.overhead" => overhead,
                    _ => median(
                        &traced
                            .iter()
                            .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    ),
                };
                (name, value, unit)
            })
            .collect()
    } else {
        vec![
            ("setup_s", per_pass(&untraced, |p| &p.setup_s), "s"),
            ("run_s", run, "s"),
            ("peak_rss_mb", peak(&untraced), "MB"),
        ]
    };
    eprintln!(
        "{} untraced and {} traced pass(es) in {:.1} s; {} of {} operations failed",
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        checker.failed,
        checker.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        metric_json(&metrics)
    );
}
