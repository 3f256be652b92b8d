//! One-shot sanity run: every protocol on a single scenario, with raw
//! counters — the quickest way to eyeball that the stack behaves.
//!
//! ```text
//! cargo run -p bench --release --bin smoke -- [n_nodes] [seed] \
//!     [--scenario paper|rwp|trace:<path>] \
//!     [--workload paper|hotspot|bursty] [--duration SECS] \
//!     [--probe timeseries[:dt=SECS]|latency ...] \
//!     [--store DIR|--no-store] \
//!     [--out json:PATH|csv:PATH|md:PATH ...]
//! ```
//!
//! Each protocol's run is captured as a report record, so `--out` emits the
//! whole pass through the shared pipeline (single-seed cells).

use dtn_bench::report::{CommonArgs, OutputSpec, ReportSpec, RunRecord};
use dtn_bench::{
    resolve_store, run_cell, ProbeSpec, ProtocolKind, ProtocolSpec, RunSpec, ScenarioCache,
    ScenarioSpec, WorkloadSpec,
};
use std::time::Instant;

fn main() {
    let mut n: u32 = 40;
    let mut seed: u64 = 1;
    let mut scenario_arg = String::from("paper");
    let mut workload = WorkloadSpec::PaperUniform;
    let mut duration: Option<f64> = None;
    let mut probes: Vec<ProbeSpec> = Vec::new();
    let mut outs: Vec<OutputSpec> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut no_store = false;
    let mut positional = 0;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        let die = |e: String| -> ! {
            eprintln!("{e}");
            std::process::exit(2);
        };
        match a.as_str() {
            "--scenario" => scenario_arg = val("--scenario"),
            "--workload" => {
                workload = WorkloadSpec::parse(&val("--workload")).unwrap_or_else(|e| die(e))
            }
            "--duration" => {
                duration =
                    Some(CommonArgs::parse_duration(&val("--duration")).unwrap_or_else(|e| die(e)))
            }
            "--probe" => probes.push(ProbeSpec::parse(&val("--probe")).unwrap_or_else(|e| die(e))),
            "--out" => outs.push(OutputSpec::parse(&val("--out")).unwrap_or_else(|e| die(e))),
            "--store" => store_dir = Some(val("--store")),
            "--no-store" => no_store = true,
            "--help" | "-h" => {
                println!(
                    "usage: smoke [n_nodes] [seed] [--scenario paper|rwp|trace:<path>] \
                     [--workload paper|hotspot|bursty] [--duration SECS] \
                     [--probe timeseries[:dt=SECS]|latency ...] \
                     [--store DIR|--no-store] \
                     [--out json:PATH|csv:PATH|md:PATH ...]"
                );
                return;
            }
            other if other.starts_with('-') => die(format!("unknown flag {other} (try --help)")),
            other => {
                let parsed = match positional {
                    0 => CommonArgs::parse_number("n_nodes", other).map(|v| n = v),
                    1 => CommonArgs::parse_number("seed", other).map(|v| seed = v),
                    _ => Err(format!("unexpected argument {other}")),
                };
                if let Err(e) = parsed {
                    die(e);
                }
                positional += 1;
            }
        }
    }

    let scenario = ScenarioSpec::parse(&scenario_arg, n).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let specs: Vec<RunSpec> = ProtocolKind::ALL
        .into_iter()
        .map(|kind| {
            let mut spec = RunSpec::on(kind.name(), scenario.clone(), ProtocolSpec::paper(kind))
                .with_workload(workload.clone())
                .with_probes(probes.clone());
            if let Some(d) = duration {
                spec = spec.with_duration(d);
            }
            spec
        })
        .collect();

    let cache = ScenarioCache::new();
    if specs.iter().all(RunSpec::streams) {
        eprintln!(
            "scenario {scenario} workload {workload} seed={seed}: streaming contact supply \
             (the trace is never materialized)"
        );
    } else {
        // The same cache resolves the scenario for the runs below, so this
        // census costs no second build.
        let t0 = Instant::now();
        let ps = cache
            .try_get_spec(&scenario, &workload, seed, duration)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
        let ts = ps.scenario.trace.stats();
        eprintln!(
            "scenario {scenario} workload {workload} seed={seed}: {} contacts \
             (mean dur {:.2}s, mean intercontact {:.0}s), {} messages, built in {:?}",
            ts.contacts,
            ts.mean_duration,
            ts.mean_intercontact,
            ps.workload.len(),
            t0.elapsed()
        );
    }

    let store = resolve_store(store_dir.as_deref(), no_store);
    let mut report = ReportSpec::new(format!(
        "Smoke: every protocol on {scenario} ({workload} workload, seed {seed})"
    ));
    for spec in &specs {
        let store = store.as_ref().filter(|_| spec.storable());
        let served = store.and_then(|s| s.serve(&spec.cell_key(seed).encoded(), seed));
        let cached = served.is_some();
        let t = Instant::now();
        let record = served.unwrap_or_else(|| {
            let run = run_cell(&cache, spec, seed).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            let wall_s = t.elapsed().as_secs_f64();
            let record = RunRecord::capture_stream(
                spec,
                run.n_nodes,
                run.duration,
                seed,
                &run.output,
                wall_s,
            );
            if let Some(Err(e)) = store.map(|s| s.publish(&record)) {
                eprintln!("warning: store publish failed: {e}");
            }
            record
        });
        let wall = t.elapsed();
        let stats = record.stats;
        report.push(record);
        // Each row names the *resolved* spec in the `--protocol` grammar, so
        // any line of the log is a reproducible dtnrun invocation.
        println!(
            "{:<14} dr={:.3} lat={:>6.1} gp={:.4} relayed={:>6} dup={:>4} aborted={:>5} \
             drops(buf/ttl/proto)={}/{}/{} ctrl={:>8}KB  [{:.2?}]{}",
            spec.protocol,
            stats.delivery_ratio(),
            stats.avg_latency(),
            stats.goodput(),
            stats.relayed,
            stats.duplicate_deliveries,
            stats.aborted,
            stats.drops_buffer,
            stats.drops_ttl,
            stats.drops_protocol,
            stats.control_bytes / 1024,
            wall,
            if cached { " (served from store)" } else { "" }
        );
    }
    if !report.write_all(&outs) {
        std::process::exit(1);
    }
}
