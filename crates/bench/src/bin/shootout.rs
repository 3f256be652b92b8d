//! `shootout` — every protocol across scenario families in one
//! deterministic sweep matrix.
//!
//! The paper's figures compare protocols on a single scenario (the bus-city);
//! the shootout puts scenario *families* side-by-side as series: paper
//! bus-city, random waypoint, and (optionally) a replayed trace, each crossed
//! with the selected protocols and node counts. One matrix call drives
//! the whole grid, so the thread count never changes the output and every
//! protocol sees the identical contact process per family.
//!
//! ```text
//! cargo run -p dtn-bench --release --bin shootout -- \
//!     [--seeds K] [--nodes a,b,c] [--duration SECS] \
//!     [--protocols eer,cr,...] [--workload paper|hotspot|bursty] \
//!     [--threads N] \
//!     [--trace <path>] [--out json:PATH|csv:PATH|md:PATH ...]
//! ```
//!
//! `--protocols` takes full protocol specs in the `--protocol` grammar, so
//! tuned variants of one protocol can race each other:
//! `--protocols eer:lambda=4,eer:lambda=16,prophet:beta=0.25` (a comma
//! starts a new spec when it is followed by a protocol name; `key=value`
//! segments continue the previous spec). Unknown names list the registry.
//!
//! All output flows through the report pipeline: by default the report is
//! written as `results/shootout.json` + `results/shootout.csv` (`--out`
//! overrides), and a `BENCH_shootout.json` trajectory — per-cell headline
//! means plus runner wall-clock — is always emitted so performance is
//! comparable across code revisions (`reportcheck` validates both).
//!
//! Defaults stay laptop-sized: 2 node counts × 2 seeds on a 2 000 s horizon,
//! plus three *large-n supply cells* — epidemic on the city family at
//! n=1 000, 10 000 and 100 000 on short horizons — that pin contact-supply
//! throughput in the BENCH trajectory (`--no-large-n` skips them). They are
//! ordinary cells at the end of the matrix: the n ≥ 2 000 ones stream their
//! contacts, and all of them ride the fabric and the result store.

use dtn_bench::report::{write_text, CommonArgs, OutputSpec, ReportSpec};
use dtn_bench::{
    resolve_store, run_matrix_records_stored, ProbeSpec, ProtocolKind, ProtocolSpec, RunSpec,
    ScenarioCache, ScenarioSpec, SweepConfig, WorkloadSpec,
};
use std::path::Path;

struct Args {
    seeds: u32,
    node_counts: Vec<u32>,
    duration: f64,
    protocols: Vec<ProtocolSpec>,
    workload: WorkloadSpec,
    trace: Option<String>,
    probes: Vec<ProbeSpec>,
    outs: Vec<OutputSpec>,
    large_n: bool,
    threads: Option<usize>,
    store: Option<String>,
    no_store: bool,
}

/// Splits a `--protocols` list into individual spec strings. The separator
/// is a comma, but a comma also separates `key=value` parameters *inside* a
/// spec — so a segment continues the previous spec when it is a parameter
/// (contains `=` with no `name:` prefix before it) and starts a new spec
/// otherwise: `eer:lambda=4,ttl=600,cr` is two specs.
fn split_spec_list(s: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for seg in s.split(',') {
        let is_param = match (seg.find('='), seg.find(':')) {
            (Some(eq), Some(colon)) => colon > eq,
            (Some(_), None) => true,
            _ => false,
        };
        match out.last_mut() {
            Some(prev) if is_param => {
                prev.push(',');
                prev.push_str(seg);
            }
            _ => out.push(seg.to_string()),
        }
    }
    out
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut out = Args {
        seeds: 2,
        node_counts: vec![40, 80],
        duration: 2_000.0,
        protocols: [
            ProtocolKind::Eer,
            ProtocolKind::Cr,
            ProtocolKind::Ebr,
            ProtocolKind::SprayAndWait,
            ProtocolKind::Epidemic,
            ProtocolKind::Prophet,
        ]
        .into_iter()
        .map(ProtocolSpec::paper)
        .collect(),
        workload: WorkloadSpec::PaperUniform,
        trace: None,
        probes: Vec::new(),
        outs: Vec::new(),
        large_n: true,
        threads: None,
        store: None,
        no_store: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--seeds" => out.seeds = CommonArgs::parse_number("--seeds", &val("--seeds")?)?,
            "--nodes" => out.node_counts = CommonArgs::parse_nodes(&val("--nodes")?)?,
            "--duration" => out.duration = CommonArgs::parse_duration(&val("--duration")?)?,
            "--protocols" => {
                out.protocols = split_spec_list(&val("--protocols")?)
                    .iter()
                    .map(|s| ProtocolSpec::parse(s))
                    .collect::<Result<_, _>>()?
            }
            "--workload" => out.workload = WorkloadSpec::parse(&val("--workload")?)?,
            "--trace" => {
                let p = val("--trace")?;
                // Fail on typos here, not in a worker thread mid-matrix.
                std::fs::metadata(&p).map_err(|e| format!("cannot read {p}: {e}"))?;
                out.trace = Some(p);
            }
            "--probe" => out.probes.push(ProbeSpec::parse(&val("--probe")?)?),
            "--out" => out.outs.push(OutputSpec::parse(&val("--out")?)?),
            "--no-large-n" => out.large_n = false,
            "--threads" => {
                out.threads = Some(CommonArgs::parse_number("--threads", &val("--threads")?)?)
            }
            "--store" => out.store = Some(val("--store")?),
            "--no-store" => out.no_store = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.node_counts.is_empty() || out.protocols.is_empty() {
        return Err("need at least one node count and one protocol".into());
    }
    if out.outs.is_empty() {
        out.outs = vec![
            OutputSpec::parse("json:results/shootout.json").expect("builtin"),
            OutputSpec::parse("csv:results/shootout.csv").expect("builtin"),
        ];
    }
    Ok(Some(out))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!(
                "usage: shootout [--seeds K] [--nodes a,b,c] [--duration SECS] \
                 [--protocols eer,cr,...] [--workload paper|hotspot|bursty] [--trace <path>] \
                 [--probe timeseries[:dt=SECS]|latency ...] \
                 [--threads N] \
                 [--store DIR|--no-store] \
                 [--out json:PATH|csv:PATH|md:PATH ...] [--no-large-n]\n\
                 \n\
                 --protocols takes full specs (eer:lambda=4,eer:lambda=16,prophet:beta=0.25);\n\
                 a comma starts a new spec when followed by a protocol name.\n\
                 --out routes the report (default: json+csv under results/); the\n\
                 BENCH_shootout.json perf trajectory is always written.\n\
                 --no-large-n skips the city n=1000/10000/100000 supply cells."
            );
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    // Scenario families to cross with the protocols. A trace family runs at
    // the recording's native horizon and node count, so it contributes one
    // point per protocol rather than one per node count.
    struct Cell {
        scenario: ScenarioSpec,
        duration: Option<f64>,
    }
    let generated = |f: fn(u32) -> ScenarioSpec| -> Vec<Cell> {
        args.node_counts
            .iter()
            .map(|&n| Cell {
                scenario: f(n),
                duration: Some(args.duration),
            })
            .collect()
    };
    let mut families: Vec<(&str, Vec<Cell>)> = vec![
        ("paper", generated(ScenarioSpec::paper)),
        ("rwp", generated(ScenarioSpec::rwp)),
    ];
    if let Some(path) = &args.trace {
        families.push((
            "trace",
            vec![Cell {
                scenario: ScenarioSpec::trace_path(path),
                duration: None,
            }],
        ));
    }

    let mut specs = Vec::new();
    for proto in &args.protocols {
        for (family, cells) in &families {
            for cell in cells {
                // Labels carry the resolved spec, so two tuned variants of
                // one protocol fold into distinct series.
                let label = format!("{proto} @ {family}");
                let mut spec = RunSpec::on(label, cell.scenario.clone(), proto.clone())
                    .with_workload(args.workload.clone())
                    .with_probes(args.probes.clone());
                if let Some(d) = cell.duration {
                    spec = spec.with_duration(d);
                }
                specs.push(spec);
            }
        }
    }

    // Large-n supply cells: one flooding protocol on the city family at
    // n=1 000, 10 000 and 100 000 on short horizons, so the default shootout
    // stays laptop-sized while the BENCH trajectory tracks contact-supply
    // throughput across revisions.
    if args.large_n {
        let epidemic = ProtocolSpec::paper(ProtocolKind::Epidemic);
        for (n, horizon) in [(1_000u32, 600.0), (10_000, 120.0), (100_000, 60.0)] {
            specs.push(
                RunSpec::on(
                    format!("{epidemic} @ city-large"),
                    ScenarioSpec::city(n, ScenarioSpec::districts_for(n)),
                    epidemic.clone(),
                )
                .with_workload(args.workload.clone())
                .with_duration(horizon),
            );
        }
    }

    let mut cfg = SweepConfig {
        seeds: args.seeds,
        ..SweepConfig::default()
    };
    if let Some(t) = args.threads {
        cfg.threads = t;
    }
    eprintln!(
        "shootout: {} protocols x {} families over {:?} nodes x {} seeds ({} cells)",
        args.protocols.len(),
        families.len(),
        args.node_counts,
        cfg.effective_seeds(),
        specs.len()
    );
    let store = resolve_store(args.store.as_deref(), args.no_store);
    let records = run_matrix_records_stored(&ScenarioCache::new(), &specs, cfg, store.as_ref());

    let mut report = ReportSpec::new(format!(
        "Protocol shootout across scenario families ({} workload, {:.0} s horizon)",
        args.workload, args.duration
    ));
    report.records = records;

    print!("{}", report.render_table());
    eprintln!();
    let all_written = report.write_all(&args.outs);

    // The perf trajectory rides along unconditionally: cells + wall-clock,
    // comparable run-over-run.
    let bench_path = Path::new("BENCH_shootout.json");
    match write_text(bench_path, &report.to_bench_json_string("shootout")) {
        Ok(()) => eprintln!("wrote {}", bench_path.display()),
        Err(e) => {
            eprintln!("trajectory write failed: {e}");
            std::process::exit(1);
        }
    }
    if !all_written {
        std::process::exit(1);
    }
}
