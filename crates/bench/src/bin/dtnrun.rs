//! `dtnrun` — run any protocol on any scenario family (generated or a
//! replayed contact trace), with a full report (headline metrics, latency
//! percentiles, delivery-progress curve).
//!
//! See `dtnrun --help` (the [`USAGE`] string) for the flag reference.
//! `--protocol` takes the full spec grammar (`eer:lambda=8,ttl=3600`; see
//! `dtn_bench::protocols`), so any tuning the registry knows is one flag
//! away. `--trace file.trace` is shorthand for `--scenario trace:file.trace`;
//! either way the contact process is loaded from the plain-text trace format
//! (see `dtn_sim::trace`) instead of being generated — the path for
//! replaying real-world contact datasets. Every run goes through the shared
//! runner layer (`RunSpec → SimStats`), and the run header prints the
//! *resolved* protocol spec so every log line is a reproducible command.

use dtn_bench::report::{CommonArgs, OutputSpec, ReportSpec, RunRecord};
use dtn_bench::{
    replay_artifact, resolve_store, run_cell, ProbeSpec, ProtocolSpec, RunSpec, ScenarioCache,
    ScenarioSpec, WorkloadSpec,
};
use dtn_sim::report::{delivery_progress, latencies, percentile};
use dtn_sim::SimStats;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: dtnrun [flags]

  --protocol SPEC      protocol under test, with optional parameters
                       (default eer); the grammar is
                         name[:key=value[,key=value...]]
                       e.g. eer:lambda=8,ttl=3600  prophet:beta=0.25
  --scenario FAMILY    paper | rwp | trace:<path>   (default paper)
  --workload KIND      paper | hotspot[:<k>] | bursty[:<on>:<off>]  (default paper)
  --nodes N            node count for generated scenarios (default 40); from
                       2000 nodes the contacts stream window by window instead
                       of materializing the whole trace (bit-identical results)
  --seed S             mobility/traffic seed (default 1)
  --duration SECS      horizon override; invalid with trace replay
  --lambda K           copy quota shorthand (same as :lambda=K)
  --alpha A            EER/CR horizon shorthand (same as :alpha=A)
  --trace PATH         shorthand for --scenario trace:PATH
  --buffer BYTES       per-node buffer capacity, at least 1 (default 1 MB)
  --progress-step SECS delivery-progress bucket, one table row each
                       (default: a fifth of the horizon)
  --probe SPEC         attach an observer to the run (repeatable):
                         timeseries[:dt=SECS]  delivery/overhead/occupancy
                                               curves sampled in-run
                         latency               log2 histogram, exact p50/p95/p99
                         eventlog[:path=PATH]  record every engine event to a
                                               TRACE/1.0 artifact
  --record PATH        sugar for --probe eventlog:path=PATH ({seed} in PATH
                       expands to the run's seed)
  --replay PATH        fold the report out of a recorded TRACE/1.0 artifact
                       instead of running the engine; stats and probe outputs
                       are bitwise identical to the recorded live run (only
                       --probe and --out apply alongside)
  --store DIR          persistent result store root (default results/store);
                       a previously computed run of the same cell is served
                       from disk instead of simulated, new runs are published
  --no-store           disable the result store (always run, never publish)
  --out FORMAT:PATH    emit the run through the report pipeline
                       (json:|csv:|md:, repeatable)
  --help, -h           print this help

examples:
  dtnrun --protocol eer:lambda=8 --scenario rwp --nodes 40
  dtnrun --protocol cr --workload hotspot --duration 2000
  dtnrun --protocol prophet:beta=0.25,gamma=0.99 --scenario trace:contacts.trace
  dtnrun --protocol eer --probe timeseries:dt=60 --out json:results/run.json
  dtnrun --protocol eer --record results/run.trace --out json:results/live.json
  dtnrun --replay results/run.trace --probe latency --out json:results/replay.json";

struct Args {
    protocol: ProtocolSpec,
    scenario: Option<String>,
    workload: WorkloadSpec,
    nodes: u32,
    seed: u64,
    /// `None` = the scenario's default horizon; invalid with trace replay.
    duration: Option<f64>,
    lambda: Option<u32>,
    alpha: Option<f64>,
    buffer: Option<u64>,
    /// `None` = a fifth of the run's horizon.
    progress_step: Option<f64>,
    probes: Vec<ProbeSpec>,
    outs: Vec<OutputSpec>,
    /// Replay a recorded TRACE/1.0 artifact instead of running the engine.
    replay: Option<String>,
    /// Result-store root override; `None` = the default root.
    store: Option<String>,
    /// Disable the result store entirely.
    no_store: bool,
}

/// `Ok(None)` means `--help` was requested.
fn parse_args() -> Result<Option<Args>, String> {
    let mut out = Args {
        protocol: ProtocolSpec::parse("eer").expect("default spec"),
        scenario: None,
        workload: WorkloadSpec::PaperUniform,
        nodes: 40,
        seed: 1,
        duration: None,
        lambda: None,
        alpha: None,
        buffer: None,
        progress_step: None,
        probes: Vec::new(),
        outs: Vec::new(),
        replay: None,
        store: None,
        no_store: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--protocol" => out.protocol = ProtocolSpec::parse(&val("--protocol")?)?,
            "--scenario" => out.scenario = Some(val("--scenario")?),
            "--workload" => out.workload = WorkloadSpec::parse(&val("--workload")?)?,
            "--nodes" => out.nodes = CommonArgs::parse_node_count(&val("--nodes")?)?,
            "--seed" => out.seed = CommonArgs::parse_number("--seed", &val("--seed")?)?,
            "--duration" => out.duration = Some(CommonArgs::parse_duration(&val("--duration")?)?),
            "--lambda" => {
                out.lambda = Some(CommonArgs::parse_number("--lambda", &val("--lambda")?)?)
            }
            "--alpha" => out.alpha = Some(CommonArgs::parse_number("--alpha", &val("--alpha")?)?),
            "--trace" => out.scenario = Some(format!("trace:{}", val("--trace")?)),
            "--buffer" => {
                let v = val("--buffer")?;
                let bytes: u64 = CommonArgs::parse_number("--buffer", &v)?;
                if bytes == 0 {
                    return Err(format!("--buffer: must be at least 1 byte, got {v}"));
                }
                out.buffer = Some(bytes);
            }
            "--progress-step" => {
                let v = val("--progress-step")?;
                let step: f64 = CommonArgs::parse_number("--progress-step", &v)?;
                if !step.is_finite() || step <= 0.0 {
                    return Err(format!("--progress-step: need a positive step, got {v}"));
                }
                out.progress_step = Some(step);
            }
            "--probe" => out.probes.push(ProbeSpec::parse(&val("--probe")?)?),
            "--record" => out.probes.push(ProbeSpec::parse(&format!(
                "eventlog:path={}",
                val("--record")?
            ))?),
            "--replay" => out.replay = Some(val("--replay")?),
            "--store" => out.store = Some(val("--store")?),
            "--no-store" => out.no_store = true,
            "--out" => out.outs.push(OutputSpec::parse(&val("--out")?)?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    // The shorthand flags fold into the spec *through the grammar*, so they
    // get the same parse-time validation as `--protocol` (a zero quota or a
    // quota on epidemic errors here, not deep in router construction), and
    // they only apply when given, so `--protocol eer:lambda=8` is never
    // silently reset to a default.
    let fold = |spec: &ProtocolSpec, key: &str, value: String| -> Result<ProtocolSpec, String> {
        let shown = spec.to_string();
        let sep = if shown.contains(':') { ',' } else { ':' };
        ProtocolSpec::parse(&format!("{shown}{sep}{key}={value}"))
    };
    if let Some(l) = out.lambda {
        out.protocol = fold(&out.protocol, "lambda", l.to_string())?;
    }
    if let Some(a) = out.alpha {
        out.protocol = fold(&out.protocol, "alpha", a.to_string())?;
    }
    Ok(Some(out))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &args.replay {
        let record =
            replay_artifact(std::path::Path::new(path), &args.probes).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
        println!(
            "replaying {path}: protocol {}, scenario {}, workload {}: {} nodes, {:.0} s, seed {}",
            record.protocol,
            record.scenario,
            record.workload,
            record.n_nodes,
            record.duration,
            record.seed
        );
        print_record(&record, Origin::Replayed, args.progress_step);
        emit(format!("dtnrun replay: {path}"), record, &args.outs);
        return;
    }

    let scenario =
        match ScenarioSpec::parse(args.scenario.as_deref().unwrap_or("paper"), args.nodes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
    if args.duration.is_some() && scenario.default_duration().is_none() {
        eprintln!("--duration cannot be combined with trace replay: a replayed trace runs at its recorded horizon");
        std::process::exit(2);
    }

    let mut spec = RunSpec::on(
        args.protocol.kind().name(),
        scenario.clone(),
        args.protocol.clone(),
    )
    .with_workload(args.workload.clone())
    .with_probes(args.probes.clone());
    if let Some(b) = args.buffer {
        spec = spec.with_buffer(b);
    }
    if let Some(d) = args.duration {
        // Record the override in the spec so the report's cell key carries
        // the true horizon.
        spec = spec.with_duration(d);
    }
    let title = format!("dtnrun: {} on {}", args.protocol, spec.scenario);

    let store = resolve_store(args.store.as_deref(), args.no_store).filter(|_| spec.storable());
    if let Some(record) = store
        .as_ref()
        .and_then(|s| s.serve(&spec.cell_key(args.seed).encoded(), args.seed))
    {
        println!(
            "protocol {}, scenario {}, workload {}: {} nodes, {:.0} s, seed {} — served from result \
             store in {:.4} s (no simulation; --no-store forces a cold run)",
            args.protocol,
            spec.scenario,
            args.workload,
            record.n_nodes,
            record.duration,
            record.seed,
            record.wall_s
        );
        print_record(&record, Origin::Served, args.progress_step);
        emit(title, record, &args.outs);
        return;
    }

    let cache = ScenarioCache::new();
    if spec.streams() {
        println!(
            "protocol {}, scenario {scenario}, workload {}: streaming contact supply (the trace is never materialized)",
            args.protocol, args.workload
        );
    } else {
        // The same cache resolves the scenario for the run below, so this
        // census costs no second build.
        let ps = cache
            .try_get_spec(&scenario, &args.workload, args.seed, args.duration)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
        let ts = ps.scenario.trace.stats();
        println!(
            "protocol {}, scenario {scenario}, workload {}: {} nodes, {:.0} s, {} contacts (mean duration {:.2} s), {} messages",
            args.protocol,
            args.workload,
            ps.n_nodes,
            ps.scenario.trace.duration,
            ts.contacts,
            ts.mean_duration,
            ps.workload.len()
        );
    }
    let t0 = Instant::now();
    let run = run_cell(&cache, &spec, args.seed).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let wall = t0.elapsed();
    if spec.streams() {
        println!(
            "{} nodes, {:.0} s, {} messages",
            run.n_nodes, run.duration, run.n_messages
        );
    }
    let record = RunRecord::capture_stream(
        &spec,
        run.n_nodes,
        run.duration,
        args.seed,
        &run.output,
        wall.as_secs_f64(),
    );
    // Either supply generates the workload from the same spec and seed, so
    // the creation times for latency percentiles are regenerated here.
    let created_at: Vec<f64> = spec
        .workload
        .generate(run.n_nodes, run.duration, args.seed)
        .iter()
        .map(|m| m.create_at.as_secs())
        .collect();
    let origin = Origin::Live {
        stats: &run.output.stats,
        created_at: &created_at,
        wall,
    };
    print_record(&record, origin, args.progress_step);
    if let Some(store) = &store {
        if let Err(e) = store.publish(&record) {
            eprintln!("warning: store publish failed: {e}");
        }
    }
    emit(title, record, &args.outs);
}

/// Where a printed record came from.
enum Origin<'a> {
    /// Computed by this invocation: the engine's full statistics add exact
    /// per-message latency percentiles, the delivery-progress table and the
    /// latency histogram's buckets.
    Live {
        stats: &'a SimStats,
        created_at: &'a [f64],
        wall: Duration,
    },
    /// Served from the persistent result store (no simulation).
    Served,
    /// Folded out of a recorded TRACE/1.0 artifact (no simulation).
    Replayed,
}

/// Prints one run's report from its record. Served and replayed records
/// print the headline metrics and any probe sections that rode along; the
/// sections that need per-message creation times come from the probes
/// there (attach `--probe latency` / `--probe timeseries` to a replay to
/// get them, bitwise identical to the recorded live run).
fn print_record(record: &RunRecord, origin: Origin<'_>, progress_step: Option<f64>) {
    let (tag, probe) = match origin {
        Origin::Live { .. } => ("", "probe"),
        Origin::Served => (" (served from store)", "stored probe"),
        Origin::Replayed => (" (replayed)", "replayed probe"),
    };
    let stats = &record.stats;
    println!("\n=== {}{tag} ===", record.protocol);
    println!("delivery ratio   {:.4}", stats.delivery_ratio());
    println!("latency (mean)   {:.1} s", stats.avg_latency());
    if let Origin::Live {
        stats, created_at, ..
    } = &origin
    {
        let lats = latencies(stats, created_at);
        for p in [50.0, 90.0, 99.0] {
            if let Some(v) = percentile(lats.clone(), p) {
                println!("latency (p{p:.0})    {v:.1} s");
            }
        }
    }
    println!("goodput          {:.4}", stats.goodput());
    println!("overhead ratio   {:.2}", stats.overhead_ratio());
    println!("relayed          {}", stats.relayed);
    println!("aborted          {}", stats.aborted);
    println!(
        "drops            buffer {} / ttl {} / protocol {}",
        stats.drops_buffer, stats.drops_ttl, stats.drops_protocol
    );
    println!("control traffic  {:.2} MB", stats.control_mb());
    if let Origin::Live { stats, wall, .. } = &origin {
        println!("wall time        {wall:.2?}");
        let progress_step = progress_step.unwrap_or(if record.duration > 0.0 {
            record.duration / 5.0
        } else {
            1.0
        });
        println!(
            "\ndelivery progress (cumulative, every {:.0} s):",
            progress_step
        );
        let prog = delivery_progress(stats, record.duration, progress_step);
        for (k, v) in prog.iter().enumerate() {
            // A step that does not divide the horizon leaves a last, shorter
            // bucket, which ends at the horizon.
            let t = (k as f64 * progress_step).min(record.duration);
            println!("  t={t:>7.0}  delivered={v}");
        }
    }

    // Probe outputs, sampled *during* the run by the observer pipeline.
    if let Some(ts) = &record.timeseries {
        println!("\ntime series ({probe}, dt = {:.0} s):", ts.dt);
        let stride = ts.samples.len().div_ceil(20).max(1);
        for s in ts.samples.iter().step_by(stride) {
            println!(
                "  t={:>7.0}  dr={:.4} overhead={:>7.2} buffered={:>6} KB ({} msgs)",
                s.t,
                s.delivery_ratio(),
                s.overhead_ratio(),
                s.buffered_bytes / 1024,
                s.buffered_msgs
            );
        }
    }
    if let Some(hist) = &record.latency {
        println!(
            "\nlatency histogram ({probe}): n={} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            hist.count, hist.p50, hist.p95, hist.p99, hist.max
        );
        if let Origin::Live { .. } = origin {
            for (i, &n) in hist.buckets.iter().enumerate() {
                if n > 0 {
                    let lo = (1u64 << i) - 1;
                    let hi = (1u64 << (i + 1)) - 1;
                    println!("  [{lo:>5}, {hi:>5}) s  {n}");
                }
            }
        }
    }
}

/// The machine-readable view of the same run: one record through the shared
/// report pipeline.
fn emit(title: String, record: RunRecord, outs: &[OutputSpec]) {
    let mut report = ReportSpec::new(title);
    report.push(record);
    if !report.write_all(outs) {
        std::process::exit(1);
    }
}
