//! The benchmark's workloads, and their untraced and traced passes.
//!
//! A [`Workload`] has one of three shapes:
//!
//! * [`Shape::Cells`] — materialized cells on one scenario, run back to
//!   back on one thread (`paper-protocols`);
//! * [`Shape::Stream`] — one cell streamed through the contact stepper
//!   (`city-stream`);
//! * [`Shape::Sweep`] — a figure-style matrix through the sweep fabric
//!   and the result store (`baseline-sweep`).
//!
//! Every pass ends with a store round trip, checked but not reported as an
//! end-to-end metric: the pass's records are published into a fresh store
//! and served back, and every served record must equal its cold twin. In
//! the sweep that is the matrix re-run warm against the store its last cold
//! cycle filled; the single-cell workloads, which use no store in their
//! run, publish and serve their records after it.

use crate::digest::{output_digest, record_digest, record_output_digest};
use crate::proc_status_mb;
use crate::trace::{
    Agg, RouterHooks, SharedHooks, Supply, SupplyKind, TimedObserver, TimedRouter, TimedSource,
    Tracer,
};
use ce_core::CommunityMap;
use dtn_bench::report::json::Json;
use dtn_bench::report::OutputSpec;
use dtn_bench::{
    run_indexed, run_matrix_records_stored, run_on_observed, run_stream, BuiltScenario, CellStore,
    CommunitySource, ProbeSpec, ProtocolKind, ProtocolSpec, ReportSpec, RunOutput, RunRecord,
    RunSpec, ScenarioCache, ScenarioKey, ScenarioSpec, SweepConfig,
};
use dtn_sim::{
    ContactSource, LatencyHistogramProbe, SimConfig, Simulation, TimeSeriesProbe, TraceReplaySource,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper-protocols", "city-stream", "baseline-sweep"];

/// The eight `dtn-routing` baseline families.
pub const BASELINES: [ProtocolKind; 8] = [
    ProtocolKind::Ebr,
    ProtocolKind::MaxProp,
    ProtocolKind::SprayAndWait,
    ProtocolKind::SprayAndFocus,
    ProtocolKind::Epidemic,
    ProtocolKind::Prophet,
    ProtocolKind::Direct,
    ProtocolKind::FirstContact,
];

/// How a workload's cells are executed.
pub enum Shape {
    /// Materialized cells sharing one scenario, run back to back.
    Cells {
        /// The cells, all on the same scenario, workload and horizon.
        specs: Vec<RunSpec>,
    },
    /// One cell streamed through `run_stream`.
    Stream {
        /// The cell.
        spec: Box<RunSpec>,
        /// Stream builds timed per pass for `setup_s` (a build takes a few
        /// milliseconds, so one sample would sit at the noise floor).
        setup_builds: usize,
    },
    /// A matrix run cold into a fresh store, then warm from it.
    Sweep {
        /// The matrix rows (spec-major, as `fig2` orders them).
        specs: Vec<RunSpec>,
        /// Seeds per row; `SweepConfig` numbers them `1..=seeds`.
        seeds: u32,
        /// Sweep workers.
        workers: usize,
        /// Cold runs per set-up, each into a fresh store with the report
        /// emitted; the last one is then re-run warm.
        cycles: usize,
    },
}

/// One named workload.
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// How its cells run.
    pub shape: Shape,
}

/// The outcome of one cell of a pass: its key and output digest, or why it
/// failed.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Encoded cell key (`RunSpec::cell_key`).
    pub key: String,
    /// Output digest, or the failure.
    pub digest: Result<u64, String>,
}

/// What one pass measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Scenarios a traced pass built during set-up; 0 when the cells build
    /// their own streams.
    pub scenario_builds: usize,
    /// Run-phase samples, seconds.
    pub run_s: Vec<f64>,
    /// Warm-phase (store serve) samples, seconds.
    pub warm_s: Vec<f64>,
    /// Computed cells.
    pub cells: Vec<CellResult>,
    /// Served cells; a served record that differs from its cold twin is a
    /// failure.
    pub warm: Vec<CellResult>,
}

/// Sweep workers: two, or fewer on a smaller host.
pub fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

impl Workload {
    /// The benchmark workload called `name`, at its committed size.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "paper-protocols" => Some(Self::paper_protocols(400, 2000.0)),
            "city-stream" => Some(Self::city_stream(2000, 1500.0)),
            "baseline-sweep" => Some(Self::baseline_sweep(
                &[40, 80, 120],
                2,
                None,
                &BASELINES,
                sweep_workers(),
            )),
            _ => None,
        }
    }

    /// EER then CR at paper defaults on `paper:n=N` (city family), one
    /// thread, materialized trace, no store in the run.
    pub fn paper_protocols(n: u32, horizon: f64) -> Workload {
        let scenario = ScenarioSpec::parse(&format!("paper:n={n}"), n)
            .expect("paper:n=N is a valid scenario spec");
        let specs = [ProtocolKind::Eer, ProtocolKind::Cr]
            .map(|k| {
                RunSpec::on(k.name(), scenario.clone(), ProtocolSpec::paper(k))
                    .with_duration(horizon)
                    .with_run_threads(1)
            })
            .to_vec();
        Workload {
            name: "paper-protocols".into(),
            shape: Shape::Cells { specs },
        }
    }

    /// Epidemic on `paper:n=N`, streamed with one scan thread, with the
    /// `timeseries:dt=60` and `latency` probes, no store in the run.
    pub fn city_stream(n: u32, horizon: f64) -> Workload {
        let spec = RunSpec::on(
            "Epidemic",
            ScenarioSpec::parse(&format!("paper:n={n}"), n)
                .expect("paper:n=N is a valid scenario spec"),
            ProtocolSpec::paper(ProtocolKind::Epidemic),
        )
        .with_duration(horizon)
        .with_run_threads(1)
        .with_probe(ProbeSpec::TimeSeries { dt: 60.0 })
        .with_probe(ProbeSpec::LatencyHist);
        Workload {
            name: "city-stream".into(),
            shape: Shape::Stream {
                spec: Box::new(spec),
                setup_builds: 9,
            },
        }
    }

    /// `kinds` at paper defaults on the paper bus-city for each node count,
    /// with the time-series probe `fig2` attaches (1/40 of the horizon).
    /// `horizon` of `None` is the paper's default horizon.
    pub fn baseline_sweep(
        nodes: &[u32],
        seeds: u32,
        horizon: Option<f64>,
        kinds: &[ProtocolKind],
        workers: usize,
    ) -> Workload {
        let resolved = horizon
            .or(ScenarioSpec::paper(nodes[0]).default_duration())
            .expect("the paper bus-city has a default horizon");
        let probe = ProbeSpec::TimeSeries {
            dt: (resolved / 40.0).max(1.0),
        };
        let mut specs = Vec::new();
        for &kind in kinds {
            for &n in nodes {
                let mut spec = RunSpec::on(
                    kind.name(),
                    ScenarioSpec::paper(n),
                    ProtocolSpec::paper(kind),
                )
                .with_probes(vec![probe.clone()]);
                spec.duration = horizon;
                specs.push(spec);
            }
        }
        Workload {
            name: "baseline-sweep".into(),
            shape: Shape::Sweep {
                specs,
                seeds,
                workers,
                cycles: 3,
            },
        }
    }

    /// The `(spec index, seed)` jobs of one pass, in the runner's
    /// (spec-major, seed-minor) order.
    fn jobs(&self, seed: u64) -> Vec<(usize, u64)> {
        match &self.shape {
            Shape::Cells { specs } => (0..specs.len()).map(|i| (i, seed)).collect(),
            Shape::Stream { .. } => vec![(0, seed)],
            Shape::Sweep { specs, seeds, .. } => (0..specs.len())
                .flat_map(|i| (1..=*seeds).map(move |s| (i, u64::from(s))))
                .collect(),
        }
    }

    fn specs(&self) -> &[RunSpec] {
        match &self.shape {
            Shape::Cells { specs } | Shape::Sweep { specs, .. } => specs,
            Shape::Stream { spec, .. } => std::slice::from_ref(spec.as_ref()),
        }
    }

    /// One pass through the `dtn_bench::runner` entry points.
    pub fn run_untraced(&self, seed: u64, work_dir: &Path) -> Pass {
        let dir = fresh_dir(work_dir);
        let mut pass = Pass::default();
        let records: Vec<Result<RunRecord, String>> = match &self.shape {
            Shape::Cells { specs } => {
                let t = Instant::now();
                let cache = ScenarioCache::new();
                let s0 = &specs[0];
                let built = catch(|| cache.get_spec(&s0.scenario, &s0.workload, seed, s0.duration));
                pass.setup_s.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let outs: Vec<Result<RunOutput, String>> = specs
                    .iter()
                    .map(|spec| {
                        let ps = built.as_ref().map_err(Clone::clone)?;
                        catch(|| run_on_observed(ps, spec, seed))
                    })
                    .collect();
                pass.run_s.push(t.elapsed().as_secs_f64());
                specs
                    .iter()
                    .zip(outs)
                    .map(|(spec, out)| {
                        let ps = built.as_ref().map_err(Clone::clone)?;
                        Ok(RunRecord::capture_output(spec, ps, seed, &out?, 0.0))
                    })
                    .collect()
            }
            Shape::Stream { spec, setup_builds } => {
                let mut build = Ok(());
                for _ in 0..*setup_builds {
                    let t = Instant::now();
                    let stream = catch(|| {
                        spec.scenario.build_stream_threads(
                            seed,
                            spec.duration,
                            spec.effective_run_threads(),
                        )
                    });
                    pass.setup_s.push(t.elapsed().as_secs_f64());
                    if let Err(e) = stream.and_then(|s| s.map(drop)) {
                        build = Err(e);
                    }
                }
                let t = Instant::now();
                let run = build.and_then(|()| catch(|| run_stream(spec, seed)).and_then(|r| r));
                pass.run_s.push(t.elapsed().as_secs_f64());
                vec![run.map(|r| {
                    RunRecord::capture_stream(spec, r.n_nodes, r.duration, seed, &r.output, 0.0)
                })]
            }
            Shape::Sweep {
                specs,
                seeds,
                workers,
                cycles,
            } => {
                let t = Instant::now();
                let cache = ScenarioCache::new();
                // Filled sequentially, so no worker race decides how often a
                // scenario is built.
                let mut built = Ok(());
                for &(i, s) in &self.jobs(seed) {
                    let spec = &specs[i];
                    if let Err(e) =
                        catch(|| cache.get_spec(&spec.scenario, &spec.workload, s, spec.duration))
                    {
                        built = Err(e);
                    }
                }
                pass.setup_s.push(t.elapsed().as_secs_f64());
                let cfg = SweepConfig {
                    seeds: *seeds,
                    threads: *workers,
                    verbose: false,
                };
                let n_jobs = self.jobs(seed).len();
                for cycle in 0..*cycles {
                    let dir = dir.join(format!("cycle-{cycle}"));
                    let store = CellStore::open(&dir.join("store"));
                    let t = Instant::now();
                    let records = built.clone().and_then(|()| {
                        let store = store.as_ref().map_err(Clone::clone)?;
                        catch(|| {
                            let records =
                                run_matrix_records_stored(&cache, specs, cfg, Some(store));
                            emit_report(records, &dir)
                        })
                        .and_then(|r| r)
                    });
                    pass.run_s.push(t.elapsed().as_secs_f64());
                    let cold = spread(records.and_then(|r| check_report(r, &dir)), n_jobs);
                    pass.cells.extend(self.results(seed, &cold));
                    if cycle + 1 == *cycles {
                        let t = Instant::now();
                        let warm = match &store {
                            Ok(store) if cold.iter().all(Result::is_ok) => {
                                catch(|| run_matrix_records_stored(&cache, specs, cfg, Some(store)))
                            }
                            Ok(_) => Err("cold pass failed".to_string()),
                            Err(e) => Err(e.clone()),
                        };
                        pass.warm_s.push(t.elapsed().as_secs_f64());
                        pass.warm = compare_warm(&cold, spread(warm, n_jobs));
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
                return pass;
            }
        };
        pass.cells = self.results(seed, &records);
        self.serve_back(&dir, seed, &records, &mut pass);
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    /// The single-cell workloads' warm phase: publish the pass's records
    /// into a fresh store and serve each of them back once.
    fn serve_back(
        &self,
        dir: &Path,
        seed: u64,
        records: &[Result<RunRecord, String>],
        pass: &mut Pass,
    ) {
        let store = CellStore::open(&dir.join("store")).and_then(|store| {
            for r in records.iter().flatten() {
                store.publish(r).map_err(|e| format!("publish: {e}"))?;
            }
            Ok(store)
        });
        let store = match store {
            Ok(s) => s,
            Err(e) => return pass.warm.extend(self.failed(seed, &e)),
        };
        let t = Instant::now();
        let served = self
            .jobs(seed)
            .iter()
            .map(|&(i, s)| {
                let key = self.specs()[i].cell_key(s).encoded();
                store.serve(&key, s).ok_or_else(|| "not served".to_string())
            })
            .collect();
        pass.warm_s.push(t.elapsed().as_secs_f64());
        pass.warm = compare_warm(records, served);
    }

    fn failed(&self, seed: u64, why: &str) -> Vec<CellResult> {
        self.jobs(seed)
            .iter()
            .map(|&(i, s)| CellResult {
                key: self.specs()[i].cell_key(s).encoded(),
                digest: Err(why.to_string()),
            })
            .collect()
    }

    /// Per-job results: the record's output digest after sanity checks, or
    /// the failure.
    fn results(&self, seed: u64, records: &[Result<RunRecord, String>]) -> Vec<CellResult> {
        self.jobs(seed)
            .iter()
            .zip(records)
            .map(|(&(i, s), r)| {
                let key = self.specs()[i].cell_key(s).encoded();
                let digest = r.as_ref().map_err(Clone::clone).and_then(|r| {
                    if r.cell != key {
                        return Err(format!("record carries cell `{}`", r.cell));
                    }
                    sanity(r)?;
                    Ok(record_output_digest(r))
                });
                CellResult { key, digest }
            })
            .collect()
    }

    /// One traced pass: every cell rebuilt from the public layer functions
    /// with timing decorators, recording into `tr`.
    pub fn run_traced(&self, seed: u64, work_dir: &Path, tr: &Tracer) -> Pass {
        let dir = fresh_dir(work_dir);
        let mut pass = Pass::default();
        let jobs = self.jobs(seed);
        let specs = self.specs();
        let store = CellStore::open(&dir.join("store"));

        // Set-up: every distinct scenario, built sequentially.
        let t = Instant::now();
        let mut scenarios: HashMap<ScenarioKey, Result<BuiltScenario, String>> = HashMap::new();
        if !matches!(self.shape, Shape::Stream { .. }) {
            for &(i, s) in &jobs {
                let spec = &specs[i];
                let key = ScenarioKey::new(&spec.scenario, &spec.workload, s, spec.duration);
                let encoded = key.encoded();
                scenarios.entry(key).or_insert_with(|| {
                    catch(|| build_scenario(tr, spec, s, &encoded)).and_then(|r| r)
                });
            }
        }
        tr.max("rss.setup_mb", proc_status_mb("VmRSS"));
        pass.setup_s.push(t.elapsed().as_secs_f64());
        pass.scenario_builds = scenarios.len();

        // Run: cold serve attempts (sweep only), the cells, publish, emit.
        let t = Instant::now();
        let sweep = match &self.shape {
            Shape::Sweep { workers, .. } => Some(*workers),
            _ => None,
        };
        let keys: Vec<String> = jobs
            .iter()
            .map(|&(i, s)| specs[i].cell_key(s).encoded())
            .collect();
        if let (Some(_), Ok(store)) = (sweep, &store) {
            // The runner's serve pass; every lookup misses in a fresh store.
            for (key, &(_, s)) in keys.iter().zip(&jobs) {
                tr.span("serve", key, 0, |_| store.serve(key, s));
            }
        }
        let workers = sweep.unwrap_or(1);
        let cell = |j: usize, parent: u64| -> Result<RunRecord, String> {
            let (i, s) = jobs[j];
            let spec = &specs[i];
            let key = &keys[j];
            catch(|| {
                tr.span("cell", key, parent, |cid| {
                    let t = Instant::now();
                    if let Shape::Stream { .. } = self.shape {
                        let (n, duration, out) = traced_stream_cell(tr, spec, s, cid);
                        return Ok(RunRecord::capture_stream(
                            spec,
                            n,
                            duration,
                            s,
                            &out,
                            t.elapsed().as_secs_f64(),
                        ));
                    }
                    let skey = ScenarioKey::new(&spec.scenario, &spec.workload, s, spec.duration);
                    let ps = scenarios[&skey].as_ref().map_err(Clone::clone)?;
                    let out = traced_cell(tr, spec, s, ps, cid);
                    Ok(RunRecord::capture_output(
                        spec,
                        ps,
                        s,
                        &out,
                        t.elapsed().as_secs_f64(),
                    ))
                })
            })
            .and_then(|r| r)
        };
        let records: Vec<Result<RunRecord, String>> = if sweep.is_some() {
            tr.add("fabric.workers", workers as f64);
            tr.span("fabric", &self.name, 0, |fid| {
                run_indexed(jobs.len(), workers, |j| cell(j, fid))
            })
        } else {
            (0..jobs.len()).map(|j| cell(j, 0)).collect()
        };
        if sweep.is_some() {
            self.publish_traced(tr, &store, &records);
            let report: Vec<RunRecord> = records.iter().flatten().cloned().collect();
            if let Err(e) = tr.span("emit", &self.name, 0, |_| emit_report(report, &dir)) {
                eprintln!("traced emit failed: {e}");
            }
        }
        pass.run_s.push(t.elapsed().as_secs_f64());
        if sweep.is_none() {
            self.publish_traced(tr, &store, &records);
        }
        if let Ok(store) = &store {
            tr.add("store.bytes", store.stats().bytes as f64);
        }

        // Warm: one serve round, then the serve decomposed outside it.
        let t = Instant::now();
        let served: Vec<Result<RunRecord, String>> = keys
            .iter()
            .zip(&jobs)
            .map(|(key, &(_, s))| {
                let store = store.as_ref().map_err(Clone::clone)?;
                tr.span("serve", key, 0, |_| store.serve(key, s))
                    .ok_or_else(|| "not served".to_string())
            })
            .collect();
        pass.warm_s.push(t.elapsed().as_secs_f64());
        tr.add("store.serves", served.iter().flatten().count() as f64);
        tr.add("store.warm_cells", served.len() as f64);
        if let Ok(store) = &store {
            for key in &keys {
                let Ok(text) = tr.span("read", key, 0, |_| {
                    std::fs::read_to_string(store.entry_path(key))
                }) else {
                    continue;
                };
                let _ = tr.span("admit", key, 0, |_| CellStore::admit(&text));
                let _ = tr.span("parse", key, 0, |_| Json::parse(&text));
            }
        }
        pass.warm = compare_warm(&records, served);
        pass.cells = self.results(seed, &records);
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    fn publish_traced(
        &self,
        tr: &Tracer,
        store: &Result<CellStore, String>,
        records: &[Result<RunRecord, String>],
    ) {
        let Ok(store) = store else { return };
        for r in records.iter().flatten() {
            if let Err(e) = tr.span("publish", &r.cell, 0, |_| store.publish(r)) {
                eprintln!("traced publish of {} failed: {e}", r.cell);
            }
        }
    }
}

/// A fresh, empty directory under `work_dir` for one pass's store and
/// report.
fn fresh_dir(work_dir: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = work_dir.join(format!("pass-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f`, turning a panic into an error carrying its message.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        format!("panicked: {msg}")
    })
}

/// One result per job from a whole-matrix result.
fn spread(r: Result<Vec<RunRecord>, String>, n: usize) -> Vec<Result<RunRecord, String>> {
    match r {
        Ok(v) if v.len() == n => v.into_iter().map(Ok).collect(),
        Ok(v) => vec![Err(format!("matrix returned {} records for {n} jobs", v.len())); n],
        Err(e) => vec![Err(e); n],
    }
}

/// Checks each served record against its cold twin: it must be marked as
/// served and equal on every field except `wall_s` and `cached`.
fn compare_warm(
    cold: &[Result<RunRecord, String>],
    warm: Vec<Result<RunRecord, String>>,
) -> Vec<CellResult> {
    cold.iter()
        .zip(warm)
        .map(|(c, w)| {
            let key = w
                .as_ref()
                .map(|r| r.cell.clone())
                .or_else(|_| c.as_ref().map(|r| r.cell.clone()))
                .unwrap_or_default();
            let digest = (|| {
                let (c, w) = (c.as_ref().map_err(Clone::clone)?, w?);
                if !w.cached {
                    return Err("warm record was computed, not served".to_string());
                }
                if record_digest(c) != record_digest(&w) {
                    return Err("served record differs from the cold record".to_string());
                }
                Ok(record_output_digest(&w))
            })();
            CellResult { key, digest }
        })
        .collect()
}

/// Output invariants that need no committed value.
fn sanity(r: &RunRecord) -> Result<(), String> {
    let s = &r.stats;
    if s.created == 0 {
        return Err("no message was created".into());
    }
    if s.delivered > s.created || s.delivered > s.relayed {
        return Err(format!(
            "delivered {} exceeds created {} or relayed {}",
            s.delivered, s.created, s.relayed
        ));
    }
    if let Some(l) = &r.latency {
        if l.count != s.delivered || l.buckets.iter().sum::<u64>() != l.count {
            return Err(format!(
                "latency histogram counts {} deliveries, stats {}",
                l.count, s.delivered
            ));
        }
    }
    if let Some(ts) = &r.timeseries {
        let monotone = ts.samples.windows(2).all(|w| {
            w[0].t <= w[1].t && w[0].created <= w[1].created && w[0].delivered <= w[1].delivered
        });
        let bounded = ts
            .samples
            .last()
            .is_some_and(|l| l.created <= s.created && l.delivered <= s.delivered);
        if !monotone || !bounded {
            return Err("time series is not monotone or exceeds the final counters".into());
        }
    }
    Ok(())
}

/// Writes the sweep's report in every format `fig2` can emit: JSON, CSV
/// and Markdown. Returns the records.
fn emit_report(records: Vec<RunRecord>, dir: &Path) -> Result<Vec<RunRecord>, String> {
    let mut report = ReportSpec::new("baseline sweep");
    report.records = records;
    for out in ["json:report.json", "csv:report.csv", "md:report.md"] {
        let mut out = OutputSpec::parse(out)?;
        out.path = dir.join(&out.path);
        report.write(&out).map_err(|e| e.to_string())?;
    }
    Ok(report.records)
}

/// Checks the report [`emit_report`] wrote: every format is on disk and
/// the JSON names every record's cell. (Parsing the whole document back
/// costs more than the sweep itself; each record's content is already
/// checked through its digest and its store round trip.)
fn check_report(records: Vec<RunRecord>, dir: &Path) -> Result<Vec<RunRecord>, String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("emitted {name}: {e}"))
    };
    let json = read("report.json")?;
    if read("report.csv")?.is_empty() || read("report.md")?.is_empty() {
        return Err("an emitted report is empty".into());
    }
    if let Some(r) = records
        .iter()
        .find(|r| !json.contains(&format!("\"{}\"", r.cell)))
    {
        return Err(format!("emitted report.json lacks cell {}", r.cell));
    }
    Ok(records)
}

/// Where a cell's router decorators aggregate: `core.eer`, `core.cr` or
/// `routing`.
fn family(spec: &RunSpec) -> &'static str {
    match spec.protocol.kind() {
        ProtocolKind::Eer => "core.eer",
        ProtocolKind::Cr => "core.cr",
        _ => "routing",
    }
}

/// [`BuiltScenario::from_specs`] from its parts, timed: the mobility build
/// and the workload generation.
fn build_scenario(
    tr: &Tracer,
    spec: &RunSpec,
    seed: u64,
    key: &str,
) -> Result<BuiltScenario, String> {
    assert!(
        !matches!(spec.scenario, ScenarioSpec::TraceReplay { .. }),
        "the benchmark builds generated scenarios only"
    );
    let scenario = tr.span("build", key, 0, |_| {
        spec.scenario.build(seed, spec.duration)
    })?;
    let n_nodes = scenario.trace.n_nodes;
    let workload = tr.span("workload", key, 0, |_| {
        spec.workload
            .generate(n_nodes, scenario.trace.duration, seed)
    });
    Ok(BuiltScenario {
        scenario: Arc::new(scenario),
        workload: Arc::new(workload),
        n_nodes,
        seed,
        key: ScenarioKey::new(&spec.scenario, &spec.workload, seed, spec.duration),
    })
}

/// A materialized cell: trace replay into a decorated engine.
fn traced_cell(
    tr: &Tracer,
    spec: &RunSpec,
    seed: u64,
    ps: &BuiltScenario,
    parent: u64,
) -> RunOutput {
    let communities = ps.scenario.communities.clone();
    let source =
        || -> Box<dyn ContactSource> { Box::new(TraceReplaySource::new(&ps.scenario.trace)) };
    let workload = ps.workload.as_ref().clone();
    run_decorated(
        tr,
        spec,
        seed,
        parent,
        source,
        SupplyKind::Replay,
        communities,
        workload,
    )
}

/// A streamed cell: the stream built inside the cell, as `run_stream` does.
fn traced_stream_cell(
    tr: &Tracer,
    spec: &RunSpec,
    seed: u64,
    parent: u64,
) -> (u32, f64, RunOutput) {
    let key = spec.cell_key(seed).encoded();
    let stream = tr
        .span("build", &key, parent, |_| {
            spec.scenario
                .build_stream_threads(seed, spec.duration, spec.effective_run_threads())
        })
        .unwrap_or_else(|e| panic!("stream build failed: {e}"));
    let (n, duration) = (stream.n_nodes, stream.duration);
    let workload = tr.span("workload", &key, parent, |_| {
        spec.workload.generate(n, duration, seed)
    });
    let source = stream.source;
    let out = run_decorated(
        tr,
        spec,
        seed,
        parent,
        move || source,
        SupplyKind::Stream,
        stream.communities,
        workload,
    );
    (n, duration, out)
}

/// Constructs and runs one decorated simulation, folding its aggregates
/// into `tr`. Mirrors `dtn_bench::runner`'s execution of a cell.
#[allow(clippy::too_many_arguments)]
fn run_decorated(
    tr: &Tracer,
    spec: &RunSpec,
    seed: u64,
    parent: u64,
    source: impl FnOnce() -> Box<dyn ContactSource>,
    kind: SupplyKind,
    communities: Vec<u32>,
    mut workload: Vec<dtn_sim::MessageSpec>,
) -> RunOutput {
    assert!(
        matches!(spec.communities, CommunitySource::GroundTruth) && spec.ring_drain.is_none(),
        "the benchmark runs ground-truth communities and inline observers"
    );
    let cell = spec.cell_key(seed).encoded();
    let family = family(spec);
    let communities = spec
        .protocol
        .needs_communities()
        .then(|| Arc::new(CommunityMap::new(communities)));
    if let Some(ttl) = spec.protocol.ttl {
        for m in &mut workload {
            m.ttl = ttl;
        }
    }
    let n_messages = workload.len();
    let mut cfg = SimConfig::paper(seed);
    if let Some(bytes) = spec.buffer_capacity.or(spec.protocol.buffer) {
        cfg.buffer_capacity = bytes;
    }

    let hooks: SharedHooks = Rc::new(std::cell::RefCell::new(RouterHooks::default()));
    let supply = Arc::new(Mutex::new(Supply::default()));
    let rss0 = proc_status_mb("VmRSS");
    let mut sim = tr.span("construct", &cell, parent, |_| {
        let source = TimedSource::new(source(), Arc::clone(&supply));
        Simulation::from_source(Box::new(source), workload, cfg, |id, n| {
            let t = Instant::now();
            let router = spec.protocol.make_router(id, n, communities.as_ref());
            hooks.borrow_mut().make.add(t.elapsed());
            Box::new(TimedRouter::new(router, Rc::clone(&hooks)))
        })
    });
    tr.max("sim.construct_rss_mb", proc_status_mb("VmRSS") - rss0);
    for probe in spec.effective_probes() {
        match probe {
            ProbeSpec::TimeSeries { dt } => sim.add_observer(Box::new(TimedObserver::new(
                Box::new(TimeSeriesProbe::new(dt)),
            ))),
            ProbeSpec::LatencyHist => sim.add_observer(Box::new(TimedObserver::new(Box::new(
                LatencyHistogramProbe::new(),
            )))),
            ProbeSpec::EventLog { .. } => panic!("the benchmark records no event logs"),
        }
    }
    let (stats, observers) = tr.span("run", &cell, parent, |_| sim.run_observed());

    let mut out = RunOutput {
        stats,
        ..RunOutput::default()
    };
    let mut batches = Agg::default();
    let mut end = Agg::default();
    for obs in &observers {
        let timed = obs
            .as_any()
            .downcast_ref::<TimedObserver>()
            .expect("every observer of a traced simulation is decorated");
        batches.merge(&timed.batches);
        end.add(timed.end);
        let inner = timed.inner().as_any();
        if let Some(p) = inner.downcast_ref::<TimeSeriesProbe>() {
            out.timeseries.get_or_insert_with(|| p.series().clone());
        } else if let Some(p) = inner.downcast_ref::<LatencyHistogramProbe>() {
            out.latency.get_or_insert_with(|| p.histogram().clone());
        }
    }
    tr.hook("observer.batches", &batches);
    tr.hook("observer.end", &end);
    // The simulation is gone, so every router has been dropped and has
    // reported its state size.
    let h = hooks.borrow();
    tr.hook(&format!("router.{family}.make"), &h.make);
    tr.hook(&format!("router.{family}.contact_up"), &h.contact_up);
    tr.hook(&format!("router.{family}.pick_transfer"), &h.pick_transfer);
    tr.hook(&format!("router.{family}.other"), &h.other);
    tr.add("router.ticks", h.ticks as f64);
    tr.max(&format!("state_bytes.{family}"), h.state_bytes as f64);
    let s = supply
        .lock()
        .expect("supply lock poisoned: a panic interrupted a supply update");
    let supply_key = match kind {
        SupplyKind::Stream => "supply.stream",
        SupplyKind::Replay => "supply.replay",
    };
    tr.hook(supply_key, &s.windows);
    tr.add("contact_events", s.events as f64);
    let snap = out.stats.snapshot();
    tr.add("messages", n_messages as f64);
    tr.add("sim.relayed", snap.relayed as f64);
    tr.add("sim.aborted", snap.aborted as f64);
    tr.add(
        &format!("control_bytes.{family}"),
        snap.control_bytes as f64,
    );
    out
}

/// Digest of a runner output (for tests comparing against plain runs).
pub fn run_output_digest(out: &RunOutput) -> u64 {
    output_digest(
        &out.stats.snapshot(),
        out.timeseries.as_ref(),
        out.latency.as_ref(),
    )
}

/// Runs `spec` once on `ps` through the decorated engine, with a throwaway
/// tracer (for tests comparing against plain runs).
pub fn decorated_run(spec: &RunSpec, ps: &BuiltScenario, seed: u64) -> RunOutput {
    traced_cell(&Tracer::new(), spec, seed, ps, 0)
}

/// Streams `spec` once through the decorated engine, with a throwaway
/// tracer (for tests comparing against `run_stream`).
pub fn decorated_stream_run(spec: &RunSpec, seed: u64) -> RunOutput {
    traced_stream_cell(&Tracer::new(), spec, seed, 0).2
}
