//! The single execution layer every binary, bench and test drives
//! simulations through.
//!
//! The primitive is [`run_cell`]: it executes one deterministic
//! `(spec, seed)` cell and chooses the contact supply with one predicate,
//! [`RunSpec::streams`]. City-scale generated scenarios stream their
//! contacts window by window ([`run_stream`]); every other cell replays the
//! [`BuiltScenario`] the shared [`ScenarioCache`] resolves
//! ([`run_on_observed`]). The two supplies are bit-identical, so the choice
//! never shows in an output. A sweep is a matrix of such cells:
//! [`run_matrix`] fans them out over the work-stealing sweep
//! [`fabric`](crate::fabric), then reduces per-point results in
//! deterministic order (results are keyed, not raced), so the thread count
//! never changes the output. [`run_matrix_records`] is the same fan-out
//! returning provenance-full [`RunRecord`]s for the report pipeline.
//!
//! ```
//! use dtn_bench::{run_matrix, ProtocolSpec, RunSpec, SweepConfig};
//!
//! // Two protocols on the paper's 8-node bus-city, one seed each.
//! let specs = vec![
//!     RunSpec::new("EER", 8, ProtocolSpec::parse("eer:lambda=4").unwrap())
//!         .with_duration(300.0),
//!     RunSpec::new("Epidemic", 8, ProtocolSpec::parse("epidemic").unwrap())
//!         .with_duration(300.0),
//! ];
//! let cfg = SweepConfig { seeds: 1, threads: 2, verbose: false };
//! let points = run_matrix(&specs, cfg);
//! assert_eq!(points.len(), 2, "one averaged point per spec");
//! assert!(points.iter().all(|p| p.runs == 1));
//! ```

use crate::probes::ProbeSpec;
use crate::protocols::ProtocolSpec;
use crate::report::RunRecord;
use crate::scenario::{BuiltScenario, ScenarioCache, ScenarioKey};
use ce_core::{detect_over_trace, detected_map, CommunityMap, DetectorConfig};
use dtn_mobility::{ScenarioSpec, WorkloadSpec};
use dtn_sim::{
    EventLogWriter, LatencyHistogram, LatencyHistogramProbe, MetricPoint, SimConfig, SimObserver,
    SimStats, Simulation, TimeSeries, TimeSeriesProbe, TraceMeta, TraceReader,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a run's community map (needed by CR) comes from.
#[derive(Clone, Default)]
pub enum CommunitySource {
    /// The scenario's ground truth (each bus line's home district).
    #[default]
    GroundTruth,
    /// Online detection over the contact trace (the SIMPLE detector).
    Detected,
    /// A fixed, caller-supplied map.
    Fixed(Arc<CommunityMap>),
}

impl CommunitySource {
    /// Materialises the community map for `ps`.
    fn resolve(&self, ps: &BuiltScenario) -> Arc<CommunityMap> {
        match self {
            CommunitySource::GroundTruth => {
                Arc::new(CommunityMap::new(ps.scenario.communities.clone()))
            }
            CommunitySource::Detected => {
                let dets = detect_over_trace(&ps.scenario.trace, DetectorConfig::default());
                Arc::new(detected_map(&dets))
            }
            CommunitySource::Fixed(map) => Arc::clone(map),
        }
    }
}

/// One cell of the sweep matrix.
#[derive(Clone)]
pub struct RunSpec {
    /// Row label (e.g. protocol name or λ value).
    pub series: String,
    /// The contact scenario this cell runs on.
    pub scenario: ScenarioSpec,
    /// The message workload laid over the scenario.
    pub workload: WorkloadSpec,
    /// Protocol under test, as a first-class parameterized spec.
    pub protocol: ProtocolSpec,
    /// Per-node buffer capacity override in bytes (`None` = the protocol
    /// spec's `buffer` knob if set, else the paper's 1 MB).
    pub buffer_capacity: Option<u64>,
    /// Scenario horizon override in seconds (`None` = the scenario's
    /// default — the paper's 10 000 s for generated families, the native
    /// horizon for trace replay).
    pub duration: Option<f64>,
    /// Community map source for protocols that need one (CR).
    pub communities: CommunitySource,
    /// Observers attached to every run of this cell (time-series curves,
    /// latency histograms). Pure observation: probes never change the
    /// run's [`SimStats`]. At most one probe per kind takes effect
    /// ([`RunSpec::effective_probes`]).
    pub probes: Vec<ProbeSpec>,
    /// Always `None`: observers are always called inline, and the type
    /// admits no other value. Kept only because the benchmark package
    /// asserts it is unset; it goes after the next benchmark change.
    pub ring_drain: Option<std::convert::Infallible>,
}

impl RunSpec {
    /// A paper bus-city cell with the paper's default parameters.
    pub fn new(series: impl Into<String>, n_nodes: u32, protocol: ProtocolSpec) -> Self {
        Self::on(series, ScenarioSpec::paper(n_nodes), protocol)
    }

    /// A cell on an arbitrary scenario family with the paper's uniform
    /// workload.
    pub fn on(series: impl Into<String>, scenario: ScenarioSpec, protocol: ProtocolSpec) -> Self {
        RunSpec {
            series: series.into(),
            scenario,
            workload: WorkloadSpec::PaperUniform,
            protocol,
            buffer_capacity: None,
            duration: None,
            communities: CommunitySource::default(),
            probes: Vec::new(),
            ring_drain: None,
        }
    }

    /// Replaces the scenario family.
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = scenario;
        self
    }

    /// Replaces the message workload.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the per-node buffer capacity (bytes).
    pub fn with_buffer(mut self, bytes: u64) -> Self {
        self.buffer_capacity = Some(bytes);
        self
    }

    /// Overrides the scenario horizon (seconds). Honored by [`run_cell`]
    /// (which builds the scenario); [`run_on_observed`] takes its scenario
    /// as given and asserts that this override, if set, matches it.
    pub fn with_duration(mut self, seconds: f64) -> Self {
        self.duration = Some(seconds);
        self
    }

    /// Chooses where the run's community map comes from. Only consulted for
    /// protocols that need one ([`ProtocolSpec::needs_communities`], i.e.
    /// CR).
    pub fn with_communities(mut self, source: CommunitySource) -> Self {
        self.communities = source;
        self
    }

    /// Attaches a probe to every run of this cell.
    pub fn with_probe(mut self, probe: ProbeSpec) -> Self {
        self.probes.push(probe);
        self
    }

    /// Replaces the full probe list.
    pub fn with_probes(mut self, probes: Vec<ProbeSpec>) -> Self {
        self.probes = probes;
        self
    }

    /// Returns the spec unchanged: every run scans its contacts on the
    /// simulation thread, so the only worker count this admits is one. Kept
    /// only because the benchmark package calls it; it goes with ROADMAP
    /// item 7's benchmark change.
    ///
    /// # Panics
    /// Panics if `threads` is not 1.
    pub fn with_run_threads(self, threads: u32) -> Self {
        assert_eq!(
            threads, 1,
            "the sharded contact scan is removed; a run scans on one thread"
        );
        self
    }

    /// Always 1: every run scans its contacts on the simulation thread. Kept
    /// only because the benchmark package calls it; it goes with ROADMAP
    /// item 7's benchmark change.
    pub fn effective_run_threads(&self) -> u32 {
        1
    }

    /// Whether [`run_cell`] streams this cell's contacts ([`run_stream`])
    /// instead of replaying a materialized trace: generated scenarios of at
    /// least 2 000 declared nodes, whose whole-horizon trace is too large to
    /// hold. A protocol consuming [`CommunitySource::Detected`] always
    /// materializes, because detection replays the trace (memoized per
    /// scenario in the [`ScenarioCache`]).
    pub fn streams(&self) -> bool {
        self.scenario.declared_nodes().is_some_and(|n| n >= 2_000) && !self.detects_communities()
    }

    /// Whether the result store may serve and publish this cell. A cell
    /// recording an event log bypasses the store in both directions: its
    /// side-effect artifact cannot be served from a memo, and serving the
    /// record without the artifact would break replay provenance.
    pub fn storable(&self) -> bool {
        !self
            .probes
            .iter()
            .any(|p| matches!(p, ProbeSpec::EventLog { .. }))
    }

    /// Whether this cell's protocol consumes online-detected communities.
    fn detects_communities(&self) -> bool {
        self.protocol.needs_communities() && matches!(self.communities, CommunitySource::Detected)
    }

    /// The probes actually attached to a run: the *first* of each kind. A
    /// record carries at most one time series and one latency histogram, so
    /// later duplicates are ignored rather than silently computed and
    /// dropped; the cell key encodes exactly this effective list.
    pub fn effective_probes(&self) -> Vec<ProbeSpec> {
        first_of_each_kind(&self.probes)
    }

    /// The full cell identity of `(self, seed)`: the scenario key extended
    /// with the protocol's injective encoding plus the run-level qualifiers
    /// (buffer override, community source). Two differently-tuned variants
    /// of one [`ProtocolKind`](crate::ProtocolKind) — `eer:lambda=4` vs
    /// `eer:lambda=16` — always key distinctly.
    pub fn cell_key(&self, seed: u64) -> ScenarioKey {
        let mut p = self.protocol.cache_key();
        if let Some(b) = self.buffer_capacity {
            p.push_str(&format!("+buf={b:x}"));
        }
        match &self.communities {
            CommunitySource::GroundTruth => {}
            CommunitySource::Detected => p.push_str("+comm=detected"),
            // Caller-supplied maps have no canonical content encoding; the
            // tag records that the cell is not ground-truth keyed.
            CommunitySource::Fixed(_) => p.push_str("+comm=fixed"),
        }
        // Probes are part of the cell identity: a probed record carries data
        // an unprobed one does not, so the two must never share a key (the
        // underlying SimStats are identical either way). Keyed on the
        // *effective* list, sorted — attachment order neither changes what a
        // record carries nor may it split one probe set into two cells.
        let mut probe_keys: Vec<String> = self
            .effective_probes()
            .iter()
            .map(ProbeSpec::cache_key)
            .collect();
        probe_keys.sort_unstable();
        for key in probe_keys {
            p.push_str("+probe=");
            p.push_str(&key);
        }
        ScenarioKey::new(&self.scenario, &self.workload, seed, self.duration).with_protocol(p)
    }
}

/// Sweep-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Seeds per point (the paper averages 10 runs; default here is 3 for
    /// wall-clock reasons — pass `--full` to the binaries for 10). Values
    /// below 1 are clamped up to 1 at use.
    pub seeds: u32,
    /// Worker threads (defaults to available parallelism; values below 1 are
    /// clamped up to 1 at use).
    pub threads: usize,
    /// Print progress lines to stderr.
    pub verbose: bool,
}

impl SweepConfig {
    /// The worker-thread count actually used: at least 1, whatever the
    /// configured value.
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The seed count actually used: at least 1, whatever the configured
    /// value. `seeds: 0` would otherwise silently reduce every point to an
    /// all-zero [`MetricPoint`] with `runs: 0`.
    pub fn effective_seeds(&self) -> u32 {
        self.seeds.max(1)
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seeds: 3,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            verbose: true,
        }
    }
}

/// Everything one executed cell produced: the run's [`SimStats`] plus the
/// output of every probe the spec attached (`None` when the corresponding
/// [`ProbeSpec`] was not requested).
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// The run's statistics — identical with or without probes attached.
    pub stats: SimStats,
    /// Sampled delivery/overhead/occupancy curves
    /// ([`ProbeSpec::TimeSeries`]).
    pub timeseries: Option<TimeSeries>,
    /// Latency histogram with exact percentiles
    /// ([`ProbeSpec::LatencyHist`]).
    pub latency: Option<LatencyHistogram>,
    /// Path of the TRACE/1.0 artifact the run recorded
    /// ([`ProbeSpec::EventLog`]), with `{seed}` already expanded.
    pub artifact: Option<String>,
}

/// Executes one `(spec, seed)` cell — the one function every sweep job and
/// binary runs a cell through. The contact supply is [`RunSpec::streams`]'s
/// choice: a streamed cell goes through [`run_stream`]; every other cell
/// replays the [`BuiltScenario`] that `cache` resolves, with detected
/// communities memoized there too. Both supplies produce bit-identical
/// results, so the same `(spec, seed)` always yields the same output,
/// whichever thread, binary or supply runs it.
///
/// Errors name why the cell could not be built (an unreadable trace file,
/// a horizon override on trace replay).
pub fn run_cell(cache: &ScenarioCache, spec: &RunSpec, seed: u64) -> Result<CellRun, String> {
    if spec.streams() {
        return run_stream(spec, seed);
    }
    let ps = cache.try_get_spec(&spec.scenario, &spec.workload, seed, spec.duration)?;
    let output = if spec.detects_communities() {
        // Detection replays the whole trace; route it through the cache so
        // every cell (and any agreement metrics) share one pass per scenario.
        let fixed = RunSpec {
            communities: CommunitySource::Fixed(cache.detected_communities(&ps)),
            ..spec.clone()
        };
        run_on_observed(&ps, &fixed, seed)
    } else {
        run_on_observed(&ps, spec, seed)
    };
    Ok(CellRun {
        n_nodes: ps.n_nodes,
        duration: ps.scenario.trace.duration,
        n_messages: ps.workload.len(),
        output,
    })
}

/// Executes `spec` against an explicitly supplied scenario — the replay
/// half of [`run_cell`], and the path for pre-built inputs: attaches one
/// observer per [`RunSpec::probes`] entry, runs, and extracts each probe's
/// result. `seed` feeds [`SimConfig::paper`] (router-private randomness)
/// only; the scenario is taken as given — in particular
/// [`RunSpec::duration`] cannot re-shape an already-built scenario (that
/// resolution happens in [`run_cell`]), so a mismatch between the two is a
/// caller bug.
pub fn run_on_observed(ps: &BuiltScenario, spec: &RunSpec, seed: u64) -> RunOutput {
    assert!(
        spec.duration
            .is_none_or(|d| (d - ps.scenario.trace.duration).abs() < 1e-9),
        "RunSpec duration override ({:?}) does not match the supplied scenario's horizon ({}); \
         resolve the spec through run_cell/ScenarioCache instead",
        spec.duration,
        ps.scenario.trace.duration
    );
    // Community maps are resolved only for protocols that consume one (CR);
    // the ground-truth clone and especially online detection are not free.
    let communities = spec
        .protocol
        .needs_communities()
        .then(|| spec.communities.resolve(ps));
    let workload = spec.resolved_workload(ps.workload.as_ref().clone());
    let n_messages = workload.len();
    let sim = Simulation::new(
        &ps.scenario.trace,
        workload,
        spec.sim_config(seed),
        |id, n| spec.protocol.make_router(id, n, communities.as_ref()),
    );
    observe(
        sim,
        spec,
        seed,
        ps.n_nodes,
        ps.scenario.trace.duration,
        n_messages,
    )
}

/// The result of one `(spec, seed)` cell, whichever contact supply ran it.
/// A streamed cell has no [`BuiltScenario`] — its contact trace is never
/// materialized — so the resolved scenario shape rides along explicitly for
/// record capture ([`RunRecord::capture_stream`]) and report headers.
#[derive(Debug)]
pub struct CellRun {
    /// Resolved node count.
    pub n_nodes: u32,
    /// Resolved horizon in seconds.
    pub duration: f64,
    /// Number of messages in the generated workload.
    pub n_messages: usize,
    /// The run's statistics and probe outputs.
    pub output: RunOutput,
}

/// Executes one `(spec, seed)` cell through the streaming contact path — the
/// streaming half of [`run_cell`]: the contact process is built as a
/// demand-driven [`dtn_mobility::StreamScenario`] and pulled by the engine
/// window by window, so peak memory stays bounded by the generation window
/// instead of the whole-horizon trace. For generated scenario families the
/// resulting [`SimStats`] are bit-identical to the materialized replay; at
/// city scale (`paper:n=100000`) this is the only feasible path.
///
/// [`CommunitySource::Detected`] is rejected: online detection replays a
/// materialized trace, which is exactly what streaming avoids. Ground-truth
/// and fixed maps work unchanged.
pub fn run_stream(spec: &RunSpec, seed: u64) -> Result<CellRun, String> {
    let stream = spec.scenario.build_stream(seed, spec.duration)?;
    let communities = if spec.protocol.needs_communities() {
        Some(match &spec.communities {
            CommunitySource::GroundTruth => Arc::new(CommunityMap::new(stream.communities.clone())),
            CommunitySource::Fixed(map) => Arc::clone(map),
            CommunitySource::Detected => {
                return Err(
                    "detected communities require a materialized contact trace; \
                     use the non-streaming path or a fixed/ground-truth map"
                        .into(),
                )
            }
        })
    } else {
        None
    };
    let workload = spec.resolved_workload(spec.workload.generate(
        stream.n_nodes,
        stream.duration,
        seed,
    ));
    let n_messages = workload.len();
    let sim = Simulation::from_source(stream.source, workload, spec.sim_config(seed), |id, n| {
        spec.protocol.make_router(id, n, communities.as_ref())
    });
    Ok(CellRun {
        n_nodes: stream.n_nodes,
        duration: stream.duration,
        n_messages,
        output: observe(sim, spec, seed, stream.n_nodes, stream.duration, n_messages),
    })
}

impl RunSpec {
    /// The paper [`SimConfig`] for `seed` with this cell's buffer override
    /// applied (an explicit [`RunSpec::buffer_capacity`] wins over the
    /// protocol spec's knob).
    fn sim_config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper(seed);
        if let Some(bytes) = self.buffer_capacity.or(self.protocol.buffer) {
            cfg.buffer_capacity = bytes;
        }
        cfg
    }

    /// Applies the protocol spec's TTL override to a generated workload.
    fn resolved_workload(
        &self,
        mut workload: Vec<dtn_sim::MessageSpec>,
    ) -> Vec<dtn_sim::MessageSpec> {
        if let Some(ttl) = self.protocol.ttl {
            for m in &mut workload {
                m.ttl = ttl;
            }
        }
        workload
    }
}

/// Attaches `spec`'s effective probes, runs the simulation and extracts the
/// stats plus each probe's output — shared by the materialized and streaming
/// execution paths.
///
/// Only the effective probe list is attached — the first of each kind;
/// duplicates would be paid for (tick chains, occupancy scans) and then
/// dropped at extraction, since a record carries one output per kind.
///
/// The run-shape parameters (`seed`, `n_nodes`, `duration`, `n_messages`)
/// feed the TRACE/1.0 header when an [`ProbeSpec::EventLog`] probe is
/// attached; both execution paths already hold them.
///
/// # Panics
/// Panics if an event-log artifact cannot be created or written — recording
/// was explicitly requested, so a silently missing artifact would be worse
/// than a dead sweep.
fn observe(
    mut sim: Simulation,
    spec: &RunSpec,
    seed: u64,
    n_nodes: u32,
    duration: f64,
    n_messages: usize,
) -> RunOutput {
    let mut artifact = None;
    for probe in spec.effective_probes() {
        match probe {
            ProbeSpec::TimeSeries { dt } => sim.add_observer(Box::new(TimeSeriesProbe::new(dt))),
            ProbeSpec::LatencyHist => sim.add_observer(Box::new(LatencyHistogramProbe::new())),
            ProbeSpec::EventLog { .. } => {
                let path = probe
                    .artifact_path(seed)
                    .expect("eventlog probe has a path");
                let meta = TraceMeta {
                    cell_key: spec.cell_key(seed).encoded(),
                    seed,
                    horizon: duration,
                    n_nodes,
                    n_messages: n_messages as u64,
                    labels: vec![
                        ("series".to_string(), spec.series.clone()),
                        ("scenario".to_string(), spec.scenario.to_string()),
                        ("workload".to_string(), spec.workload.to_string()),
                        ("protocol".to_string(), spec.protocol.to_string()),
                    ],
                };
                let path_ref = std::path::Path::new(&path);
                crate::report::ensure_parent(path_ref)
                    .unwrap_or_else(|e| panic!("eventlog probe: {e}"));
                let writer = EventLogWriter::create(path_ref, &meta)
                    .unwrap_or_else(|e| panic!("eventlog probe: cannot create {path}: {e}"));
                sim.add_observer(Box::new(writer));
                artifact = Some(path);
            }
        }
    }
    let (stats, observers) = sim.run_observed();
    for obs in &observers {
        if let Some(w) = obs.as_any().downcast_ref::<EventLogWriter>() {
            // I/O errors cannot surface through the observer callbacks; the
            // writer latches the first one and this is where it gets loud.
            w.status().unwrap_or_else(|e| panic!("{e}"));
        }
    }
    let (timeseries, latency) = probe_outputs(&observers);
    RunOutput {
        stats,
        timeseries,
        latency,
        artifact,
    }
}

/// The first probe of each kind in `probes`, in order: a record carries at
/// most one output per kind ([`RunSpec::effective_probes`]).
fn first_of_each_kind(probes: &[ProbeSpec]) -> Vec<ProbeSpec> {
    let mut out: Vec<ProbeSpec> = Vec::new();
    for p in probes {
        if !out
            .iter()
            .any(|q| std::mem::discriminant(q) == std::mem::discriminant(p))
        {
            out.push(p.clone());
        }
    }
    out
}

/// The time series and latency histogram of the first
/// [`TimeSeriesProbe`] and [`LatencyHistogramProbe`] among `observers`.
fn probe_outputs(
    observers: &[Box<dyn SimObserver>],
) -> (Option<TimeSeries>, Option<LatencyHistogram>) {
    let mut timeseries = None;
    let mut latency = None;
    for obs in observers {
        if timeseries.is_none() {
            if let Some(p) = obs.as_any().downcast_ref::<TimeSeriesProbe>() {
                timeseries = Some(p.series().clone());
                continue;
            }
        }
        if latency.is_none() {
            if let Some(p) = obs.as_any().downcast_ref::<LatencyHistogramProbe>() {
                latency = Some(p.histogram().clone());
            }
        }
    }
    (timeseries, latency)
}

/// Executes every `(spec, seed)` combination and reduces each spec's runs
/// into a [`MetricPoint`]. Returns points in the order of `specs`.
pub fn run_matrix(specs: &[RunSpec], cfg: SweepConfig) -> Vec<MetricPoint> {
    run_matrix_with(&ScenarioCache::new(), specs, cfg)
}

/// [`run_matrix`] against a caller-supplied scenario cache, so binaries that
/// also need the raw scenarios (e.g. to compare community maps) build each
/// one exactly once.
pub fn run_matrix_with(
    cache: &ScenarioCache,
    specs: &[RunSpec],
    cfg: SweepConfig,
) -> Vec<MetricPoint> {
    let records = run_matrix_records(cache, specs, cfg);
    records
        .chunks(cfg.effective_seeds() as usize)
        .map(|runs| MetricPoint::from_snapshots(&runs.iter().map(|r| r.stats).collect::<Vec<_>>()))
        .collect()
}

/// The record-producing core of the matrix runner: executes every
/// `(spec, seed)` cell over the worker pool and returns one provenance-full
/// [`RunRecord`] per cell — including measured wall-clock — flat, in
/// deterministic `(spec, seed)` order (`specs.len() × seeds` entries).
///
/// The simulation results are bit-deterministic whatever the thread count;
/// only each record's `wall_s` varies between invocations (it measures the
/// host, not the network).
pub fn run_matrix_records(
    cache: &ScenarioCache,
    specs: &[RunSpec],
    cfg: SweepConfig,
) -> Vec<RunRecord> {
    run_matrix_records_stored(cache, specs, cfg, None)
}

/// [`run_matrix_records`] backed by an optional persistent result store:
/// the job list is first partitioned into hits (served from the store,
/// marked [`RunRecord::cached`]) and misses (scheduled over the worker
/// pool exactly as the cold path would, then published to the store on
/// completion). The returned vector is bitwise identical to a cold run's
/// on every field except `wall_s`/`cached`, in the same deterministic
/// (spec-major, seed-minor) order — hits and misses merge by job index,
/// never by completion order. Cells that are not [`RunSpec::storable`] are
/// computed and left out of the store in both directions.
pub fn run_matrix_records_stored(
    cache: &ScenarioCache,
    specs: &[RunSpec],
    cfg: SweepConfig,
    store: Option<&crate::store::CellStore>,
) -> Vec<RunRecord> {
    let jobs: Vec<(usize, u64)> = (0..specs.len())
        .flat_map(|i| (0..cfg.effective_seeds()).map(move |s| (i, u64::from(s) + 1)))
        .collect();
    let total = jobs.len();

    // Serve pass: cheap sequential file reads, before any worker spins up.
    let mut slots: Vec<Option<RunRecord>> = vec![None; total];
    if let Some(store) = store {
        for (j, &(spec_idx, seed)) in jobs.iter().enumerate() {
            if specs[spec_idx].storable() {
                let cell = specs[spec_idx].cell_key(seed).encoded();
                slots[j] = store.serve(&cell, seed);
            }
        }
    }
    let hits = slots.iter().filter(|s| s.is_some()).count();
    if store.is_some() && cfg.verbose {
        eprintln!(
            "  store: {hits} hit(s), {} miss(es) of {total} cells",
            total - hits
        );
    }

    // Miss pass: the cold scheduling, shrunk to the unserved job indices.
    let miss_jobs: Vec<usize> = (0..total).filter(|&j| slots[j].is_none()).collect();
    // Completions, not tickets: under interleaved workers the progress
    // counter must be monotone — `done/total` never appears to skip or
    // repeat. Hits count as already done so mixed runs still end at total.
    let done = AtomicUsize::new(hits);
    let computed = crate::fabric::run_indexed(miss_jobs.len(), cfg.effective_threads(), |m| {
        let (spec_idx, seed) = jobs[miss_jobs[m]];
        let spec = &specs[spec_idx];
        let t0 = std::time::Instant::now();
        let run = run_cell(cache, spec, seed)
            .unwrap_or_else(|e| panic!("cell `{}` seed {seed}: {e}", spec.series));
        let wall_s = t0.elapsed().as_secs_f64();
        let record =
            RunRecord::capture_stream(spec, run.n_nodes, run.duration, seed, &run.output, wall_s);
        let stats = &run.output.stats;
        if cfg.verbose {
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            // The protocol prints in its canonical grammar form,
            // so every progress line names a reproducible
            // `--protocol` argument.
            eprintln!(
                "  [{}/{}] {} [{}] {} seed={} dr={:.3} lat={:.1} gp={:.4}",
                d,
                total,
                spec.series,
                spec.protocol,
                spec.scenario,
                seed,
                stats.delivery_ratio(),
                stats.avg_latency(),
                stats.goodput()
            );
        }
        record
    });

    // Publish pass, then the deterministic merge by job index.
    for (m, record) in computed.into_iter().enumerate() {
        let j = miss_jobs[m];
        if let Some(store) = store {
            if specs[jobs[j].0].storable() {
                if let Err(e) = store.publish(&record) {
                    eprintln!("warning: store publish failed: {e}");
                }
            }
        }
        slots[j] = Some(record);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job slot filled by serve or compute"))
        .collect()
}

/// Turns a recorded TRACE/1.0 artifact plus a probe set into a normal
/// [`RunRecord`] — the report-side twin of [`run_cell`] that never
/// touches the engine. The reader validates the hash chain, the run's
/// [`SimStats`] are re-folded from the recorded stream and each requested
/// probe is replayed over it; because the probes are pure functions of the
/// stream (and `control_bytes` — the one counter that never travels the
/// stream — is restored from the artifact trailer), the record's stats and
/// probe sections are bitwise identical to the live run's on every field.
///
/// The record's provenance (series/scenario/workload/protocol) comes from
/// the artifact's header labels; its cell identity is rebuilt from the
/// recorded cell key with the *replayed* probe set substituted for the
/// recorded one, so a replay re-folding the live probes (minus the
/// recording probe itself) lands in the same report cell as the live run.
pub fn replay_artifact(path: &std::path::Path, probes: &[ProbeSpec]) -> Result<RunRecord, String> {
    let t0 = std::time::Instant::now();
    let reader = TraceReader::open(path)?;
    let meta = reader.meta();

    // The effective probe list, mirroring live attachment.
    let effective = first_of_each_kind(probes);
    let mut observers: Vec<Box<dyn SimObserver>> = Vec::new();
    for p in &effective {
        match p {
            ProbeSpec::TimeSeries { dt } => observers.push(Box::new(TimeSeriesProbe::new(*dt))),
            ProbeSpec::LatencyHist => observers.push(Box::new(LatencyHistogramProbe::new())),
            ProbeSpec::EventLog { .. } => {
                return Err(
                    "replay cannot record: the artifact already exists; drop the eventlog probe"
                        .into(),
                )
            }
        }
    }
    reader.replay(&mut observers);
    let stats = reader.replay_stats();
    let (timeseries, latency) = probe_outputs(&observers);

    let cell = cell_with_probes(&meta.cell_key, &effective);
    let group = cell.replacen(&format!("|seed={}|", meta.seed), "|", 1);
    let label = |k: &str| {
        meta.labels
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    Ok(RunRecord {
        series: label("series"),
        scenario: label("scenario"),
        workload: label("workload"),
        protocol: label("protocol"),
        seed: meta.seed,
        n_nodes: meta.n_nodes,
        duration: meta.horizon,
        cell,
        group,
        stats: stats.snapshot(),
        wall_s: t0.elapsed().as_secs_f64(),
        timeseries,
        latency,
        artifact: Some(path.display().to_string()),
        cached: false,
    })
}

/// Replaces the `+probe=…` components of an encoded cell key with the
/// components for `probes` (sorted, exactly as [`RunSpec::cell_key`]
/// appends them). Probe cache keys escape `+` and `|`, so scanning each
/// component to the next separator is exact.
fn cell_with_probes(recorded: &str, probes: &[ProbeSpec]) -> String {
    let mut base = String::with_capacity(recorded.len());
    let mut rest = recorded;
    while let Some(i) = rest.find("+probe=") {
        base.push_str(&rest[..i]);
        let after = &rest[i + "+probe=".len()..];
        let end = after.find(['+', '|']).unwrap_or(after.len());
        rest = &after[end..];
    }
    base.push_str(rest);
    let mut keys: Vec<String> = probes.iter().map(ProbeSpec::cache_key).collect();
    keys.sort_unstable();
    let insert: String = keys.iter().map(|k| format!("+probe={k}")).collect();
    // Probe components live inside the protocol field, which ends at
    // `|seed=` — insert there (headers always carry a seeded cell key).
    match base.find("|seed=") {
        Some(i) => format!("{}{}{}", &base[..i], insert, &base[i..]),
        None => base + &insert,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{ProtocolKind, ProtocolSpec};

    /// The matrix runner produces one averaged point per spec and is
    /// deterministic across repeats.
    #[test]
    fn matrix_runs_deterministically() {
        let specs = vec![
            RunSpec::new(
                "SprayAndWait",
                10,
                ProtocolSpec::paper(ProtocolKind::SprayAndWait).with_lambda(4),
            ),
            RunSpec::new("Epidemic", 10, ProtocolSpec::paper(ProtocolKind::Epidemic)),
        ];
        let cfg = SweepConfig {
            seeds: 2,
            threads: 2,
            verbose: false,
        };
        let a = run_matrix(&specs, cfg);
        let b = run_matrix(&specs, cfg);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.runs, 2);
            assert_eq!(x.delivery_ratio, y.delivery_ratio);
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.goodput, y.goodput);
        }
        // Epidemic floods, so it must relay at least as much as quota spray;
        // delivery can't be lower on identical traces.
        assert!(a[1].delivery_ratio >= a[0].delivery_ratio - 1e-9);
    }

    /// Zero threads is clamped, not a hang or panic.
    #[test]
    fn zero_threads_clamps_to_one() {
        let cfg = SweepConfig {
            seeds: 1,
            threads: 0,
            verbose: false,
        };
        assert_eq!(cfg.effective_threads(), 1);
        let specs = vec![RunSpec::new(
            "Direct",
            8,
            ProtocolSpec::paper(ProtocolKind::Direct),
        )];
        let points = run_matrix(&specs, cfg);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].runs, 1);
    }

    /// `seeds: 0` is clamped, not a silent all-zero result (regression: the
    /// old runner returned `MetricPoint { runs: 0, .. }` for every spec).
    #[test]
    fn zero_seeds_clamps_to_one() {
        let cfg = SweepConfig {
            seeds: 0,
            threads: 1,
            verbose: false,
        };
        assert_eq!(cfg.effective_seeds(), 1);
        let specs = vec![
            RunSpec::new("Direct", 8, ProtocolSpec::paper(ProtocolKind::Direct))
                .with_duration(500.0),
        ];
        let points = run_matrix(&specs, cfg);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].runs, 1, "seeds: 0 must still run one seed");
    }

    /// Duplicate probes of one kind collapse to the first: the cell key and
    /// the attached observers always agree, and the run's data matches what
    /// the key advertises.
    #[test]
    fn duplicate_probes_collapse_to_first_of_each_kind() {
        use crate::probes::ProbeSpec;
        let base = RunSpec::new("Direct", 8, ProtocolSpec::paper(ProtocolKind::Direct))
            .with_duration(400.0);
        let once = base
            .clone()
            .with_probe(ProbeSpec::TimeSeries { dt: 50.0 })
            .with_probe(ProbeSpec::LatencyHist);
        let duplicated = base
            .with_probe(ProbeSpec::TimeSeries { dt: 50.0 })
            .with_probe(ProbeSpec::LatencyHist)
            .with_probe(ProbeSpec::TimeSeries { dt: 999.0 })
            .with_probe(ProbeSpec::LatencyHist);
        assert_eq!(duplicated.effective_probes(), once.effective_probes());
        assert_eq!(duplicated.cell_key(1), once.cell_key(1));
        // Attachment order does not split a probe set into two cells.
        let reordered = RunSpec::new("Direct", 8, ProtocolSpec::paper(ProtocolKind::Direct))
            .with_duration(400.0)
            .with_probe(ProbeSpec::LatencyHist)
            .with_probe(ProbeSpec::TimeSeries { dt: 50.0 });
        assert_eq!(reordered.cell_key(1), once.cell_key(1));

        let cache = ScenarioCache::new();
        let a = run_cell(&cache, &once, 1).expect("valid cell").output;
        let b = run_cell(&cache, &duplicated, 1).expect("valid cell").output;
        assert_eq!(a.stats.snapshot(), b.stats.snapshot());
        assert_eq!(a.timeseries, b.timeseries, "first-of-kind cadence wins");
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.timeseries.unwrap().dt, 50.0);
    }

    /// One predicate chooses the contact supply: generated scenarios stream
    /// from 2 000 declared nodes; trace replay and CR over detected
    /// communities always materialize.
    #[test]
    fn streams_from_2000_generated_nodes() {
        let cell = |scenario| {
            RunSpec::on(
                "Epidemic",
                scenario,
                ProtocolSpec::paper(ProtocolKind::Epidemic),
            )
        };
        assert!(!cell(ScenarioSpec::paper(1999)).streams());
        assert!(cell(ScenarioSpec::paper(2000)).streams());
        assert!(cell(ScenarioSpec::city(2000, 4)).streams());
        assert!(!cell(ScenarioSpec::trace_path("x.trace")).streams());
        let cr = RunSpec::new("CR", 2000, ProtocolSpec::paper(ProtocolKind::Cr));
        assert!(cr.streams(), "ground-truth communities stream");
        assert!(!cr.with_communities(CommunitySource::Detected).streams());
        // Flooding never resolves communities, so `Detected` does not pin it.
        let epidemic = cell(ScenarioSpec::paper(2000)).with_communities(CommunitySource::Detected);
        assert!(epidemic.streams());
    }

    /// A replayed cell lands exactly where a live run with the same probe
    /// set (minus the recording probe) would: the recorded cell key's probe
    /// components are substituted, everything else is preserved.
    #[test]
    fn replayed_cell_substitutes_probe_components() {
        let base =
            || RunSpec::new("EER", 8, ProtocolSpec::paper(ProtocolKind::Eer)).with_duration(400.0);
        let recorded = base()
            .with_probe(ProbeSpec::EventLog {
                path: "r/a.trace".into(),
            })
            .with_probe(ProbeSpec::TimeSeries { dt: 50.0 })
            .with_probe(ProbeSpec::LatencyHist)
            .cell_key(3)
            .encoded();
        let replayed = cell_with_probes(
            &recorded,
            &[ProbeSpec::TimeSeries { dt: 50.0 }, ProbeSpec::LatencyHist],
        );
        let live_without_recorder = base()
            .with_probe(ProbeSpec::TimeSeries { dt: 50.0 })
            .with_probe(ProbeSpec::LatencyHist)
            .cell_key(3)
            .encoded();
        assert_eq!(replayed, live_without_recorder);
        // Substituting the empty set recovers the unprobed cell.
        assert_eq!(
            cell_with_probes(&recorded, &[]),
            base().cell_key(3).encoded()
        );
    }

    /// A duration override flows through the cache into the built scenario.
    #[test]
    fn duration_override_reaches_scenario() {
        let cache = ScenarioCache::new();
        let spec = RunSpec::new("Direct", 8, ProtocolSpec::paper(ProtocolKind::Direct))
            .with_duration(500.0);
        let run = run_cell(&cache, &spec, 1).expect("valid cell");
        assert_eq!(run.duration, 500.0);
        let ps = cache.get_with_duration(8, 1, Some(500.0));
        assert_eq!(ps.scenario.trace.duration, 500.0);
        assert_eq!(
            cache.len(),
            1,
            "run_cell and get_with_duration share the entry"
        );
    }
}
