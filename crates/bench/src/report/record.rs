//! Run records, multi-seed aggregation and cell summaries.
//!
//! A [`RunRecord`] is the provenance-complete result of one executed cell:
//! the canonical `(scenario, workload, protocol, seed, duration)` identity
//! (the same injective encodings the scenario cache keys on, via
//! [`RunSpec::cell_key`]), the run's [`StatsSnapshot`] and its wall-clock
//! cost. A [`ReportSpec`] is an ordered collection of records under a title;
//! [`ReportSpec::cells`] groups them across seeds into [`CellSummary`]s
//! carrying per-metric statistics ([`MetricSummary`]: mean, sample stddev,
//! min, max and a 95 % normal-approximation confidence interval).
//!
//! ```
//! use dtn_bench::report::{ReportSpec, RunRecord};
//! use dtn_bench::{run_cell, ProtocolSpec, RunSpec, ScenarioCache};
//!
//! let cache = ScenarioCache::new();
//! let spec = RunSpec::new("EER", 8, ProtocolSpec::parse("eer").unwrap())
//!     .with_duration(300.0);
//! let mut report = ReportSpec::new("doc example");
//! for seed in 1..=2 {
//!     let run = run_cell(&cache, &spec, seed).unwrap();
//!     report.push(RunRecord::capture_stream(
//!         &spec, run.n_nodes, run.duration, seed, &run.output, 0.0,
//!     ));
//! }
//! let cells = report.cells();
//! assert_eq!(cells.len(), 1, "two seeds of one spec fold into one cell");
//! assert_eq!(cells[0].seeds, vec![1, 2]);
//! assert!(cells[0].metric("delivery_ratio").unwrap().mean >= 0.0);
//! ```

use super::metrics::{metric, MetricDef, METRICS};
use crate::runner::{RunOutput, RunSpec};
use crate::scenario::BuiltScenario;
use dtn_sim::{LatencyHistogram, StatsSnapshot, TimeSeries};

/// Format version stamped into every emitted document; bump when the field
/// set changes shape. Version 2 added the optional per-record time-series
/// and latency-histogram sections (probe outputs); version 3 the optional
/// `artifact` path of a recorded TRACE/1.0 event log.
pub const SCHEMA_VERSION: u32 = 3;

/// Schema name stamped into report documents.
pub const REPORT_SCHEMA: &str = "cen-dtn.report";

/// Schema name stamped into bench-trajectory documents
/// (`BENCH_shootout.json`).
pub const BENCH_SCHEMA: &str = "cen-dtn.bench";

/// One executed `(spec, seed)` cell with full provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Row label the producing binary assigned (series name).
    pub series: String,
    /// Canonical scenario spec (`ScenarioSpec`'s `Display`), reproducible as
    /// a `--scenario` argument.
    pub scenario: String,
    /// Canonical workload spec (`WorkloadSpec`'s `Display`).
    pub workload: String,
    /// Canonical protocol spec (`ProtocolSpec`'s `Display`), reproducible as
    /// a `--protocol` argument.
    pub protocol: String,
    /// Mobility/traffic seed of this run.
    pub seed: u64,
    /// Resolved node count (for trace replay, the recording's).
    pub n_nodes: u32,
    /// Resolved horizon in seconds.
    pub duration: f64,
    /// Injective full-cell identity from [`RunSpec::cell_key`] (includes the
    /// seed).
    pub cell: String,
    /// [`RunRecord::cell`] with the seed elided — the identity multi-seed
    /// aggregation groups by.
    pub group: String,
    /// The run's scalar counters.
    pub stats: StatsSnapshot,
    /// Host wall-clock seconds the run took.
    pub wall_s: f64,
    /// Sampled delivery/overhead/occupancy curve, when a
    /// [`ProbeSpec::TimeSeries`](crate::ProbeSpec::TimeSeries) rode along.
    pub timeseries: Option<TimeSeries>,
    /// Latency histogram with exact percentiles, when a
    /// [`ProbeSpec::LatencyHist`](crate::ProbeSpec::LatencyHist) rode along.
    pub latency: Option<LatencyHistogram>,
    /// Path of the TRACE/1.0 artifact this run recorded (or was replayed
    /// from), when a [`ProbeSpec::EventLog`](crate::ProbeSpec::EventLog)
    /// rode along. Non-semantic provenance, like [`RunRecord::wall_s`]:
    /// excluded from `dtndiff` comparison.
    pub artifact: Option<String>,
    /// `true` when this record was served from a persistent result store
    /// ([`CellStore`](crate::CellStore)) instead of being computed; its
    /// `wall_s` is then the serve time, not a simulation time. Non-semantic
    /// provenance, excluded from `dtndiff` comparison.
    pub cached: bool,
}

impl RunRecord {
    /// Captures the record for one cell executed on a materialized
    /// scenario: [`RunRecord::capture_stream`] with the resolved shape taken
    /// from `ps`.
    pub fn capture_output(
        spec: &RunSpec,
        ps: &BuiltScenario,
        seed: u64,
        out: &RunOutput,
        wall_s: f64,
    ) -> Self {
        Self::capture_stream(
            spec,
            ps.n_nodes,
            ps.scenario.trace.duration,
            seed,
            out,
            wall_s,
        )
    }

    /// Captures the record for one executed cell: `spec` supplies the
    /// canonical identity, `n_nodes`/`duration` the resolved scenario shape
    /// (what a [`CellRun`](crate::CellRun) carries, since a streamed cell has
    /// no [`BuiltScenario`]), `out` the result with any probe sections, and
    /// `wall_s` the measured execution time. The cell identity does not
    /// depend on the contact supply — a streamed run of a generated scenario
    /// is bit-identical to its materialized twin, so the two share a key.
    pub fn capture_stream(
        spec: &RunSpec,
        n_nodes: u32,
        duration: f64,
        seed: u64,
        out: &RunOutput,
        wall_s: f64,
    ) -> Self {
        let key = spec.cell_key(seed);
        RunRecord {
            series: spec.series.clone(),
            scenario: spec.scenario.to_string(),
            workload: spec.workload.to_string(),
            protocol: spec.protocol.to_string(),
            seed,
            n_nodes,
            duration,
            cell: key.encoded(),
            group: key.group_encoded(),
            stats: out.stats.snapshot(),
            wall_s,
            timeseries: out.timeseries.clone(),
            latency: out.latency.clone(),
            artifact: out.artifact.clone(),
            cached: false,
        }
    }

    /// The value of the registered metric `key` for this run, if known.
    pub fn metric(&self, key: &str) -> Option<f64> {
        metric(key).map(|m| (m.extract)(self))
    }
}

/// Distribution statistics of one metric over a cell's seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricSummary {
    /// Arithmetic mean across runs.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator); `0` for a single run.
    pub stddev: f64,
    /// Smallest per-run value.
    pub min: f64,
    /// Largest per-run value.
    pub max: f64,
    /// Half-width of the 95 % confidence interval of the mean
    /// (`1.96 · stddev / √n`, normal approximation); `0` for a single run —
    /// and exactly `0` whenever every run agrees (stddev `0`).
    pub ci95: f64,
    /// Number of runs summarized.
    pub n: u32,
}

impl MetricSummary {
    /// Summarizes a non-empty slice of per-run values.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize zero runs");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let stddev = if values.len() < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        MetricSummary {
            mean,
            stddev,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ci95: 1.96 * stddev / n.sqrt(),
            n: values.len() as u32,
        }
    }
}

/// One time point of a [`CellTimeSeries`]: cross-seed statistics of the
/// sampled curve metrics at time `t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TsPoint {
    /// Sample time in seconds.
    pub t: f64,
    /// Delivery ratio across seeds at `t`.
    pub delivery_ratio: MetricSummary,
    /// Overhead ratio across seeds at `t`.
    pub overhead_ratio: MetricSummary,
    /// Global buffer occupancy across seeds at `t`, in megabytes.
    pub buffered_mb: MetricSummary,
}

/// Cross-seed aggregate of a cell's sampled time series: the delivery /
/// overhead / occupancy curves, one [`MetricSummary`] per sample time.
/// Present only when *every* record of the cell carries a time series with
/// the same cadence; curves are truncated to the shortest seed's length.
#[derive(Clone, Debug, PartialEq)]
pub struct CellTimeSeries {
    /// Shared sampling cadence in seconds.
    pub dt: f64,
    /// Points in time order.
    pub points: Vec<TsPoint>,
}

impl CellTimeSeries {
    /// Aggregates the records' per-seed curves, or `None` when any record
    /// lacks one or cadences disagree.
    fn aggregate(runs: &[&RunRecord]) -> Option<Self> {
        let first = runs[0].timeseries.as_ref()?;
        if !runs
            .iter()
            .all(|r| r.timeseries.as_ref().is_some_and(|t| t.dt == first.dt))
        {
            return None;
        }
        let len = runs
            .iter()
            .map(|r| r.timeseries.as_ref().unwrap().samples.len())
            .min()
            .unwrap_or(0);
        let points = (0..len)
            .map(|i| {
                let at = |f: &dyn Fn(&dtn_sim::TsSample) -> f64| -> MetricSummary {
                    let values: Vec<f64> = runs
                        .iter()
                        .map(|r| f(&r.timeseries.as_ref().unwrap().samples[i]))
                        .collect();
                    MetricSummary::of(&values)
                };
                TsPoint {
                    t: first.samples[i].t,
                    delivery_ratio: at(&|s| s.delivery_ratio()),
                    overhead_ratio: at(&|s| s.overhead_ratio()),
                    buffered_mb: at(&|s| s.buffered_bytes as f64 / (1024.0 * 1024.0)),
                }
            })
            .collect();
        Some(CellTimeSeries {
            dt: first.dt,
            points,
        })
    }
}

/// Cross-seed aggregate of one cell family, summarized per registered
/// metric: the records sharing a [`RunRecord::group`]
/// ([`ReportSpec::cells`]) or one spec's runs ([`ReportSpec::spec_cells`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CellSummary {
    /// The shared group identity ([`RunRecord::group`]).
    pub group: String,
    /// Series label (from the first record of the group).
    pub series: String,
    /// Canonical scenario spec.
    pub scenario: String,
    /// Canonical workload spec.
    pub workload: String,
    /// Canonical protocol spec.
    pub protocol: String,
    /// Resolved node count.
    pub n_nodes: u32,
    /// Resolved horizon in seconds.
    pub duration: f64,
    /// Seeds aggregated, ascending.
    pub seeds: Vec<u64>,
    /// Per-metric statistics, in registry order — one entry per *measured*
    /// [`METRICS`] element. Probe-dependent metrics (latency percentiles,
    /// peak occupancy) are omitted when the cell's records lack the probe:
    /// an unmeasured value is absent, never a fabricated zero.
    pub metrics: Vec<(&'static str, MetricSummary)>,
    /// Cross-seed aggregate of the sampled time series, when every record
    /// of the cell carries one at a shared cadence.
    pub timeseries: Option<CellTimeSeries>,
}

impl CellSummary {
    /// The summary of the registered metric `key`, if present.
    pub fn metric(&self, key: &str) -> Option<&MetricSummary> {
        self.metrics.iter().find(|(k, _)| *k == key).map(|(_, s)| s)
    }

    /// Summarizes one group of runs: seed-sorted, then every registered
    /// metric the runs all measure. The one reduction behind both
    /// [`ReportSpec::cells`] and [`ReportSpec::spec_cells`].
    fn of_runs(mut runs: Vec<&RunRecord>) -> Self {
        runs.sort_by_key(|r| r.seed);
        let first = runs[0];
        let metrics = METRICS
            .iter()
            .filter(|m| runs.iter().all(|r| m.is_available(r)))
            .map(|m: &MetricDef| {
                let values: Vec<f64> = runs.iter().map(|r| (m.extract)(r)).collect();
                (m.key, MetricSummary::of(&values))
            })
            .collect();
        CellSummary {
            group: first.group.clone(),
            series: first.series.clone(),
            scenario: first.scenario.clone(),
            workload: first.workload.clone(),
            protocol: first.protocol.clone(),
            n_nodes: first.n_nodes,
            duration: first.duration,
            seeds: runs.iter().map(|r| r.seed).collect(),
            metrics,
            timeseries: CellTimeSeries::aggregate(&runs),
        }
    }
}

/// A titled, ordered collection of run records — the unit every emitter
/// (JSON, CSV, Markdown, console tables) consumes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportSpec {
    /// Human title (figure caption, ablation name, ...).
    pub title: String,
    /// Records in execution-plan order.
    pub records: Vec<RunRecord>,
}

impl ReportSpec {
    /// An empty report under `title`.
    pub fn new(title: impl Into<String>) -> Self {
        ReportSpec {
            title: title.into(),
            records: Vec::new(),
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: RunRecord) {
        self.records.push(record);
    }

    /// Groups the records by [`RunRecord::group`] (first-appearance order)
    /// and summarizes every registered metric per group. Each distinct
    /// [`RunRecord::cell`] counts once: equal cell keys (which include the
    /// seed) are bitwise-equal runs, as when a trace scenario, which ignores
    /// the node count, is swept over several `--nodes` values. Records of
    /// one group are seed-sorted before summarizing, so the output is
    /// independent of insertion order. One indexed pass over the records —
    /// linear in `records × metrics`, whatever the group count.
    pub fn cells(&self) -> Vec<CellSummary> {
        let mut seen = std::collections::HashSet::new();
        let mut index: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let mut groups: Vec<Vec<&RunRecord>> = Vec::new();
        for r in self.records.iter().filter(|r| seen.insert(r.cell.as_str())) {
            let i = *index.entry(r.group.as_str()).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[i].push(r);
        }
        groups.into_iter().map(CellSummary::of_runs).collect()
    }

    /// The execution-plan view: one [`CellSummary`] per consecutive
    /// `seeds_per_spec` records — i.e. one per `RunSpec` of a matrix, in
    /// spec order. Positional consumers (the figure panels, which index by
    /// `spec × node count`) must use this rather than
    /// [`ReportSpec::cells`]: cells merge records sharing a group identity,
    /// and distinct specs *can* share one — trace replay ignores the node
    /// count, so every sweep point of a trace family is the same cell.
    ///
    /// # Panics
    /// Panics if `seeds_per_spec` is zero or does not divide the record
    /// count (the records did not come from a
    /// `seeds_per_spec`-seeded matrix).
    pub fn spec_cells(&self, seeds_per_spec: usize) -> Vec<CellSummary> {
        assert!(
            seeds_per_spec > 0 && self.records.len().is_multiple_of(seeds_per_spec),
            "{} records cannot be {} runs per spec",
            self.records.len(),
            seeds_per_spec
        );
        self.records
            .chunks(seeds_per_spec)
            .map(|runs| CellSummary::of_runs(runs.iter().collect()))
            .collect()
    }

    /// Total wall-clock seconds across all records.
    ///
    /// For mixed hit/miss runs this mixes simulation time (computed
    /// records) with file-read time (records served from a result store);
    /// [`ReportSpec::computed_wall_s`] and [`ReportSpec::served_from_store`]
    /// split the two so warm and cold trajectories stay comparable.
    pub fn wall_s_total(&self) -> f64 {
        self.records.iter().map(|r| r.wall_s).sum()
    }

    /// Wall-clock seconds spent actually computing: the `wall_s` sum over
    /// records *not* served from a result store. Informational, like
    /// [`ReportSpec::wall_s_total`].
    pub fn computed_wall_s(&self) -> f64 {
        // fold, not sum: an all-hits report must print 0.0, and the empty
        // f64 Sum identity is -0.0.
        self.records
            .iter()
            .filter(|r| !r.cached)
            .fold(0.0, |acc, r| acc + r.wall_s)
    }

    /// How many records were served from a persistent result store instead
    /// of being computed ([`RunRecord::cached`]).
    pub fn served_from_store(&self) -> usize {
        self.records.iter().filter(|r| r.cached).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn synthetic_record(series: &str, seed: u64, delivered: u64) -> RunRecord {
        RunRecord {
            series: series.into(),
            scenario: "paper:40".into(),
            workload: "paper".into(),
            protocol: "eer".into(),
            seed,
            n_nodes: 40,
            duration: 1000.0,
            cell: format!("scenario=paper|workload=paper|protocol=eer+{series}|seed={seed}|dur=0"),
            group: format!("scenario=paper|workload=paper|protocol=eer+{series}|dur=0"),
            stats: StatsSnapshot {
                created: 100,
                delivered,
                relayed: delivered * 3,
                latency_sum: delivered as f64 * 120.0,
                hops_sum: delivered * 2,
                control_bytes: 1024 * 1024,
                ..Default::default()
            },
            wall_s: 0.25,
            timeseries: None,
            latency: None,
            artifact: None,
            cached: false,
        }
    }

    #[test]
    fn summary_statistics_are_correct() {
        let s = MetricSummary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.n, 3);
        assert!(
            (s.stddev - 1.0).abs() < 1e-12,
            "sample stddev of 1,2,3 is 1"
        );
        assert!((s.ci95 - 1.96 / 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_run_has_zero_spread() {
        let s = MetricSummary::of(&[0.7]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.min, 0.7);
        assert_eq!(s.max, 0.7);
    }

    #[test]
    fn cells_group_by_identity_not_order() {
        let mut report = ReportSpec::new("t");
        // Interleave two series and push seeds out of order.
        report.push(synthetic_record("a", 2, 60));
        report.push(synthetic_record("b", 1, 40));
        report.push(synthetic_record("a", 1, 50));
        let cells = report.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].series, "a", "first-appearance order");
        assert_eq!(cells[0].seeds, vec![1, 2], "seed-sorted inside the cell");
        // Unprobed records: every always-measured metric, nothing more.
        let measured = METRICS.iter().filter(|m| m.available.is_none()).count();
        assert_eq!(cells[0].metrics.len(), measured);
        let dr = cells[0].metric("delivery_ratio").unwrap();
        assert!((dr.mean - 0.55).abs() < 1e-12);
        assert_eq!(dr.min, 0.5);
        assert_eq!(dr.max, 0.6);
    }

    /// Regression (trace replay in the figure binaries): when distinct
    /// sweep specs share a group identity — a trace scenario ignores the
    /// node count, so every sweep point is the same cell — `cells()` merges
    /// them, but the positional `spec_cells()` view must still return one
    /// summary per spec so `spec × node count` indexing cannot go out of
    /// bounds.
    #[test]
    fn points_stay_positional_when_cells_merge() {
        let mut report = ReportSpec::new("t");
        // Same series and group for both "node counts" of one trace spec.
        report.push(synthetic_record("a", 1, 50));
        report.push(synthetic_record("a", 1, 60));
        assert_eq!(report.cells().len(), 1, "identical cells merge");
        let specs = report.spec_cells(1);
        assert_eq!(specs.len(), 2, "but the plan view is one cell per spec");
        let dr = |c: &CellSummary| c.metric("delivery_ratio").unwrap().mean;
        assert!((dr(&specs[0]) - 0.5).abs() < 1e-12);
        assert!((dr(&specs[1]) - 0.6).abs() < 1e-12);
    }

    /// A trace sweep runs the identical cell once per `--nodes` value;
    /// `cells()` counts each distinct cell key once, so two seeds swept over
    /// two node counts summarize as two runs, not four.
    #[test]
    fn cells_count_each_run_once() {
        let mut report = ReportSpec::new("t");
        for _node_count in 0..2 {
            for (seed, delivered) in [(1, 50), (2, 70)] {
                report.push(synthetic_record("a", seed, delivered));
            }
        }
        let cells = report.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seeds, vec![1, 2]);
        let dr = cells[0].metric("delivery_ratio").unwrap();
        assert_eq!(dr.n, 2);
        assert!((dr.mean - 0.6).abs() < 1e-12);
        // Over 0.5 and 0.7: counted twice each, the spread would read
        // sqrt(0.04 / 3) and the CI 1.96 · that / 2.
        assert!((dr.stddev - 0.02f64.sqrt()).abs() < 1e-12);
        assert!((dr.ci95 - 0.196).abs() < 1e-12);
    }

    /// Cells aggregate time series only when every seed carries one at a
    /// shared cadence; the aggregate truncates to the shortest curve.
    #[test]
    fn cell_timeseries_requires_matching_cadences() {
        use dtn_sim::{TimeSeries, TsSample};
        let ts = |dt: f64, n: u64, delivered: u64| TimeSeries {
            dt,
            samples: (0..n)
                .map(|k| TsSample {
                    t: k as f64 * dt,
                    created: 10,
                    delivered: delivered * k / n.max(1),
                    ..Default::default()
                })
                .collect(),
        };
        let mut a = synthetic_record("a", 1, 50);
        a.timeseries = Some(ts(60.0, 5, 4));
        let mut b = synthetic_record("a", 2, 60);
        b.timeseries = Some(ts(60.0, 3, 6));

        let mut report = ReportSpec::new("t");
        report.push(a.clone());
        report.push(b.clone());
        let cell_ts = report.cells()[0].timeseries.clone().expect("aggregated");
        assert_eq!(cell_ts.dt, 60.0);
        assert_eq!(cell_ts.points.len(), 3, "truncated to the shortest curve");
        assert_eq!(cell_ts.points[0].delivery_ratio.n, 2);

        // A cadence mismatch (or a missing series) disables the aggregate.
        let mut c = b.clone();
        c.seed = 3;
        c.timeseries = Some(ts(30.0, 3, 6));
        let mut mixed = ReportSpec::new("t");
        mixed.push(a.clone());
        mixed.push(c);
        assert!(mixed.cells()[0].timeseries.is_none());

        let mut d = b;
        d.seed = 4;
        d.timeseries = None;
        let mut partial = ReportSpec::new("t");
        partial.push(a);
        partial.push(d);
        assert!(partial.cells()[0].timeseries.is_none());
    }
}
