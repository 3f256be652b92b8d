//! First-class experiment reports.
//!
//! Everything a binary prints or writes flows through one audited pipeline:
//!
//! ```text
//! RunSpec ──run──▶ SimStats ──capture──▶ RunRecord ──ReportSpec::cells──▶ CellSummary
//!                                            │                                │
//!                                            ▼                                ▼
//!                                      JSON records            JSON/CSV/Markdown emitters,
//!                                                              console tables, BENCH_*.json
//! ```
//!
//! * [`record`] — [`RunRecord`] (full `(scenario, workload, protocol, seed,
//!   duration)` provenance + stats + wall-clock) and [`ReportSpec`], which
//!   aggregates records across seeds into [`CellSummary`]s
//!   (mean/stddev/min/max/95 % CI per metric).
//! * [`metrics`] — the registry enumerating every metric's key, unit and
//!   definition; emitters and the README glossary both derive from it.
//! * [`emit`] — schema-versioned JSON (with a parser: `parse ∘ emit` is the
//!   identity on records, probe sections included), long-format CSV,
//!   paper-style Markdown and the `BENCH_*.json` trajectory format,
//!   selected via repeatable `--out` flags ([`OutputSpec`]).
//! * [`json`] — the offline JSON document model the emitters build on.
//!
//! This module additionally keeps the legacy figure-table helpers
//! ([`Series`], [`print_series_table`], [`write_csv`]) and the shared CLI
//! argument parser ([`CommonArgs`]).
//!
//! ```
//! use dtn_bench::report::{ReportSpec, RunRecord};
//! use dtn_bench::{run_cell, ProtocolSpec, RunSpec, ScenarioCache};
//!
//! // Spec parsing → run → report: the whole pipeline in five lines.
//! let spec = RunSpec::new("EER", 8, ProtocolSpec::parse("eer:lambda=4").unwrap())
//!     .with_duration(300.0);
//! let run = run_cell(&ScenarioCache::new(), &spec, 1).unwrap();
//! let mut report = ReportSpec::new("quick report");
//! report.push(RunRecord::capture_stream(&spec, run.n_nodes, run.duration, 1, &run.output, 0.0));
//!
//! // Emit → parse is the identity on the records.
//! let text = report.to_json_string();
//! assert_eq!(ReportSpec::from_json_str(&text).unwrap(), report);
//! assert!(report.to_markdown().contains("EER"));
//! ```

pub mod diff;
pub mod emit;
pub mod json;
pub mod metrics;
pub mod record;

pub use diff::{diff_reports, diff_traces, DiffOutcome, Drift, DriftClass};
pub use emit::{
    ensure_parent, validate_and_decode, validate_document, write_text, OutputFormat, OutputSpec,
};
pub use metrics::{glossary_markdown, MetricDef, HEADLINE, METRICS};
pub use record::{CellSummary, MetricSummary, ReportSpec, RunRecord, SCHEMA_VERSION};

use crate::probes::ProbeSpec;
use dtn_mobility::{ScenarioSpec, TraceSource, WorkloadSpec};
use dtn_sim::MetricPoint;
use std::fmt::Write as _;
use std::path::Path;

/// One plotted series: a label plus a point per x value.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, point)` pairs, in x order.
    pub points: Vec<(u32, MetricPoint)>,
}

/// Renders the three panels of a paper figure (delivery ratio, latency,
/// goodput) as aligned text tables, one row per series.
pub fn print_series_table(title: &str, xs: &[u32], series: &[Series]) -> String {
    let mut out = String::new();
    for (panel, extract) in [
        ("delivery ratio", 0usize),
        ("latency (s)", 1),
        ("goodput", 2),
    ] {
        let _ = writeln!(out, "\n{title} — {panel}");
        let _ = write!(out, "{:<16}", "N");
        for x in xs {
            let _ = write!(out, "{x:>10}");
        }
        let _ = writeln!(out);
        for s in series {
            let _ = write!(out, "{:<16}", s.label);
            for (_, p) in &s.points {
                let v = match extract {
                    0 => p.delivery_ratio,
                    1 => p.latency,
                    _ => p.goodput,
                };
                if extract == 1 {
                    let _ = write!(out, "{v:>10.1}");
                } else {
                    let _ = write!(out, "{v:>10.4}");
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Writes the series as CSV:
/// `series,n_nodes,delivery_ratio,latency,goodput,runs`.
///
/// Parent directories are created as needed; failures — including a parent
/// that exists but is not a directory, and a bare filename whose empty
/// `parent()` used to make the old implementation error spuriously — come
/// back as an [`std::io::Error`] naming the offending path (see
/// [`write_text`]).
pub fn write_csv(path: &Path, series: &[Series]) -> std::io::Result<()> {
    let mut out = String::from("series,n_nodes,delivery_ratio,latency,goodput,runs\n");
    for s in series {
        for (x, p) in &s.points {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.3},{:.6},{}",
                s.label, x, p.delivery_ratio, p.latency, p.goodput, p.runs
            );
        }
    }
    write_text(path, &out)
}

/// Parses common CLI flags shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Seeds per point.
    pub seeds: u32,
    /// Node counts to sweep.
    pub node_counts: Vec<u32>,
    /// Scenario family argument (`--scenario`), resolved per node count via
    /// [`CommonArgs::scenario_for`].
    pub scenario: String,
    /// Message workload (`--workload`).
    pub workload: WorkloadSpec,
    /// Horizon override in seconds (`--duration`); `None` = each scenario's
    /// default. Rejected for trace replay (a recording runs at its native
    /// horizon).
    pub duration: Option<f64>,
    /// Report outputs (`--out FORMAT:PATH`, repeatable). When empty, each
    /// binary falls back to its default output files.
    pub outs: Vec<OutputSpec>,
    /// Probes attached to every run (`--probe SPEC`, repeatable; see
    /// [`crate::probes`]). Binaries with a curve mode (fig2) add their own
    /// default when this is empty.
    pub probes: Vec<ProbeSpec>,
    /// Print the paper's settings table and exit.
    pub print_settings: bool,
    /// Sweep worker threads (`--threads`); `None` = the
    /// [`SweepConfig`](crate::SweepConfig) default (available parallelism).
    pub threads: Option<usize>,
    /// Result-store root override (`--store DIR`); `None` = the default
    /// root ([`crate::DEFAULT_STORE_ROOT`]) unless [`CommonArgs::no_store`].
    pub store: Option<String>,
    /// Disable the persistent result store entirely (`--no-store`): every
    /// cell computes cold and nothing is published.
    pub no_store: bool,
}

impl CommonArgs {
    /// The flag reference [`CommonArgs::parse`] accepts, printed for
    /// `--help`.
    pub const USAGE: &'static str = "usage: [--full|--quick] [--seeds K] \
                                     [--nodes a,b,c] [--scenario paper|rwp|trace:<path>] \
                                     [--workload paper|hotspot|bursty] [--duration SECS] \
                                     [--out json:PATH|csv:PATH|md:PATH ...] \
                                     [--probe timeseries[:dt=SECS]|latency ...] \
                                     [--threads N] \
                                     [--store DIR|--no-store] \
                                     [--print-settings]";

    /// Parses `--full`, `--seeds K`, `--nodes a,b,c`, `--quick`,
    /// `--scenario FAMILY`, `--workload KIND`, `--duration SECS`,
    /// `--out FORMAT:PATH` (repeatable), `--probe SPEC` (repeatable),
    /// `--print-settings` from `args`. `Ok(None)` means `--help` (or `-h`)
    /// was requested: the caller prints its usage and exits successfully.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Option<Self>, String> {
        let mut out = CommonArgs {
            seeds: 3,
            node_counts: vec![40, 80, 120, 160, 200, 240],
            scenario: "paper".into(),
            workload: WorkloadSpec::PaperUniform,
            duration: None,
            outs: Vec::new(),
            probes: Vec::new(),
            print_settings: false,
            threads: None,
            store: None,
            no_store: false,
        };
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => out.seeds = 10,
                "--quick" => {
                    out.seeds = 1;
                    out.node_counts = vec![40, 120, 200];
                }
                "--seeds" => {
                    let v = it.next().ok_or("--seeds needs a value")?;
                    out.seeds = Self::parse_number("--seeds", &v)?;
                }
                "--nodes" => {
                    let v = it.next().ok_or("--nodes needs a value")?;
                    out.node_counts = Self::parse_nodes(&v)?;
                }
                "--scenario" => {
                    let v = it.next().ok_or("--scenario needs a value")?;
                    // Validate now — including the trace file's existence —
                    // so typos fail before a sweep starts, not in a worker
                    // thread mid-matrix.
                    if let ScenarioSpec::TraceReplay {
                        source: TraceSource::Path(p),
                    } = ScenarioSpec::parse(&v, 2)?
                    {
                        std::fs::metadata(&p).map_err(|e| format!("cannot read {p}: {e}"))?;
                    }
                    out.scenario = v;
                }
                "--workload" => {
                    let v = it.next().ok_or("--workload needs a value")?;
                    out.workload = WorkloadSpec::parse(&v)?;
                }
                "--duration" => {
                    let v = it.next().ok_or("--duration needs a value")?;
                    out.duration = Some(Self::parse_duration(&v)?);
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs FORMAT:PATH")?;
                    out.outs.push(OutputSpec::parse(&v)?);
                }
                "--probe" => {
                    let v = it.next().ok_or("--probe needs a spec")?;
                    out.probes.push(ProbeSpec::parse(&v)?);
                }
                "--print-settings" => out.print_settings = true,
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    out.threads = Some(Self::parse_number("--threads", &v)?);
                }
                "--store" => {
                    let v = it.next().ok_or("--store needs a directory")?;
                    out.store = Some(v);
                }
                "--no-store" => out.no_store = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if out.seeds == 0 || out.node_counts.is_empty() {
            return Err("need at least one seed and one node count".into());
        }
        if out.duration.is_some()
            && ScenarioSpec::parse(&out.scenario, 2)?
                .default_duration()
                .is_none()
        {
            return Err(
                "--duration cannot be combined with trace replay: a replayed trace runs at \
                 its recorded horizon"
                    .into(),
            );
        }
        Ok(Some(out))
    }

    /// The scenario spec for the sweep's `n`-node point. Trace replay
    /// ignores `n` (the recording fixes the node count).
    pub fn scenario_for(&self, n: u32) -> ScenarioSpec {
        ScenarioSpec::parse(&self.scenario, n).expect("validated at parse time")
    }

    /// Parses the value of a numeric flag. The error names the flag and the
    /// value (`--seed: invalid digit found in string, got x`); every numeric
    /// flag of every binary goes through this one helper.
    pub fn parse_number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{flag}: {e}, got {v}"))
    }

    /// Parses a `--duration` value: a finite, positive horizon in seconds.
    /// Every binary's `--duration` goes through this one check.
    pub fn parse_duration(v: &str) -> Result<f64, String> {
        let d: f64 = Self::parse_number("--duration", v)?;
        if !d.is_finite() || d <= 0.0 {
            return Err(format!("--duration: need a positive horizon, got {v}"));
        }
        Ok(d)
    }

    /// Parses one `--nodes` count: a generated scenario needs at least two
    /// nodes. Every binary's `--nodes` goes through this one check.
    pub fn parse_node_count(v: &str) -> Result<u32, String> {
        let n: u32 = Self::parse_number("--nodes", v)?;
        if n < 2 {
            return Err(format!(
                "--nodes: a scenario needs at least 2 nodes, got {n}"
            ));
        }
        Ok(n)
    }

    /// Parses a comma-separated `--nodes` list (`40,80,120`), each count as
    /// [`CommonArgs::parse_node_count`].
    pub fn parse_nodes(v: &str) -> Result<Vec<u32>, String> {
        v.split(',').map(Self::parse_node_count).collect()
    }

    /// The matrix sweep configuration these args select (`--seeds`,
    /// `--threads`).
    pub fn sweep_config(&self) -> crate::SweepConfig {
        let mut cfg = crate::SweepConfig {
            seeds: self.seeds,
            ..crate::SweepConfig::default()
        };
        if let Some(t) = self.threads {
            cfg.threads = t;
        }
        cfg
    }

    /// Applies the shared per-spec flags to one sweep cell: workload,
    /// probes and duration override.
    pub fn configure(&self, spec: crate::RunSpec) -> crate::RunSpec {
        let mut spec = spec
            .with_workload(self.workload.clone())
            .with_probes(self.probes.clone());
        if let Some(d) = self.duration {
            spec = spec.with_duration(d);
        }
        spec
    }

    /// Opens the persistent result store these args select: `None` under
    /// `--no-store` or when the root cannot be opened (with a warning —
    /// the sweep then runs cold; see [`crate::store::resolve_store`]).
    pub fn open_store(&self) -> Option<crate::store::CellStore> {
        crate::store::resolve_store(self.store.as_deref(), self.no_store)
    }

    /// The report outputs to write: the `--out` targets when given,
    /// otherwise `defaults` (in the same `FORMAT:PATH` grammar).
    pub fn outs_or(&self, defaults: &[&str]) -> Vec<OutputSpec> {
        if self.outs.is_empty() {
            defaults
                .iter()
                .map(|s| OutputSpec::parse(s).expect("builtin default output"))
                .collect()
        } else {
            self.outs.clone()
        }
    }
}

/// The paper's §V-A settings table, printed by every figure binary with
/// `--print-settings`.
pub fn settings_table() -> &'static str {
    "Simulation settings (paper §V-A):\n\
       mobility            vehicular map-driven (synthetic downtown, bus lines)\n\
       node speed          2.7–13.9 m/s\n\
       transmission speed  2 Mbit/s\n\
       transmission range  10 m\n\
       buffer space        1 MB per node\n\
       message size        25 KB\n\
       message interval    uniform 25–35 s\n\
       TTL                 20 min\n\
       alpha               0.28\n\
       sim duration        10 000 s\n\
       nodes               40..240 step 40\n\
       lambda              10 (fig. 2) / 6–12 (figs. 3–4)\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> Vec<Series> {
        vec![Series {
            label: "EER".into(),
            points: vec![
                (
                    40,
                    MetricPoint {
                        delivery_ratio: 0.5,
                        latency: 400.0,
                        goodput: 0.05,
                        relayed: 100.0,
                        control_mb: 1.0,
                        runs: 3,
                    },
                ),
                (
                    80,
                    MetricPoint {
                        delivery_ratio: 0.6,
                        latency: 380.0,
                        goodput: 0.04,
                        relayed: 120.0,
                        control_mb: 2.0,
                        runs: 3,
                    },
                ),
            ],
        }]
    }

    #[test]
    fn table_contains_all_panels() {
        let t = print_series_table("Fig. 2", &[40, 80], &sample_series());
        assert!(t.contains("delivery ratio"));
        assert!(t.contains("latency (s)"));
        assert!(t.contains("goodput"));
        assert!(t.contains("EER"));
        assert!(t.contains("0.5000"));
        assert!(t.contains("400.0"));
    }

    #[test]
    fn csv_round_trip_format() {
        let dir = std::env::temp_dir().join("dtn_bench_test_csv");
        let path = dir.join("fig.csv");
        write_csv(&path, &sample_series()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("series,n_nodes,"));
        assert!(text.contains("EER,40,0.500000,400.000,0.050000,3"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn args_parse_defaults_and_flags() {
        let d = CommonArgs::parse(std::iter::empty()).unwrap().unwrap();
        assert_eq!(d.seeds, 3);
        assert_eq!(d.node_counts, vec![40, 80, 120, 160, 200, 240]);
        let f = CommonArgs::parse(["--full".to_string()].into_iter())
            .unwrap()
            .unwrap();
        assert_eq!(f.seeds, 10);
        let q = CommonArgs::parse(["--quick".to_string()].into_iter())
            .unwrap()
            .unwrap();
        assert_eq!(q.seeds, 1);
        assert_eq!(q.node_counts.len(), 3);
        let n = CommonArgs::parse(
            [
                "--nodes".to_string(),
                "40,80".to_string(),
                "--seeds".to_string(),
                "5".to_string(),
            ]
            .into_iter(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(n.node_counts, vec![40, 80]);
        assert_eq!(n.seeds, 5);
        assert!(CommonArgs::parse(["--bogus".to_string()].into_iter()).is_err());
        assert!(CommonArgs::parse(["--seeds".to_string(), "0".to_string()].into_iter()).is_err());
    }

    /// `--help` and `-h` are a request, not an error: `Ok(None)` wherever
    /// they appear, so the binaries print usage to stdout and exit 0 (real
    /// usage errors stay `Err`, exit 2).
    #[test]
    fn help_is_not_an_error() {
        for flags in [&["--help"][..], &["-h"], &["--seeds", "2", "--help"]] {
            let got = CommonArgs::parse(flags.iter().map(|f| f.to_string()));
            assert!(matches!(got, Ok(None)), "{flags:?}: {got:?}");
        }
        assert!(CommonArgs::USAGE.starts_with("usage: "));
    }

    /// `--store DIR` / `--no-store` parse, default to "no override, store
    /// on", and `open_store` honors the disable switch.
    #[test]
    fn store_flags_parse_and_resolve() {
        let d = CommonArgs::parse(std::iter::empty()).unwrap().unwrap();
        assert_eq!(d.store, None);
        assert!(!d.no_store);

        let s =
            CommonArgs::parse(["--store".to_string(), "results/alt-store".to_string()].into_iter())
                .unwrap()
                .unwrap();
        assert_eq!(s.store.as_deref(), Some("results/alt-store"));

        let n = CommonArgs::parse(["--no-store".to_string()].into_iter())
            .unwrap()
            .unwrap();
        assert!(n.no_store);
        assert!(n.open_store().is_none(), "--no-store disables the store");
        assert!(CommonArgs::parse(["--store".to_string()].into_iter()).is_err());
    }

    /// The execution flag `--threads` parses, reaches `SweepConfig`, and
    /// never perturbs cell identity.
    #[test]
    fn execution_flags_parse_and_configure() {
        let args = CommonArgs::parse(["--threads", "4"].map(String::from).into_iter())
            .unwrap()
            .unwrap();
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.sweep_config().threads, 4);
        assert_eq!(args.sweep_config().seeds, 3);

        let base = crate::RunSpec::new("EER", 8, crate::ProtocolSpec::parse("eer").unwrap());
        assert_eq!(args.configure(base.clone()).cell_key(1), base.cell_key(1));
    }

    #[test]
    fn duration_flag_parses_and_rejects_trace_replay() {
        let d = CommonArgs::parse(["--duration".to_string(), "1500".to_string()].into_iter())
            .unwrap()
            .unwrap();
        assert_eq!(d.duration, Some(1500.0));
        assert!(
            CommonArgs::parse(["--duration".to_string(), "0".to_string()].into_iter()).is_err()
        );
        assert!(
            CommonArgs::parse(["--duration".to_string(), "-5".to_string()].into_iter()).is_err()
        );
        // A replayed trace runs at its native horizon; combining it with a
        // duration override is a parse-time error, whatever the flag order.
        let err = CommonArgs::parse(
            [
                "--duration".to_string(),
                "1500".to_string(),
                "--scenario".to_string(),
                "trace:/dev/null".to_string(),
            ]
            .into_iter(),
        );
        assert!(err.is_err());
    }

    /// The one `--duration` check every binary shares: a finite, positive
    /// horizon, or an error naming the flag.
    #[test]
    fn duration_parser_rejects_non_positive_and_non_finite_horizons() {
        assert_eq!(CommonArgs::parse_duration("1500"), Ok(1500.0));
        assert_eq!(CommonArgs::parse_duration("0.5"), Ok(0.5));
        for bad in ["-5", "0", "-0", "nan", "NaN", "inf", "-inf", "infinity"] {
            assert_eq!(
                CommonArgs::parse_duration(bad),
                Err(format!("--duration: need a positive horizon, got {bad}")),
                "{bad}"
            );
        }
        let err = CommonArgs::parse_duration("soon").unwrap_err();
        assert!(err.starts_with("--duration: "), "{err}");
        for bad in ["nan", "inf"] {
            let err = CommonArgs::parse(["--duration".to_string(), bad.to_string()].into_iter())
                .unwrap_err();
            assert_eq!(
                err,
                format!("--duration: need a positive horizon, got {bad}")
            );
        }
    }

    /// The one `--nodes` check every binary shares: a generated scenario
    /// needs at least two nodes, so a smaller count fails at parse time
    /// instead of in a sweep worker.
    #[test]
    fn node_counts_below_two_are_rejected_by_name() {
        assert_eq!(CommonArgs::parse_node_count("2"), Ok(2));
        assert_eq!(CommonArgs::parse_nodes("40,80,120"), Ok(vec![40, 80, 120]));
        for bad in ["0", "1"] {
            assert_eq!(
                CommonArgs::parse_node_count(bad),
                Err(format!(
                    "--nodes: a scenario needs at least 2 nodes, got {bad}"
                ))
            );
        }
        assert!(CommonArgs::parse_nodes("40,1").is_err());
        assert!(CommonArgs::parse_node_count("-1")
            .unwrap_err()
            .starts_with("--nodes: "));
        let err =
            CommonArgs::parse(["--nodes".to_string(), "12,1".to_string()].into_iter()).unwrap_err();
        assert_eq!(err, "--nodes: a scenario needs at least 2 nodes, got 1");
    }

    #[test]
    fn out_flag_parses_and_defaults_apply() {
        let a = CommonArgs::parse(
            [
                "--out".to_string(),
                "json:results/a.json".to_string(),
                "--out".to_string(),
                "md:a.md".to_string(),
            ]
            .into_iter(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(a.outs.len(), 2);
        assert_eq!(a.outs_or(&["csv:default.csv"]).len(), 2, "--out wins");
        let d = CommonArgs::parse(std::iter::empty()).unwrap().unwrap();
        let outs = d.outs_or(&["csv:default.csv"]);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].format, OutputFormat::Csv);
        assert!(CommonArgs::parse(["--out".to_string(), "tsv:x".to_string()].into_iter()).is_err());
    }

    #[test]
    fn settings_mention_paper_constants() {
        let s = settings_table();
        assert!(s.contains("2 Mbit/s"));
        assert!(s.contains("10 m"));
        assert!(s.contains("0.28"));
    }
}
