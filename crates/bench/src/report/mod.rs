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
//! This module additionally keeps the figures' three-panel console table
//! ([`print_series_table`], over [`ReportSpec::spec_cells`]) and the shared
//! CLI argument parser ([`CommonArgs`]).
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
use std::fmt::Write as _;

/// Renders the three panels of a paper figure (delivery ratio, latency,
/// goodput) as aligned text tables, one column per x value. `cells` is the
/// positional view ([`ReportSpec::spec_cells`]) of a series-major matrix:
/// each run of `xs.len()` cells is one row, labelled with its series.
pub fn print_series_table(title: &str, xs: &[u32], cells: &[CellSummary]) -> String {
    let mut out = String::new();
    for (panel, key) in [
        ("delivery ratio", "delivery_ratio"),
        ("latency (s)", "latency_s"),
        ("goodput", "goodput"),
    ] {
        let _ = writeln!(out, "\n{title} — {panel}");
        let _ = write!(out, "{:<16}", "N");
        for x in xs {
            let _ = write!(out, "{x:>10}");
        }
        let _ = writeln!(out);
        for row in cells.chunks(xs.len()) {
            let _ = write!(out, "{:<16}", row[0].series);
            for cell in row {
                let v = cell
                    .metric(key)
                    .expect("headline metrics are always measured")
                    .mean;
                if key == "latency_s" {
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

/// The x values of a figure's panels: the node count each of the first
/// series' `per_series` cells ran at, which for a replayed trace is the
/// recording's.
pub fn panel_xs(cells: &[CellSummary], per_series: usize) -> Vec<u32> {
    cells[..per_series].iter().map(|c| c.n_nodes).collect()
}

/// Parses common CLI flags shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Seeds per point.
    pub seeds: u32,
    /// Node counts to sweep: exactly one for a scenario that fixes its node
    /// count (a replayed trace, `paper:n=N`, `city:n=N`).
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
    /// `--print-settings` from `args`. The presets `--full` (10 seeds) and
    /// `--quick` (1 seed, nodes 40,120,200) fill only what `--seeds` and
    /// `--nodes` leave unset, wherever they appear. `Ok(None)` means
    /// `--help` (or `-h`) was requested: the caller prints its usage and
    /// exits successfully.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Option<Self>, String> {
        Self::parse_with_nodes(args, &[40, 80, 120, 160, 200, 240])
    }

    /// [`CommonArgs::parse`] with `default_nodes` as the node counts when
    /// neither `--nodes` nor `--quick` gives them.
    pub fn parse_with_nodes(
        args: impl Iterator<Item = String>,
        default_nodes: &[u32],
    ) -> Result<Option<Self>, String> {
        let mut out = CommonArgs {
            seeds: 3,
            node_counts: default_nodes.to_vec(),
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
        let (mut seeds, mut nodes) = (None, None);
        let (mut preset_seeds, mut preset_nodes) = (None, None);
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => preset_seeds = Some(10),
                "--quick" => {
                    preset_seeds = Some(1);
                    preset_nodes = Some(vec![40, 120, 200]);
                }
                "--seeds" => {
                    let v = it.next().ok_or("--seeds needs a value")?;
                    seeds = Some(Self::parse_number("--seeds", &v)?);
                }
                "--nodes" => {
                    let v = it.next().ok_or("--nodes needs a value")?;
                    nodes = Some(Self::parse_nodes(&v)?);
                }
                "--scenario" => {
                    out.scenario = it.next().ok_or("--scenario needs a value")?;
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
        if let Some(k) = seeds.or(preset_seeds) {
            out.seeds = k;
        }
        let explicit_nodes = nodes.is_some();
        if let Some(ns) = nodes.or(preset_nodes) {
            out.node_counts = ns;
        }
        if out.seeds == 0 || out.node_counts.is_empty() {
            return Err("need at least one seed and one node count".into());
        }
        let scenario = Self::parse_scenario(&out.scenario, 2, out.duration)?;
        // A scenario that fixes its node count (a replayed trace,
        // `paper:n=N`, `city:n=N`) gives a sweep one point; more would rerun
        // identical cells.
        if scenario.cache_key() == ScenarioSpec::parse(&out.scenario, 3)?.cache_key() {
            if explicit_nodes && out.node_counts.len() > 1 {
                let list: Vec<String> = out.node_counts.iter().map(u32::to_string).collect();
                return Err(format!(
                    "--nodes: scenario `{}` fixes its node count; give at most one value, got {}",
                    out.scenario,
                    list.join(",")
                ));
            }
            out.node_counts.truncate(1);
        }
        Ok(Some(out))
    }

    /// The scenario spec for the sweep's `n`-node point. Trace replay
    /// ignores `n` (the recording fixes the node count), as do `paper:n=N`
    /// and `city:n=N`; their sweeps have one point.
    pub fn scenario_for(&self, n: u32) -> ScenarioSpec {
        ScenarioSpec::parse(&self.scenario, n).expect("validated at parse time")
    }

    /// Parses a `--scenario` value for an `n`-node point and refuses what
    /// cannot run, before anything is built: a trace file that cannot be
    /// read, or a `--duration` override of trace replay. Every binary's
    /// `--scenario` goes through this one check, so a typo fails at parse
    /// time, not in a worker thread mid-matrix.
    pub fn parse_scenario(v: &str, n: u32, duration: Option<f64>) -> Result<ScenarioSpec, String> {
        let scenario = ScenarioSpec::parse(v, n)?;
        if let ScenarioSpec::TraceReplay {
            source: TraceSource::Path(p),
        } = &scenario
        {
            std::fs::metadata(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        }
        if duration.is_some() && scenario.default_duration().is_none() {
            return Err(
                "--duration cannot be combined with trace replay: a replayed trace runs at \
                 its recorded horizon"
                    .into(),
            );
        }
        Ok(scenario)
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

    /// The whole three-panel rendering, pinned: two series × two node
    /// counts × two seeds, where the trace series' two specs are one cell
    /// (a trace ignores the node count), as a trace sweep produces them.
    #[test]
    fn table_contains_all_panels() {
        let run = |series: &str, group: &str, seed: u64, delivered: u64, latency: f64| {
            let mut r = record::tests::synthetic_record(series, seed, delivered);
            r.group = group.into();
            r.cell = format!("{group}|seed={seed}");
            r.stats.latency_sum = delivered as f64 * latency;
            r.stats.relayed = 200;
            r
        };
        let mut report = ReportSpec::new("Fig. 2");
        for (n, base) in [(40, 50), (80, 60)] {
            for seed in 1..=2 {
                let paper = format!("paper:n={n}");
                report.push(run("EER", &paper, seed, base + seed, 400.0 + seed as f64));
            }
        }
        for _n in [40, 80] {
            for seed in 1..=2 {
                report.push(run("trace EER", "trace", seed, 30 * seed, 1234.56));
            }
        }
        let table = print_series_table(&report.title, &[40, 80], &report.spec_cells(2));
        assert_eq!(
            table,
            "
Fig. 2 — delivery ratio
N                       40        80
EER                 0.5150    0.6150
trace EER           0.4500    0.4500

Fig. 2 — latency (s)
N                       40        80
EER                  401.5     401.5
trace EER           1234.6    1234.6

Fig. 2 — goodput
N                       40        80
EER                 0.2575    0.3075
trace EER           0.2250    0.2250
"
        );
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

        // Presets fill only what the command line leaves unset, before or
        // after the explicit flags.
        let parse = |flags: &[&str]| {
            CommonArgs::parse(flags.iter().map(|f| f.to_string()))
                .unwrap()
                .unwrap()
        };
        let q = parse(&["--nodes", "8", "--seeds", "2", "--quick"]);
        assert_eq!((q.seeds, q.node_counts), (2, vec![8]));
        let q = parse(&["--quick", "--seeds", "5"]);
        assert_eq!((q.seeds, q.node_counts), (5, vec![40, 120, 200]));
        assert_eq!(parse(&["--seeds", "2", "--full"]).seeds, 2);
        assert_eq!(parse(&["--nodes", "8", "--full"]).node_counts, vec![8]);

        // A caller's own default node list applies only without `--nodes`,
        // even when the given list equals the figures' default.
        let ablation = |flags: &[&str]| {
            CommonArgs::parse_with_nodes(flags.iter().map(|f| f.to_string()), &[80, 160])
                .unwrap()
                .unwrap()
                .node_counts
        };
        assert_eq!(ablation(&[]), vec![80, 160]);
        assert_eq!(
            ablation(&["--nodes", "40,80,120,160,200,240"]),
            vec![40, 80, 120, 160, 200, 240]
        );
        assert_eq!(ablation(&["--quick"]), vec![40, 120, 200]);

        // A scenario that fixes its node count sweeps one point: a default
        // or preset list collapses, one explicit count passes, several are
        // refused. A family sized by `--nodes` keeps the list.
        assert_eq!(parse(&["--scenario", "paper:n=20"]).node_counts, vec![40]);
        let q = parse(&["--scenario", "city:n=20", "--quick"]);
        assert_eq!(q.node_counts, vec![40]);
        let one = parse(&["--scenario", "paper:n=20", "--nodes", "16"]);
        assert_eq!(one.node_counts, vec![16]);
        let many = ["--scenario", "paper:n=20", "--nodes", "12,16"];
        assert_eq!(
            CommonArgs::parse(many.map(String::from).into_iter()).unwrap_err(),
            "--nodes: scenario `paper:n=20` fixes its node count; give at most one value, \
             got 12,16"
        );
        let city = parse(&["--scenario", "city", "--nodes", "12,16"]);
        assert_eq!(city.node_counts, vec![12, 16]);
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
