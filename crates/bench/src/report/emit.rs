//! Emitters: one [`ReportSpec`], three machine-readable formats plus the
//! console table — and the `--out` CLI grammar that selects them.
//!
//! * **JSON** ([`ReportSpec::to_json_string`]) — schema-versioned; carries
//!   every [`RunRecord`] verbatim plus derived [`CellSummary`]s.
//!   [`ReportSpec::from_json_str`] parses it back: `parse ∘ emit` is the
//!   identity on `(title, records)`.
//! * **CSV** ([`ReportSpec::to_csv`]) — long format, one row per
//!   cell × registered metric, with mean/stddev/min/max/ci95 columns.
//! * **Markdown** ([`ReportSpec::to_markdown`]) — paper-style table of the
//!   headline metrics, `mean ± ci95` per cell.
//!
//! Binaries take the formats via repeatable `--out` flags
//! (`--out json:results/run.json --out md:report.md`), parsed by
//! [`OutputSpec::parse`].

use super::json::Json;
use super::metrics::{metric, HEADLINE, METRICS};
use super::record::{
    CellSummary, MetricSummary, ReportSpec, RunRecord, BENCH_SCHEMA, REPORT_SCHEMA, SCHEMA_VERSION,
};
use dtn_sim::{LatencyHistogram, StatsSnapshot, TimeSeries, TsSample};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Serialization format of one `--out` target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// Schema-versioned JSON (records + cells).
    Json,
    /// Long-format CSV (one row per cell × metric).
    Csv,
    /// Paper-style Markdown tables.
    Markdown,
}

/// One parsed `--out FORMAT:PATH` target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputSpec {
    /// What to emit.
    pub format: OutputFormat,
    /// Where to write it (parent directories are created).
    pub path: PathBuf,
}

impl OutputSpec {
    /// Parses the `--out` grammar: `json:PATH`, `csv:PATH` or `md:PATH`
    /// (alias `markdown:PATH`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (fmt, path) = s
            .split_once(':')
            .ok_or_else(|| format!("--out `{s}`: expected FORMAT:PATH (json:|csv:|md:)"))?;
        if path.is_empty() {
            return Err(format!("--out `{s}`: empty path"));
        }
        let format = match fmt {
            "json" => OutputFormat::Json,
            "csv" => OutputFormat::Csv,
            "md" | "markdown" => OutputFormat::Markdown,
            other => {
                return Err(format!(
                    "--out `{s}`: unknown format `{other}` (valid: json, csv, md)"
                ))
            }
        };
        Ok(OutputSpec {
            format,
            path: PathBuf::from(path),
        })
    }
}

/// Creates `path`'s parent directory (and ancestors) if missing — the one
/// shared output-hygiene helper every artifact/report writer goes through.
/// Errors carry both the directory and the target path (a bare `io::Error`
/// names neither the file nor the phase that failed).
pub fn ensure_parent(path: &Path) -> io::Result<()> {
    // `Path::parent` of a bare filename is `Some("")`, which would make
    // `create_dir_all` fail spuriously — filter it out.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "creating parent directory {} for {}: {e}",
                    dir.display(),
                    path.display()
                ),
            )
        })?;
    }
    Ok(())
}

/// Writes `text` to `path`, creating parent directories as needed
/// ([`ensure_parent`]). Errors carry the offending path.
pub fn write_text(path: &Path, text: &str) -> io::Result<()> {
    ensure_parent(path)?;
    std::fs::write(path, text)
        .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))
}

impl ReportSpec {
    /// Emits the report in `out`'s format to `out`'s path.
    pub fn write(&self, out: &OutputSpec) -> io::Result<()> {
        let text = match out.format {
            OutputFormat::Json => self.to_json_string(),
            OutputFormat::Csv => self.to_csv(),
            OutputFormat::Markdown => self.to_markdown(),
        };
        write_text(&out.path, &text)
    }

    /// Emits to every target, reporting each written path on stderr and
    /// failures without aborting the remaining targets. Returns `true` when
    /// all targets succeeded.
    pub fn write_all(&self, outs: &[OutputSpec]) -> bool {
        let mut ok = true;
        for out in outs {
            match self.write(out) {
                Ok(()) => eprintln!("wrote {}", out.path.display()),
                Err(e) => {
                    eprintln!("output failed: {e}");
                    ok = false;
                }
            }
        }
        ok
    }

    /// The full JSON document: schema/version header, verbatim records and
    /// derived cell summaries.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(REPORT_SCHEMA)),
            ("version", Json::uint(u64::from(SCHEMA_VERSION))),
            ("title", Json::str(&self.title)),
            (
                "records",
                Json::arr(self.records.iter().map(record_to_json).collect()),
            ),
            (
                "cells",
                Json::arr(self.cells().iter().map(cell_to_json).collect()),
            ),
        ])
    }

    /// [`ReportSpec::to_json`], rendered.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parses a document emitted by [`ReportSpec::to_json_string`].
    /// Validates the schema name and version, then reconstructs the records
    /// exactly (cells are derived data and are re-computed on demand).
    pub fn from_json_str(text: &str) -> Result<ReportSpec, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// [`ReportSpec::from_json_str`] over an already-parsed document.
    pub fn from_json(doc: &Json) -> Result<ReportSpec, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == REPORT_SCHEMA => {}
            other => {
                return Err(format!(
                    "not a {REPORT_SCHEMA} document (schema: {other:?})"
                ))
            }
        }
        // Older versions stay parseable: every field v2 added over v1 is
        // optional, so a v1 document is a valid v2 document.
        match doc.get("version").and_then(Json::as_u64) {
            Some(v) if (1..=u64::from(SCHEMA_VERSION)).contains(&v) => {}
            other => {
                return Err(format!(
                    "unsupported schema version {other:?} (expected 1..={SCHEMA_VERSION})"
                ))
            }
        }
        let title = doc
            .get("title")
            .and_then(Json::as_str)
            .ok_or("missing title")?
            .to_string();
        let records = doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing records array")?
            .iter()
            .enumerate()
            .map(|(i, r)| record_from_json(r).map_err(|e| format!("record {i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReportSpec { title, records })
    }

    /// Long-format CSV: header plus one row per cell × registered metric.
    /// Cells carrying an aggregated time series additionally get one row per
    /// sample × curve metric, keyed `ts_<metric>@<t>` (same columns).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "series,scenario,workload,protocol,n_nodes,duration_s,metric,unit,\
             mean,stddev,min,max,ci95,runs\n",
        );
        for cell in self.cells() {
            let mut row = |key: &str, unit: &str, s: &MetricSummary| {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{key},{unit},{},{},{},{},{},{}",
                    csv_field(&cell.series),
                    csv_field(&cell.scenario),
                    csv_field(&cell.workload),
                    csv_field(&cell.protocol),
                    cell.n_nodes,
                    cell.duration,
                    s.mean,
                    s.stddev,
                    s.min,
                    s.max,
                    s.ci95,
                    s.n,
                );
            };
            for (key, s) in &cell.metrics {
                let unit = metric(key).map_or("", |m| m.unit);
                row(key, unit, s);
            }
            if let Some(ts) = &cell.timeseries {
                for p in &ts.points {
                    row(
                        &format!("ts_delivery_ratio@{}", p.t),
                        "ratio",
                        &p.delivery_ratio,
                    );
                    row(
                        &format!("ts_overhead_ratio@{}", p.t),
                        "ratio",
                        &p.overhead_ratio,
                    );
                    row(&format!("ts_buffered_mb@{}", p.t), "MB", &p.buffered_mb);
                }
            }
        }
        out
    }

    /// Paper-style Markdown: title, run census and a headline-metric table
    /// (`mean ± ci95` per cell; the ± part is omitted for single-seed
    /// cells).
    pub fn to_markdown(&self) -> String {
        let cells = self.cells();
        let mut out = format!("# {}\n\n", self.title);
        let _ = writeln!(
            out,
            "{} runs over {} cells (seeds per cell: {}).\n",
            self.records.len(),
            cells.len(),
            cells.iter().map(|c| c.seeds.len()).max().unwrap_or(0)
        );
        out.push_str("| Series | Scenario | Workload | Protocol | N |");
        for key in HEADLINE {
            let m = metric(key).expect("headline keys are registered");
            if m.unit == "ratio" || m.unit == "hops" {
                let _ = write!(out, " {} |", m.name);
            } else {
                let _ = write!(out, " {} ({}) |", m.name, m.unit);
            }
        }
        out.push_str("\n|---|---|---|---|---|");
        for _ in HEADLINE {
            out.push_str("---|");
        }
        out.push('\n');
        for cell in &cells {
            let _ = write!(
                out,
                "| {} | `{}` | `{}` | `{}` | {} |",
                cell.series, cell.scenario, cell.workload, cell.protocol, cell.n_nodes
            );
            for key in HEADLINE {
                let s = cell.metric(key).expect("every metric is summarized");
                let _ = write!(out, " {} |", format_mean_ci(key, s.mean, s.ci95, s.n));
            }
            out.push('\n');
        }
        // Probe sections ride along when present.
        if cells.iter().any(|c| c.timeseries.is_some()) {
            out.push_str("\n## Delivery over time\n\n");
            out.push_str(
                "Mean delivery ratio at sampled times (time-series probe, up to 12 \
                 columns shown).\n\n",
            );
            for cell in &cells {
                let Some(ts) = &cell.timeseries else { continue };
                // Subsample long curves so the table stays readable.
                let stride = ts.points.len().div_ceil(12).max(1);
                let picks: Vec<_> = ts.points.iter().step_by(stride).collect();
                let _ = writeln!(out, "**{} (N = {})**\n", cell.series, cell.n_nodes);
                out.push_str("| t (s) |");
                for p in &picks {
                    let _ = write!(out, " {:.0} |", p.t);
                }
                out.push_str("\n|---|");
                for _ in &picks {
                    out.push_str("---|");
                }
                out.push_str("\n| delivery ratio |");
                for p in &picks {
                    let _ = write!(out, " {:.4} |", p.delivery_ratio.mean);
                }
                out.push_str("\n| overhead ratio |");
                for p in &picks {
                    let _ = write!(out, " {:.2} |", p.overhead_ratio.mean);
                }
                out.push_str("\n| buffered (MB) |");
                for p in &picks {
                    let _ = write!(out, " {:.3} |", p.buffered_mb.mean);
                }
                out.push_str("\n\n");
            }
        }
        // Percentiles exist only for cells whose records carried the
        // latency probe (unmeasured metrics are absent, not zero).
        let latency_cells: Vec<_> = cells
            .iter()
            .filter(|c| c.metric("latency_p50").is_some())
            .collect();
        if !latency_cells.is_empty() {
            out.push_str("\n## Latency percentiles\n\n");
            out.push_str("| Series | N | p50 (s) | p95 (s) | p99 (s) |\n|---|---|---|---|---|\n");
            for cell in latency_cells {
                let _ = write!(out, "| {} | {} |", cell.series, cell.n_nodes);
                for key in ["latency_p50", "latency_p95", "latency_p99"] {
                    let s = cell.metric(key).expect("measured alongside p50");
                    let _ = write!(out, " {} |", format_mean_ci(key, s.mean, s.ci95, s.n));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Fixed-width console table of the headline metrics — the shared
    /// human-readable view the sweep binaries print.
    pub fn render_table(&self) -> String {
        let mut out = format!("\n{}\n", self.title);
        let _ = write!(out, "{:<36}{:>6}", "series", "N");
        for key in HEADLINE {
            let short = match *key {
                "delivery_ratio" => "deliv",
                "latency_s" => "latency",
                "overhead_ratio" => "overhd",
                "control_mb" => "ctrl MB",
                other => other,
            };
            let _ = write!(out, "{short:>10}");
        }
        let _ = writeln!(out, "{:>8}", "seeds");
        for cell in self.cells() {
            let _ = write!(out, "{:<36}{:>6}", cell.series, cell.n_nodes);
            for key in HEADLINE {
                let s = cell.metric(key).expect("every metric is summarized");
                let text = match *key {
                    "latency_s" => format!("{:.1}", s.mean),
                    "control_mb" | "overhead_ratio" | "hops" => format!("{:.2}", s.mean),
                    _ => format!("{:.4}", s.mean),
                };
                let _ = write!(out, "{text:>10}");
            }
            let _ = writeln!(out, "{:>8}", cell.seeds.len());
        }
        out
    }

    /// The bench-trajectory document (`BENCH_<name>.json`): per-cell
    /// headline means and wall-clock statistics plus the total runner
    /// wall-clock, so performance is comparable across code revisions.
    pub fn to_bench_json_string(&self, bench: &str) -> String {
        let cells = self.cells();
        Json::obj([
            ("schema", Json::str(BENCH_SCHEMA)),
            ("version", Json::uint(u64::from(SCHEMA_VERSION))),
            ("bench", Json::str(bench)),
            ("title", Json::str(&self.title)),
            ("runs", Json::uint(self.records.len() as u64)),
            ("wall_s_total", Json::num(self.wall_s_total())),
            ("computed_wall_s", Json::num(self.computed_wall_s())),
            (
                "served_from_store",
                Json::uint(self.served_from_store() as u64),
            ),
            (
                "cells",
                Json::arr(
                    cells
                        .iter()
                        .map(|c| {
                            let wall = c.metric("wall_s").expect("wall_s is registered");
                            Json::obj([
                                ("cell", Json::str(&c.group)),
                                ("series", Json::str(&c.series)),
                                ("n_nodes", Json::uint(u64::from(c.n_nodes))),
                                ("runs", Json::uint(c.seeds.len() as u64)),
                                (
                                    "delivery_ratio",
                                    Json::num(c.metric("delivery_ratio").unwrap().mean),
                                ),
                                ("latency_s", Json::num(c.metric("latency_s").unwrap().mean)),
                                ("wall_s_mean", Json::num(wall.mean)),
                                ("wall_s_max", Json::num(wall.max)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// `mean ± ci95` with metric-appropriate precision; the spread is omitted
/// when only one run backs the cell.
fn format_mean_ci(key: &str, mean: f64, ci95: f64, n: u32) -> String {
    let (value, spread) = match key {
        "latency_s" | "latency_p50" | "latency_p95" | "latency_p99" => {
            (format!("{mean:.1}"), format!("{ci95:.1}"))
        }
        "control_mb" | "overhead_ratio" | "hops" => (format!("{mean:.2}"), format!("{ci95:.2}")),
        _ => (format!("{mean:.4}"), format!("{ci95:.4}")),
    };
    if n < 2 {
        value
    } else {
        format!("{value} ± {spread}")
    }
}

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn timeseries_to_json(ts: &TimeSeries) -> Json {
    Json::obj([
        ("dt", Json::num(ts.dt)),
        (
            "samples",
            Json::arr(
                ts.samples
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("t", Json::num(s.t)),
                            ("created", Json::uint(s.created)),
                            ("delivered", Json::uint(s.delivered)),
                            ("relayed", Json::uint(s.relayed)),
                            ("dropped", Json::uint(s.dropped)),
                            ("buffered_bytes", Json::uint(s.buffered_bytes)),
                            ("buffered_msgs", Json::uint(s.buffered_msgs)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn timeseries_from_json(j: &Json) -> Result<TimeSeries, String> {
    let dt = j
        .get("dt")
        .and_then(Json::as_f64)
        .ok_or("timeseries: missing `dt`")?;
    let samples = j
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or("timeseries: missing `samples` array")?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let num = |key: &str| {
                s.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("timeseries sample {i}: missing `{key}`"))
            };
            let count = |key: &str| {
                s.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("timeseries sample {i}: missing `{key}`"))
            };
            Ok(TsSample {
                t: num("t")?,
                created: count("created")?,
                delivered: count("delivered")?,
                relayed: count("relayed")?,
                dropped: count("dropped")?,
                buffered_bytes: count("buffered_bytes")?,
                buffered_msgs: count("buffered_msgs")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TimeSeries { dt, samples })
}

fn latency_to_json(l: &LatencyHistogram) -> Json {
    Json::obj([
        ("count", Json::uint(l.count)),
        ("p50", Json::num(l.p50)),
        ("p95", Json::num(l.p95)),
        ("p99", Json::num(l.p99)),
        ("max", Json::num(l.max)),
        (
            "buckets",
            Json::arr(l.buckets.iter().map(|&b| Json::uint(b)).collect()),
        ),
    ])
}

fn latency_from_json(j: &Json) -> Result<LatencyHistogram, String> {
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("latency_hist: missing `{key}`"))
    };
    Ok(LatencyHistogram {
        count: j
            .get("count")
            .and_then(Json::as_u64)
            .ok_or("latency_hist: missing `count`")?,
        p50: num("p50")?,
        p95: num("p95")?,
        p99: num("p99")?,
        max: num("max")?,
        buckets: j
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("latency_hist: missing `buckets` array")?
            .iter()
            .enumerate()
            .map(|(i, b)| {
                b.as_u64()
                    .ok_or_else(|| format!("latency_hist: bucket {i} is not a count"))
            })
            .collect::<Result<Vec<_>, String>>()?,
    })
}

fn record_to_json(r: &RunRecord) -> Json {
    let mut fields = vec![
        ("series", Json::str(&r.series)),
        ("scenario", Json::str(&r.scenario)),
        ("workload", Json::str(&r.workload)),
        ("protocol", Json::str(&r.protocol)),
        ("seed", Json::uint(r.seed)),
        ("n_nodes", Json::uint(u64::from(r.n_nodes))),
        ("duration_s", Json::num(r.duration)),
        ("cell", Json::str(&r.cell)),
        ("group", Json::str(&r.group)),
        ("wall_s", Json::num(r.wall_s)),
        (
            "stats",
            Json::obj([
                ("created", Json::uint(r.stats.created)),
                ("delivered", Json::uint(r.stats.delivered)),
                (
                    "duplicate_deliveries",
                    Json::uint(r.stats.duplicate_deliveries),
                ),
                ("relayed", Json::uint(r.stats.relayed)),
                ("aborted", Json::uint(r.stats.aborted)),
                ("drops_buffer", Json::uint(r.stats.drops_buffer)),
                ("drops_ttl", Json::uint(r.stats.drops_ttl)),
                ("drops_protocol", Json::uint(r.stats.drops_protocol)),
                ("refused", Json::uint(r.stats.refused)),
                ("control_bytes", Json::uint(r.stats.control_bytes)),
                ("latency_sum", Json::num(r.stats.latency_sum)),
                ("hops_sum", Json::uint(r.stats.hops_sum)),
            ]),
        ),
    ];
    if let Some(ts) = &r.timeseries {
        fields.push(("timeseries", timeseries_to_json(ts)));
    }
    if let Some(l) = &r.latency {
        fields.push(("latency_hist", latency_to_json(l)));
    }
    if let Some(a) = &r.artifact {
        fields.push(("artifact", Json::str(a)));
    }
    if r.cached {
        fields.push(("cached", Json::Bool(true)));
    }
    Json::obj(fields)
}

fn record_from_json(j: &Json) -> Result<RunRecord, String> {
    let get_str = |key: &str| {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let get_f64 = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field `{key}`"))
    };
    let stats = j.get("stats").ok_or("missing stats object")?;
    let stat_u64 = |key: &str| {
        stats
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing stats field `{key}`"))
    };
    Ok(RunRecord {
        series: get_str("series")?,
        scenario: get_str("scenario")?,
        workload: get_str("workload")?,
        protocol: get_str("protocol")?,
        seed: j.get("seed").and_then(Json::as_u64).ok_or("missing seed")?,
        n_nodes: j
            .get("n_nodes")
            .and_then(Json::as_u64)
            .ok_or("missing n_nodes")? as u32,
        duration: get_f64("duration_s")?,
        cell: get_str("cell")?,
        group: get_str("group")?,
        wall_s: get_f64("wall_s")?,
        stats: StatsSnapshot {
            created: stat_u64("created")?,
            delivered: stat_u64("delivered")?,
            duplicate_deliveries: stat_u64("duplicate_deliveries")?,
            relayed: stat_u64("relayed")?,
            aborted: stat_u64("aborted")?,
            drops_buffer: stat_u64("drops_buffer")?,
            drops_ttl: stat_u64("drops_ttl")?,
            drops_protocol: stat_u64("drops_protocol")?,
            refused: stat_u64("refused")?,
            control_bytes: stat_u64("control_bytes")?,
            latency_sum: stats
                .get("latency_sum")
                .and_then(Json::as_f64)
                .ok_or("missing stats field `latency_sum`")?,
            hops_sum: stat_u64("hops_sum")?,
        },
        timeseries: j.get("timeseries").map(timeseries_from_json).transpose()?,
        latency: j.get("latency_hist").map(latency_from_json).transpose()?,
        artifact: j
            .get("artifact")
            .map(|a| {
                a.as_str()
                    .map(str::to_string)
                    .ok_or("field `artifact` is not a string".to_string())
            })
            .transpose()?,
        cached: j.get("cached").and_then(Json::as_bool).unwrap_or(false),
    })
}

fn summary_to_json(s: &MetricSummary) -> Json {
    Json::obj([
        ("mean", Json::num(s.mean)),
        ("stddev", Json::num(s.stddev)),
        ("min", Json::num(s.min)),
        ("max", Json::num(s.max)),
        ("ci95", Json::num(s.ci95)),
        ("n", Json::uint(u64::from(s.n))),
    ])
}

fn cell_to_json(c: &CellSummary) -> Json {
    let mut fields = vec![
        ("group", Json::str(&c.group)),
        ("series", Json::str(&c.series)),
        ("scenario", Json::str(&c.scenario)),
        ("workload", Json::str(&c.workload)),
        ("protocol", Json::str(&c.protocol)),
        ("n_nodes", Json::uint(u64::from(c.n_nodes))),
        ("duration_s", Json::num(c.duration)),
        (
            "seeds",
            Json::arr(c.seeds.iter().map(|&s| Json::uint(s)).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                c.metrics
                    .iter()
                    .map(|(key, s)| ((*key).to_string(), summary_to_json(s)))
                    .collect(),
            ),
        ),
    ];
    if let Some(ts) = &c.timeseries {
        fields.push((
            "timeseries",
            Json::obj([
                ("dt", Json::num(ts.dt)),
                (
                    "points",
                    Json::arr(
                        ts.points
                            .iter()
                            .map(|p| {
                                Json::obj([
                                    ("t", Json::num(p.t)),
                                    ("delivery_ratio", summary_to_json(&p.delivery_ratio)),
                                    ("overhead_ratio", summary_to_json(&p.overhead_ratio)),
                                    ("buffered_mb", summary_to_json(&p.buffered_mb)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Validates a report or bench-trajectory document: schema/version header,
/// required per-item fields, and — walking the whole tree — that every
/// number is finite (the emitter turns non-finite values into `null`, which
/// this rejects). Returns a one-line summary of a valid document and a
/// human-readable description on failure.
pub fn validate_document(text: &str) -> Result<String, String> {
    validate_and_decode(text).map(|(summary, _)| summary)
}

/// [`validate_document`], also handing back the records a valid
/// `cen-dtn.report` document decoded to (`None` for a bench trajectory), so
/// a caller that needs them — store admission — parses the text once.
pub fn validate_and_decode(text: &str) -> Result<(String, Option<ReportSpec>), String> {
    let doc = Json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` field")?;
    // Documents from older revisions (e.g. BENCH_*.json perf trajectories,
    // whose whole point is cross-revision comparison) stay valid: every
    // field added since v1 is optional.
    match doc.get("version").and_then(Json::as_u64) {
        Some(v) if (1..=u64::from(SCHEMA_VERSION)).contains(&v) => {}
        other => {
            return Err(format!(
                "unsupported version {other:?} (expected 1..={SCHEMA_VERSION})"
            ))
        }
    }
    let mut numbers = 0usize;
    check_finite(&doc, "$", &mut numbers)?;
    match schema {
        s if s == REPORT_SCHEMA => {
            let report = ReportSpec::from_json(&doc)?;
            // Probe sections: the parser above already rejected malformed
            // ones; here the *semantic* invariants are enforced.
            for (i, r) in report.records.iter().enumerate() {
                if let Some(ts) = &r.timeseries {
                    if !(ts.dt.is_finite() && ts.dt > 0.0) {
                        return Err(format!("record {i}: timeseries dt must be positive"));
                    }
                    for w in ts.samples.windows(2) {
                        if w[1].t < w[0].t {
                            return Err(format!(
                                "record {i}: timeseries sample times must be non-decreasing \
                                 ({} after {})",
                                w[1].t, w[0].t
                            ));
                        }
                        if w[1].created < w[0].created
                            || w[1].delivered < w[0].delivered
                            || w[1].relayed < w[0].relayed
                            || w[1].dropped < w[0].dropped
                        {
                            return Err(format!(
                                "record {i}: timeseries counters must be cumulative \
                                 (non-decreasing)"
                            ));
                        }
                    }
                    if let Some(last) = ts.samples.last() {
                        if last.delivered != r.stats.delivered {
                            return Err(format!(
                                "record {i}: timeseries final delivered ({}) disagrees with \
                                 the record's stats ({})",
                                last.delivered, r.stats.delivered
                            ));
                        }
                    }
                }
                if let Some(l) = &r.latency {
                    if l.buckets.iter().sum::<u64>() != l.count {
                        return Err(format!(
                            "record {i}: latency_hist buckets must sum to count ({})",
                            l.count
                        ));
                    }
                    if !(l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max) {
                        return Err(format!(
                            "record {i}: latency_hist percentiles must be ordered \
                             (p50 ≤ p95 ≤ p99 ≤ max)"
                        ));
                    }
                    if l.count != r.stats.delivered {
                        return Err(format!(
                            "record {i}: latency_hist count ({}) disagrees with the \
                             record's delivered ({})",
                            l.count, r.stats.delivered
                        ));
                    }
                }
            }
            let cells = doc
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("missing `cells` array")?;
            for (i, cell) in cells.iter().enumerate() {
                for field in ["group", "series"] {
                    if cell.get(field).and_then(Json::as_str).is_none() {
                        return Err(format!("cell {i}: missing `{field}`"));
                    }
                }
                let metrics = cell
                    .get("metrics")
                    .ok_or(format!("cell {i}: missing `metrics`"))?;
                for m in METRICS {
                    let Some(summary) = metrics.get(m.key) else {
                        // Probe-dependent metrics are legitimately absent
                        // when the probe was not attached; everything else
                        // must be present.
                        if m.available.is_some() {
                            continue;
                        }
                        return Err(format!("cell {i}: metric `{}` missing", m.key));
                    };
                    // Each statistic must be an actual number: the emitter
                    // writes `null` for non-finite values, which must fail
                    // here, not pass as merely "present".
                    for field in ["mean", "stddev", "min", "max", "ci95"] {
                        if summary.get(field).and_then(Json::as_f64).is_none() {
                            return Err(format!(
                                "cell {i}: metric `{}`: `{field}` is not a number",
                                m.key
                            ));
                        }
                    }
                    if summary.get("n").and_then(Json::as_u64).is_none() {
                        return Err(format!("cell {i}: metric `{}`: bad `n`", m.key));
                    }
                }
                if let Some(ts) = cell.get("timeseries") {
                    if ts.get("dt").and_then(Json::as_f64).is_none() {
                        return Err(format!("cell {i}: timeseries: missing `dt`"));
                    }
                    let points = ts
                        .get("points")
                        .and_then(Json::as_arr)
                        .ok_or(format!("cell {i}: timeseries: missing `points` array"))?;
                    for (k, p) in points.iter().enumerate() {
                        if p.get("t").and_then(Json::as_f64).is_none() {
                            return Err(format!("cell {i}: timeseries point {k}: missing `t`"));
                        }
                        for curve in ["delivery_ratio", "overhead_ratio", "buffered_mb"] {
                            let s = p.get(curve).ok_or_else(|| {
                                format!("cell {i}: timeseries point {k}: missing `{curve}`")
                            })?;
                            if s.get("mean").and_then(Json::as_f64).is_none() {
                                return Err(format!(
                                    "cell {i}: timeseries point {k}: `{curve}.mean` is not a \
                                     number"
                                ));
                            }
                        }
                    }
                }
            }
            let summary = format!(
                "{schema} v{SCHEMA_VERSION}: {} records, {} cells, {numbers} finite numbers",
                report.records.len(),
                cells.len()
            );
            Ok((summary, Some(report)))
        }
        s if s == BENCH_SCHEMA => {
            let cells = doc
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("missing `cells` array")?;
            if cells.is_empty() {
                return Err("bench trajectory has no cells".into());
            }
            doc.get("wall_s_total")
                .and_then(Json::as_f64)
                .ok_or("missing `wall_s_total`")?;
            for (i, cell) in cells.iter().enumerate() {
                for field in ["cell", "series"] {
                    if cell.get(field).and_then(Json::as_str).is_none() {
                        return Err(format!("cell {i}: missing `{field}`"));
                    }
                }
                for field in ["delivery_ratio", "latency_s", "wall_s_mean", "wall_s_max"] {
                    if cell.get(field).and_then(Json::as_f64).is_none() {
                        return Err(format!("cell {i}: missing number `{field}`"));
                    }
                }
            }
            let summary = format!(
                "{schema} v{SCHEMA_VERSION}: {} cells, {numbers} finite numbers",
                cells.len()
            );
            Ok((summary, None))
        }
        other => Err(format!("unknown schema `{other}`")),
    }
}

fn check_finite(j: &Json, path: &str, numbers: &mut usize) -> Result<(), String> {
    match j {
        Json::Num(v) => {
            if !v.is_finite() {
                return Err(format!("non-finite number at {path}"));
            }
            *numbers += 1;
            Ok(())
        }
        Json::Uint(_) => {
            *numbers += 1;
            Ok(())
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                check_finite(item, &format!("{path}[{i}]"), numbers)?;
            }
            Ok(())
        }
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                check_finite(v, &format!("{path}.{k}"), numbers)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_report() -> ReportSpec {
        let mut report = ReportSpec::new("emit test");
        for seed in 1..=3u64 {
            let mut r = crate::report::record::RunRecord {
                series: "EER".into(),
                scenario: "paper:40".into(),
                workload: "paper".into(),
                protocol: "eer".into(),
                seed,
                n_nodes: 40,
                duration: 1000.0,
                cell: format!("scenario=paper|seed={seed}|dur=0"),
                group: "scenario=paper|dur=0".into(),
                stats: StatsSnapshot {
                    created: 100,
                    delivered: 40 + seed * 10,
                    relayed: 300,
                    latency_sum: 5000.0,
                    hops_sum: 120,
                    control_bytes: 2 * 1024 * 1024,
                    ..Default::default()
                },
                wall_s: 0.5,
                timeseries: None,
                latency: None,
                artifact: None,
                cached: false,
            };
            r.stats.aborted = seed;
            report.push(r);
        }
        report
    }

    #[test]
    fn json_emit_parse_identity() {
        let mut report = synthetic_report();
        report.records[1].cached = true;
        let text = report.to_json_string();
        let back = ReportSpec::from_json_str(&text).unwrap();
        assert_eq!(back, report);
        assert!(!back.records[0].cached, "absent `cached` parses as false");
        assert!(back.records[1].cached);
        assert_eq!(report.served_from_store(), 1);
        assert!(report.computed_wall_s() < report.wall_s_total());
    }

    #[test]
    fn json_validates() {
        let report = synthetic_report();
        let summary = validate_document(&report.to_json_string()).unwrap();
        assert!(summary.contains("3 records"));
        let bench = report.to_bench_json_string("shootout");
        let summary = validate_document(&bench).unwrap();
        assert!(summary.contains("1 cells"));
    }

    /// Documents emitted by older revisions stay parseable and valid: the
    /// v2/v3 additions over v1 are all optional, and the BENCH_*.json perf
    /// trajectory exists precisely to be compared across revisions.
    #[test]
    fn old_documents_still_parse_and_validate() {
        let report = synthetic_report();
        for old in ["\"version\": 1", "\"version\": 2"] {
            let doc = report.to_json_string().replace("\"version\": 3", old);
            assert_ne!(doc, report.to_json_string(), "version must appear once");
            assert_eq!(ReportSpec::from_json_str(&doc).unwrap(), report);
            validate_document(&doc).unwrap();
            let bench = report
                .to_bench_json_string("shootout")
                .replace("\"version\": 3", old);
            validate_document(&bench).unwrap();
        }
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_document("{}").is_err());
        assert!(validate_document("{\"schema\": \"cen-dtn.report\", \"version\": 99}").is_err());
        let report = synthetic_report();

        // A report whose records array was renamed away must fail.
        let text = report.to_json_string();
        let renamed = text.replace("\"records\"", "\"recordz\"");
        assert!(validate_document(&renamed).is_err());

        // A report cell statistic of `null` — exactly what the emitter
        // writes for a non-finite value — must fail, not merely be
        // "present". delivery_ratio's per-seed values are 0.5/0.6/0.7, so
        // its summary mean is exactly 0.6.
        let nulled = text.replace("\"mean\": 0.6,", "\"mean\": null,");
        assert_ne!(nulled, text, "tamper target must exist in the document");
        let err = validate_document(&nulled).unwrap_err();
        assert!(err.contains("not a number"), "{err}");

        // A bench trajectory with a non-finite number (JSON `1e999`
        // overflows to infinity when parsed as f64) must fail.
        let bench = report
            .to_bench_json_string("shootout")
            .replace("\"wall_s_total\": 1.5", "\"wall_s_total\": 1e999");
        assert!(validate_document(&bench).is_err());
    }

    #[test]
    fn csv_is_long_format() {
        let csv = synthetic_report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("series,scenario,workload,protocol,n_nodes"));
        // One cell × all registered metrics.
        // One cell × every always-measured metric (the synthetic records
        // carry no probes, so probe-dependent metrics are absent).
        let measured = METRICS.iter().filter(|m| m.available.is_none()).count();
        assert_eq!(lines.len(), 1 + measured);
        assert!(csv.contains("EER,paper:40,paper,eer,40,1000,delivery_ratio,ratio,"));
    }

    #[test]
    fn markdown_has_mean_and_ci() {
        let md = synthetic_report().to_markdown();
        assert!(md.starts_with("# emit test"));
        assert!(md.contains("| Series |"));
        assert!(md.contains("±"), "multi-seed cells show the CI: {md}");
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn output_spec_grammar() {
        let o = OutputSpec::parse("json:results/x.json").unwrap();
        assert_eq!(o.format, OutputFormat::Json);
        assert_eq!(o.path, PathBuf::from("results/x.json"));
        assert_eq!(
            OutputSpec::parse("md:r.md").unwrap().format,
            OutputFormat::Markdown
        );
        assert_eq!(
            OutputSpec::parse("markdown:r.md").unwrap().format,
            OutputFormat::Markdown
        );
        assert!(OutputSpec::parse("yaml:x").is_err());
        assert!(OutputSpec::parse("json:").is_err());
        assert!(OutputSpec::parse("no-colon").is_err());
    }

    #[test]
    fn write_text_creates_nested_parents_and_bare_files() {
        let dir = std::env::temp_dir().join("dtn_report_write_text");
        std::fs::remove_dir_all(&dir).ok();
        let nested = dir.join("a/b/c.txt");
        write_text(&nested, "x").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_text_errors_name_the_path() {
        let dir = std::env::temp_dir().join("dtn_report_write_text_err");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Parent is a regular file: creating the directory must fail and the
        // error must say which path was involved.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "").unwrap();
        let target = blocker.join("sub/out.csv");
        let err = write_text(&target, "x").unwrap_err();
        assert!(
            err.to_string().contains("out.csv"),
            "error must name the target: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
