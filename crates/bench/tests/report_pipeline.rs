//! End-to-end tests of the report pipeline: real sweep records through the
//! JSON emitter and back (`parse ∘ emit = identity`), confidence-interval
//! sanity, golden-file snapshots of the Markdown/CSV emitters, and the
//! registry/README glossary coupling.
//!
//! Regenerate the golden files after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p bench --test report_pipeline`.

use dtn_bench::report::{glossary_markdown, validate_document, METRICS};
use dtn_bench::{
    run_matrix_records, ProbeSpec, ProtocolSpec, ReportSpec, RunRecord, RunSpec, ScenarioCache,
    SweepConfig,
};
use dtn_sim::{LatencyHistogram, StatsSnapshot, TimeSeries, TsSample};
use std::path::Path;

fn real_report() -> ReportSpec {
    let specs = vec![
        RunSpec::new("EER", 10, ProtocolSpec::parse("eer:lambda=4").unwrap()).with_duration(500.0),
        RunSpec::new("Epidemic", 10, ProtocolSpec::parse("epidemic").unwrap()).with_duration(500.0),
    ];
    let cfg = SweepConfig {
        seeds: 2,
        threads: 2,
        verbose: false,
    };
    let mut report = ReportSpec::new("pipeline test");
    report.records = run_matrix_records(&ScenarioCache::new(), &specs, cfg);
    report
}

/// A fully synthetic report with pinned values (including wall-clock), so
/// its emitted documents are byte-stable across machines — the golden-file
/// input.
fn synthetic_report() -> ReportSpec {
    let mut report = ReportSpec::new("Golden: two protocols, two seeds");
    for (series, protocol, base) in [("EER", "eer:lambda=4", 50u64), ("Epidemic", "epidemic", 70)] {
        for seed in 1..=2u64 {
            report.push(RunRecord {
                series: series.into(),
                scenario: "paper(n=40)".into(),
                workload: "paper".into(),
                protocol: protocol.into(),
                seed,
                n_nodes: 40,
                duration: 1000.0,
                cell: format!("scenario=paper:n=40|workload=paper|protocol={protocol}|seed={seed}|dur=408f400000000000"),
                group: format!("scenario=paper:n=40|workload=paper|protocol={protocol}|dur=408f400000000000"),
                stats: StatsSnapshot {
                    created: 100,
                    delivered: base + seed * 4,
                    duplicate_deliveries: 2,
                    relayed: 3 * (base + seed * 4),
                    aborted: 5,
                    drops_buffer: 7,
                    drops_ttl: 3,
                    drops_protocol: 1,
                    refused: 2,
                    control_bytes: 3 * 1024 * 1024 / 2,
                    latency_sum: (base + seed * 4) as f64 * 150.0,
                    hops_sum: 2 * (base + seed * 4),
                },
                wall_s: 0.125,
                timeseries: None,
                latency: None,
                artifact: None,
                cached: false,
            });
        }
    }
    report
}

/// The probed sibling of [`synthetic_report`]: every record carries a
/// pinned time series and latency histogram, so the emitted documents are
/// byte-stable — the golden-file input for the probe sections.
fn synthetic_probed_report() -> ReportSpec {
    let mut report = synthetic_report();
    report.title = "Golden: probed report".into();
    for (i, r) in report.records.iter_mut().enumerate() {
        let delivered = r.stats.delivered;
        let samples = (0..=4u64)
            .map(|k| TsSample {
                t: k as f64 * 250.0,
                created: k * 25,
                delivered: delivered * k / 4,
                relayed: delivered * k * 3 / 4,
                dropped: k,
                buffered_bytes: 50_000 * k,
                buffered_msgs: 2 * k,
            })
            .collect();
        r.timeseries = Some(TimeSeries { dt: 250.0, samples });
        r.latency = Some(LatencyHistogram {
            count: delivered,
            p50: 140.0 + i as f64,
            p95: 300.0,
            p99: 410.0,
            max: 450.0,
            buckets: vec![0, 0, 0, 0, 0, 0, 0, 2, delivered - 2],
        });
    }
    report
}

#[test]
fn json_round_trip_on_real_records() {
    let report = real_report();
    assert_eq!(report.records.len(), 4, "2 specs x 2 seeds");
    let text = report.to_json_string();
    let back = ReportSpec::from_json_str(&text).unwrap();
    assert_eq!(back, report, "parse ∘ emit must be the identity");
    // And the emitted document satisfies its own schema.
    validate_document(&text).unwrap();
}

#[test]
fn identical_runs_have_zero_width_ci() {
    let report = real_report();
    // Duplicate one record under a fresh seed (and so a fresh cell key):
    // every per-run value of that cell is now identical, so spread
    // statistics must collapse to zero.
    let mut twin = report.records[0].clone();
    twin.seed = 99;
    twin.cell = twin.cell.replace("|seed=1|", "|seed=99|");
    assert_ne!(twin.cell, report.records[0].cell);
    let mut degenerate = ReportSpec::new("degenerate");
    degenerate.push(report.records[0].clone());
    degenerate.push(twin);
    let cells = degenerate.cells();
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].seeds.len(), 2);
    for (key, s) in &cells[0].metrics {
        assert_eq!(s.stddev, 0.0, "{key}: stddev of identical runs");
        assert_eq!(s.ci95, 0.0, "{key}: zero-width CI for identical runs");
        assert_eq!(s.min, s.max, "{key}: degenerate range");
        assert_eq!(s.min, s.mean, "{key}: mean equals the single value");
    }
}

#[test]
fn multi_seed_ci_is_positive_for_varying_metrics() {
    let report = real_report();
    let cells = report.cells();
    assert_eq!(cells.len(), 2);
    for cell in &cells {
        // Seeds differ, so at least the delivered count varies; its CI must
        // be strictly positive while staying finite.
        let s = cell.metric("delivered").unwrap();
        assert!(s.stddev >= 0.0 && s.ci95.is_finite());
        assert!(s.min <= s.mean && s.mean <= s.max);
    }
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "emitter output diverged from {} — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn markdown_emitter_matches_golden_file() {
    check_golden("report.md", &synthetic_report().to_markdown());
}

#[test]
fn csv_emitter_matches_golden_file() {
    check_golden("report.csv", &synthetic_report().to_csv());
}

#[test]
fn probed_emitters_match_golden_files() {
    let report = synthetic_probed_report();
    check_golden("report_ts.json", &report.to_json_string());
    check_golden("report_ts.csv", &report.to_csv());
    check_golden("report_ts.md", &report.to_markdown());
}

/// Probe sections survive the JSON round trip exactly and validate, from
/// both synthetic and real (sweep-produced) records.
#[test]
fn probed_json_round_trips_and_validates() {
    let synthetic = synthetic_probed_report();
    let text = synthetic.to_json_string();
    assert_eq!(ReportSpec::from_json_str(&text).unwrap(), synthetic);
    validate_document(&text).unwrap();

    let specs = vec![
        RunSpec::new("EER", 10, ProtocolSpec::parse("eer:lambda=4").unwrap())
            .with_duration(500.0)
            .with_probe(ProbeSpec::TimeSeries { dt: 100.0 })
            .with_probe(ProbeSpec::LatencyHist),
    ];
    let mut real = ReportSpec::new("probed pipeline test");
    real.records = run_matrix_records(
        &ScenarioCache::new(),
        &specs,
        SweepConfig {
            seeds: 2,
            threads: 2,
            verbose: false,
        },
    );
    assert!(real.records.iter().all(|r| r.timeseries.is_some()));
    assert!(real.records.iter().all(|r| r.latency.is_some()));
    let text = real.to_json_string();
    let back = ReportSpec::from_json_str(&text).unwrap();
    assert_eq!(back, real, "probe sections must round-trip exactly");
    let summary = validate_document(&text).unwrap();
    assert!(summary.contains("2 records"), "{summary}");

    // The cell aggregate exists and matches the per-seed curves' length.
    let cells = real.cells();
    assert_eq!(cells.len(), 1);
    let ts = cells[0]
        .timeseries
        .as_ref()
        .expect("aggregated time series");
    assert_eq!(ts.dt, 100.0);
    let min_len = real
        .records
        .iter()
        .map(|r| r.timeseries.as_ref().unwrap().samples.len())
        .min()
        .unwrap();
    assert_eq!(ts.points.len(), min_len);
    // Registered probe metrics surface through the summary.
    assert!(cells[0].metric("latency_p50").unwrap().mean >= 0.0);
    assert!(cells[0].metric("peak_buffer_mb").unwrap().mean > 0.0);
}

/// The validator rejects tampered probe sections.
#[test]
fn validator_rejects_inconsistent_probe_sections() {
    let report = synthetic_probed_report();

    // Bucket counts that no longer sum to the delivery count.
    let mut broken = report.clone();
    broken.records[0].latency.as_mut().unwrap().buckets[0] += 1;
    let err = validate_document(&broken.to_json_string()).unwrap_err();
    assert!(err.contains("sum to count"), "{err}");

    // A time series whose final delivered count disagrees with the stats.
    let mut broken = report.clone();
    broken.records[0]
        .timeseries
        .as_mut()
        .unwrap()
        .samples
        .last_mut()
        .unwrap()
        .delivered += 1;
    let err = validate_document(&broken.to_json_string()).unwrap_err();
    assert!(err.contains("disagrees"), "{err}");

    // Non-cumulative counters.
    let mut broken = report;
    broken.records[0].timeseries.as_mut().unwrap().samples[1].relayed = u64::MAX;
    let err = validate_document(&broken.to_json_string()).unwrap_err();
    assert!(err.contains("cumulative"), "{err}");
}

#[test]
fn csv_has_one_row_per_cell_and_metric() {
    let csv = synthetic_report().to_csv();
    // 2 cells × every registered metric, plus the header.
    // 2 unprobed cells × every always-measured metric, plus the header
    // (probe-dependent metrics are absent, not zero-filled).
    let measured = METRICS.iter().filter(|m| m.available.is_none()).count();
    assert_eq!(csv.lines().count(), 1 + 2 * measured);
}

#[test]
fn readme_glossary_matches_registry() {
    let readme_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(&readme_path).expect("README.md readable");
    let glossary = glossary_markdown();
    assert!(
        readme.contains(&glossary),
        "README.md's \"Metrics glossary\" section must equal \
         report::glossary_markdown() verbatim — regenerate it after registry \
         changes (each metric line follows `| Name | key | unit | definition |`)"
    );
}

#[test]
fn bench_trajectory_is_schema_valid() {
    let report = real_report();
    let text = report.to_bench_json_string("shootout");
    let summary = validate_document(&text).unwrap();
    assert!(summary.contains("cen-dtn.bench"), "{summary}");
}
