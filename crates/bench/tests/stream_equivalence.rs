//! The streaming contact supply is an *optimization*, not a semantic
//! change: for every generated scenario family, a streamed run
//! ([`dtn_bench::run_stream`]) must reproduce the materialized run
//! ([`dtn_bench::run_on_observed`] on the cached scenario) bit for bit —
//! statistics, time-series curves and latency histograms alike. This pins
//! the whole chain: windowed contact generation, the engine's source pump,
//! and the event queue's contact lane — and, through the sweep,
//! that a cell [`dtn_bench::run_cell`] streams is recorded and stored like
//! its materialized twin.

use dtn_bench::{
    run_matrix_records_stored, run_on_observed, run_stream, CellStore, CommunitySource, ProbeSpec,
    ProtocolKind, ProtocolSpec, RunRecord, RunSpec, ScenarioCache, ScenarioSpec, SweepConfig,
};

/// The cells under test: every generated family (paper bus-city, explicit
/// city, RWP) under a flooding and a community-routed protocol.
fn cells() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, scenario) in [
        ("paper", ScenarioSpec::paper(24)),
        ("city", ScenarioSpec::city(60, 5)),
        ("rwp", ScenarioSpec::rwp(30)),
    ] {
        specs.push(
            RunSpec::on(
                format!("epidemic @ {label}"),
                scenario.clone(),
                ProtocolSpec::paper(ProtocolKind::Epidemic),
            )
            .with_duration(900.0)
            .with_probes(vec![
                ProbeSpec::TimeSeries { dt: 120.0 },
                ProbeSpec::LatencyHist,
            ]),
        );
        specs.push(
            RunSpec::on(
                format!("cr @ {label}"),
                scenario,
                ProtocolSpec::paper(ProtocolKind::Cr),
            )
            .with_duration(900.0)
            .with_communities(CommunitySource::GroundTruth),
        );
    }
    specs
}

#[test]
fn streamed_runs_match_materialized_runs_bitwise() {
    let cache = ScenarioCache::new();
    for spec in cells() {
        for seed in [1u64, 7] {
            let ps = cache.get_spec(&spec.scenario, &spec.workload, seed, spec.duration);
            let materialized = run_on_observed(&ps, &spec, seed);
            let streamed = run_stream(&spec, seed).expect("streamable cell");
            assert_eq!(
                materialized.stats.snapshot(),
                streamed.output.stats.snapshot(),
                "{} seed {seed}: streamed stats diverge from materialized",
                spec.series
            );
            assert_eq!(
                materialized.stats.delivered_at, streamed.output.stats.delivered_at,
                "{} seed {seed}: delivery time lists diverge",
                spec.series
            );
            match (&materialized.timeseries, &streamed.output.timeseries) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.samples, b.samples,
                        "{} seed {seed}: time-series curves diverge",
                        spec.series
                    );
                }
                _ => panic!("{} seed {seed}: probe presence diverges", spec.series),
            }
            assert_eq!(
                materialized.latency.is_some(),
                streamed.output.latency.is_some(),
                "{} seed {seed}: latency probe presence diverges",
                spec.series
            );
            if let (Some(a), Some(b)) = (&materialized.latency, &streamed.output.latency) {
                assert_eq!(
                    a, b,
                    "{} seed {seed}: latency histograms diverge",
                    spec.series
                );
            }
        }
    }
}

/// Detected communities need a materialized trace; the streaming path must
/// refuse them loudly instead of silently running with different routing.
#[test]
fn streaming_rejects_detected_communities() {
    let spec = RunSpec::on(
        "cr @ paper",
        ScenarioSpec::paper(24),
        ProtocolSpec::paper(ProtocolKind::Cr),
    )
    .with_duration(600.0)
    .with_communities(CommunitySource::Detected);
    let err = run_stream(&spec, 1).expect_err("detected communities cannot stream");
    assert!(
        err.contains("materialized"),
        "error should point at the materialized path: {err}"
    );
}

/// Protocols that ignore communities stream fine even with `Detected` set
/// (the map is never resolved).
#[test]
fn streaming_ignores_communities_for_flooding_protocols() {
    let spec = RunSpec::on(
        "epidemic @ paper",
        ScenarioSpec::paper(24),
        ProtocolSpec::paper(ProtocolKind::Epidemic),
    )
    .with_duration(600.0)
    .with_communities(CommunitySource::Detected);
    let run = run_stream(&spec, 1).expect("epidemic never resolves communities");
    assert!(run.output.stats.created > 0);
}

/// A city-scale cell rides the sweep and the store like any other: next to
/// a small cell in one matrix, `run_cell` streams it, its record equals the
/// materialized twin on every field but `wall_s`/`cached`, and a warm re-run
/// serves both cells.
#[test]
fn streamed_matrix_cell_matches_its_materialized_twin_and_is_served_warm() {
    let epidemic = ProtocolSpec::paper(ProtocolKind::Epidemic);
    let specs = vec![
        RunSpec::on(
            "epidemic @ n=2000",
            ScenarioSpec::paper(2000),
            epidemic.clone(),
        )
        .with_duration(120.0),
        RunSpec::on("epidemic @ n=12", ScenarioSpec::paper(12), epidemic).with_duration(600.0),
    ];
    assert!(specs[0].streams() && !specs[1].streams());
    let root = std::env::temp_dir().join(format!(
        "dtn_bench_stream_equivalence_store_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let store = CellStore::open(&root).expect("fresh store");
    let cfg = SweepConfig {
        seeds: 1,
        threads: 2,
        verbose: false,
    };
    let cache = ScenarioCache::new();
    let cold = run_matrix_records_stored(&cache, &specs, cfg, Some(&store));
    let warm = run_matrix_records_stored(&cache, &specs, cfg, Some(&store));
    for (i, spec) in specs.iter().enumerate() {
        let ps = cache.get_spec(&spec.scenario, &spec.workload, 1, spec.duration);
        let twin = RunRecord::capture_output(spec, &ps, 1, &run_on_observed(&ps, spec, 1), 0.0);
        assert!(twin.stats.created > 0, "{}: no workload", spec.series);
        for (pass, got) in [("cold", &cold[i]), ("warm", &warm[i])] {
            let got = RunRecord {
                wall_s: 0.0,
                cached: false,
                ..got.clone()
            };
            assert_eq!(
                got, twin,
                "{}: {pass} record differs from its materialized twin",
                spec.series
            );
        }
        assert!(!cold[i].cached, "{}: cold run served", spec.series);
        assert!(warm[i].cached, "{}: warm run recomputed", spec.series);
    }
    let _ = std::fs::remove_dir_all(&root);
}
