//! Cross-scenario sweep correctness: a single matrix can put the paper
//! bus-city, random waypoint and trace replay side-by-side as series, the
//! worker-thread count never changes results, and distinct scenario specs
//! with identical `(n, seed, duration)` never share a cache entry (the
//! collision the old `(n_nodes, seed, duration)` key allowed).

use dtn_bench::{
    run_matrix_records, ProbeSpec, ProtocolKind, ProtocolSpec, RunRecord, RunSpec, ScenarioCache,
    ScenarioSpec, SweepConfig, WorkloadSpec,
};
use dtn_testutil::family_matrix;
use std::sync::Arc;

fn run_with_threads(threads: usize) -> (Vec<RunRecord>, usize) {
    let cache = ScenarioCache::new();
    let records = run_matrix_records(
        &cache,
        &family_matrix(),
        SweepConfig {
            seeds: 2,
            threads,
            verbose: false,
        },
    );
    (records, cache.len())
}

#[test]
fn cross_scenario_matrix_is_thread_invariant() {
    let (single, _) = run_with_threads(1);
    let (multi, _) = run_with_threads(8);
    assert_eq!(single.len(), multi.len());
    for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
        assert_eq!(a.cell, b.cell, "record {i}: cell identity differs");
        // Bitwise equality: identical (spec, seed) cells must produce
        // identical counters and float accumulators, not merely close ones.
        assert_eq!(
            a.stats, b.stats,
            "record {i}: stats differ across thread counts"
        );
        assert_eq!(
            a.stats.latency_sum.to_bits(),
            b.stats.latency_sum.to_bits(),
            "record {i}: latency accumulation differs across thread counts"
        );
    }
    // The sweep must have done real work on every family.
    assert!(
        single.iter().any(|r| r.stats.delivered > 0),
        "no family delivered anything: {single:?}"
    );
}

/// Distinct `(ScenarioSpec, WorkloadSpec)` cells with identical node count,
/// seed and horizon occupy distinct cache entries, and the whole matrix
/// shares one scenario build per cell per seed.
#[test]
fn families_occupy_distinct_cache_entries() {
    let (_, cached) = run_with_threads(4);
    // 4 scenario/workload cells x 2 seeds; the two protocol series per cell
    // must share entries, not duplicate them.
    assert_eq!(cached, 8, "expected one cache entry per (cell, seed)");

    // And head-on: same (n, seed, duration) across specs, different entries.
    let cache = ScenarioCache::new();
    let paper = cache.get_spec(
        &ScenarioSpec::paper(8),
        &WorkloadSpec::PaperUniform,
        1,
        Some(600.0),
    );
    let rwp = cache.get_spec(
        &ScenarioSpec::rwp(8),
        &WorkloadSpec::PaperUniform,
        1,
        Some(600.0),
    );
    assert_eq!(cache.len(), 2);
    assert!(!Arc::ptr_eq(&paper.scenario, &rwp.scenario));
    assert_ne!(
        paper.scenario.trace.contacts, rwp.scenario.trace.contacts,
        "different families must produce different contact processes"
    );
}

/// Probe output is part of the determinism contract: across the scenario
/// families, `TimeSeriesProbe` curves and latency histograms are bitwise
/// identical whatever the worker-thread count, and riding probes never
/// changes the `SimStats` of any cell.
#[test]
fn timeseries_probe_is_thread_invariant_across_families() {
    let probed = |threads: usize| {
        let specs: Vec<RunSpec> = family_matrix()
            .into_iter()
            .map(|s| {
                s.with_probes(vec![
                    ProbeSpec::TimeSeries { dt: 150.0 },
                    ProbeSpec::LatencyHist,
                ])
            })
            .collect();
        run_matrix_records(
            &ScenarioCache::new(),
            &specs,
            SweepConfig {
                seeds: 2,
                threads,
                verbose: false,
            },
        )
    };
    let single = probed(1);
    let multi = probed(8);
    assert_eq!(single.len(), multi.len());
    for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
        assert_eq!(a.cell, b.cell, "record {i}: cell identity differs");
        assert_eq!(a.stats, b.stats, "record {i}: stats differ across threads");
        let (ta, tb) = (
            a.timeseries.as_ref().unwrap(),
            b.timeseries.as_ref().unwrap(),
        );
        assert_eq!(
            ta.samples.len(),
            tb.samples.len(),
            "record {i}: sample counts"
        );
        for (k, (sa, sb)) in ta.samples.iter().zip(&tb.samples).enumerate() {
            assert_eq!(
                sa.t.to_bits(),
                sb.t.to_bits(),
                "record {i} sample {k}: sample time differs across thread counts"
            );
            assert_eq!(
                sa, sb,
                "record {i} sample {k}: curve differs across thread counts"
            );
        }
        let (la, lb) = (a.latency.as_ref().unwrap(), b.latency.as_ref().unwrap());
        assert_eq!(
            la.p50.to_bits(),
            lb.p50.to_bits(),
            "record {i}: p50 differs"
        );
        assert_eq!(la, lb, "record {i}: latency histogram differs");
    }

    // And the probes are invisible to the stats: the plain matrix over the
    // same specs produces identical snapshots.
    let plain = run_matrix_records(
        &ScenarioCache::new(),
        &family_matrix(),
        SweepConfig {
            seeds: 2,
            threads: 4,
            verbose: false,
        },
    );
    for (i, (p, o)) in plain.iter().zip(&single).enumerate() {
        assert_eq!(
            p.stats, o.stats,
            "record {i}: attaching probes changed the simulation statistics"
        );
        assert!(p.timeseries.is_none() && p.latency.is_none());
    }
}

/// `dtnrun --scenario rwp --protocol eer` end-to-end equivalent at the
/// library layer: an RWP spec resolves, runs and delivers through the same
/// runner path the binary uses.
#[test]
fn rwp_runs_end_to_end() {
    let cache = ScenarioCache::new();
    let spec = RunSpec::on(
        "EER",
        ScenarioSpec::rwp(16),
        ProtocolSpec::paper(ProtocolKind::Eer),
    )
    .with_duration(1_500.0);
    let stats = dtn_bench::run_cell(&cache, &spec, 1).unwrap().output.stats;
    assert!(stats.created > 0, "workload generated no messages");
    assert!(
        stats.relayed > 0 || stats.delivered > 0,
        "EER on RWP did no forwarding at all"
    );
}
