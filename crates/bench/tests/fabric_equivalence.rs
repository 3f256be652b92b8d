//! The sweep-fabric determinism contract, property-tested: stealing is
//! invisible. `run_matrix_records` over the work-stealing fabric at 2/4/8
//! workers returns the *same record list* — same order, every field bitwise
//! except `wall_s` — as a sequential 1-thread fold of the same matrix.
//!
//! Matrices are drawn from the canonical `dtn_testutil` generators
//! (scenario family × protocol × workload × probe set), crossed with seed
//! counts and thread counts.

use dtn_bench::{run_matrix_records, RunRecord, RunSpec, ScenarioCache, SweepConfig};
use dtn_testutil::arb_spec_matrix;
use proptest::prelude::*;

/// Field-by-field bitwise comparison of two record lists, `wall_s`
/// excepted (it measures the host, not the network). `artifact` is also
/// compared — these matrices never attach an eventlog probe, so it must be
/// `None` on both sides.
fn assert_records_identical(reference: &[RunRecord], got: &[RunRecord], ctx: &str) {
    assert_eq!(reference.len(), got.len(), "{ctx}: record count");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(a.series, b.series, "{ctx}: record {i} series");
        assert_eq!(a.scenario, b.scenario, "{ctx}: record {i} scenario");
        assert_eq!(a.workload, b.workload, "{ctx}: record {i} workload");
        assert_eq!(a.protocol, b.protocol, "{ctx}: record {i} protocol");
        assert_eq!(a.seed, b.seed, "{ctx}: record {i} seed");
        assert_eq!(a.n_nodes, b.n_nodes, "{ctx}: record {i} n_nodes");
        assert_eq!(
            a.duration.to_bits(),
            b.duration.to_bits(),
            "{ctx}: record {i} duration"
        );
        assert_eq!(a.cell, b.cell, "{ctx}: record {i} cell identity");
        assert_eq!(a.group, b.group, "{ctx}: record {i} group identity");
        // StatsSnapshot's PartialEq covers every counter and float
        // accumulator; the latency_sum bit-check pins exact accumulation
        // order on top.
        assert_eq!(a.stats, b.stats, "{ctx}: record {i} stats");
        assert_eq!(
            a.stats.latency_sum.to_bits(),
            b.stats.latency_sum.to_bits(),
            "{ctx}: record {i} latency accumulation order"
        );
        assert_eq!(a.timeseries, b.timeseries, "{ctx}: record {i} timeseries");
        assert_eq!(a.latency, b.latency, "{ctx}: record {i} latency histogram");
        assert_eq!(a.artifact, b.artifact, "{ctx}: record {i} artifact");
    }
}

fn sweep(specs: &[RunSpec], seeds: u32, threads: usize) -> Vec<RunRecord> {
    run_matrix_records(
        &ScenarioCache::new(),
        specs,
        SweepConfig {
            seeds,
            threads,
            verbose: false,
        },
    )
}

proptest! {
    // Each case executes the matrix four times (1/2/4/8 threads); a
    // handful of random matrices gives wide coverage at tolerable
    // wall-clock.
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn fabric_is_bitwise_invisible(
        specs in arb_spec_matrix(1..4),
        seeds in 1u32..3,
    ) {
        // The reference: a 1-thread sweep, which the fabric short-circuits
        // to a plain sequential fold on the calling thread.
        let reference = sweep(&specs, seeds, 1);
        prop_assert_eq!(reference.len(), specs.len() * seeds as usize);

        // Records come back flat in (spec, seed) order whatever ran where.
        for (i, r) in reference.iter().enumerate() {
            let spec = &specs[i / seeds as usize];
            prop_assert_eq!(&r.series, &spec.series);
            prop_assert_eq!(r.seed, (i % seeds as usize) as u64 + 1);
        }

        // Work stealing at every thread count reproduces the fold.
        for threads in [2usize, 4, 8] {
            let got = sweep(&specs, seeds, threads);
            assert_records_identical(&reference, &got, &format!("{threads} threads"));
        }
    }
}
