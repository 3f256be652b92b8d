//! Sweep determinism: the worker-thread count is a pure throughput knob and
//! must never change simulation results. The runner keys results by
//! `(spec, seed)` instead of racing them, so `threads = 1` and `threads = 8`
//! must produce bit-identical [`RunRecord`] statistics for the same matrix.

use dtn_bench::{
    run_matrix_records, ProtocolKind, ProtocolSpec, RunRecord, RunSpec, ScenarioCache, SweepConfig,
};

/// A small but non-trivial matrix: four protocol families (including CR,
/// which resolves a community map per scenario) over two node counts, on a
/// shortened horizon to keep the test quick.
fn matrix() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, proto) in [
        ("Epidemic", ProtocolSpec::paper(ProtocolKind::Epidemic)),
        (
            "SprayAndWait",
            ProtocolSpec::paper(ProtocolKind::SprayAndWait).with_lambda(4),
        ),
        ("EER", ProtocolSpec::paper(ProtocolKind::Eer).with_lambda(6)),
        ("CR", ProtocolSpec::paper(ProtocolKind::Cr).with_lambda(6)),
    ] {
        for n in [8u32, 12] {
            specs.push(RunSpec::new(label, n, proto.clone()).with_duration(1_500.0));
        }
    }
    specs
}

fn run_with_threads(threads: usize) -> Vec<RunRecord> {
    run_matrix_records(
        &ScenarioCache::new(),
        &matrix(),
        SweepConfig {
            seeds: 2,
            threads,
            verbose: false,
        },
    )
}

#[test]
fn thread_count_does_not_change_results() {
    let single = run_with_threads(1);
    let multi = run_with_threads(8);
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
}
