//! The result-store memoisation contract, property-tested:
//!
//! 1. **Warm equals cold, bitwise.** A matrix swept against a fresh store
//!    (all misses) and swept again against the now-populated store (all
//!    hits) returns the same record list — same order, every field bitwise
//!    except `wall_s` (host time) and `cached` (provenance) — including
//!    probe sections, and whatever the worker count: warm sweeps at 8
//!    threads serve the records published by a sequential cold sweep,
//!    because execution knobs never enter a cell key.
//! 2. **Corruption is a miss, never a serve.** A truncated or bit-flipped
//!    entry fails admission, the cell is recomputed (bitwise equal to the
//!    cold run) and the republished entry heals the store.
//!
//! Matrices are drawn from the canonical `dtn_testutil` generators.

use dtn_bench::{
    run_matrix_records_stored, CellStore, RunRecord, RunSpec, ScenarioCache, SweepConfig,
};
use dtn_testutil::arb_spec_matrix;
use proptest::prelude::*;
use std::path::PathBuf;

/// A unique, empty store root per (test, process); the caller owns cleanup.
fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dtn_bench_store_itests")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Field-by-field bitwise comparison, `wall_s` and `cached` excepted —
/// `wall_s` measures the host and `cached` is provenance; everything else,
/// probe sections included, must be identical between a computed and a
/// served record.
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

fn sweep(
    specs: &[RunSpec],
    seeds: u32,
    threads: usize,
    store: Option<&CellStore>,
) -> Vec<RunRecord> {
    run_matrix_records_stored(
        &ScenarioCache::new(),
        specs,
        SweepConfig {
            seeds,
            threads,
            verbose: false,
        },
        store,
    )
}

proptest! {
    // Each case executes the matrix twice cold (reference + store-backed)
    // and serves it twice more; a few random matrices give wide
    // coverage at tolerable wall-clock.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn warm_matrix_is_bitwise_identical_to_cold(
        specs in arb_spec_matrix(1..4),
        seeds in 1u32..3,
    ) {
        let root = tmp_store("warm_vs_cold");
        let store = CellStore::open(&root).expect("fresh store");

        // The store-less reference, and the cold store-backed sweep that
        // populates the store. The store must be invisible to the results.
        let reference = sweep(&specs, seeds, 1, None);
        let cold = sweep(&specs, seeds, 1, Some(&store));
        assert_records_identical(&reference, &cold, "cold with store");
        prop_assert!(
            cold.iter().all(|r| !r.cached),
            "a fresh store must not serve anything"
        );

        // Warm sweeps: every cell served, bitwise identical, whatever the
        // execution shape — sequential or 8 stealing workers.
        let warm = sweep(&specs, seeds, 1, Some(&store));
        assert_records_identical(&reference, &warm, "warm sequential");
        prop_assert!(warm.iter().all(|r| r.cached), "warm run must be all hits");

        let warm8 = sweep(&specs, seeds, 8, Some(&store));
        assert_records_identical(&reference, &warm8, "warm 8 threads");
        prop_assert!(warm8.iter().all(|r| r.cached));

        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Corrupt entries — truncated or bit-flipped on disk — are rejected by
/// admission: the cells recompute (bitwise equal to the cold run), are
/// never served from the damaged bytes, and republication heals the store.
#[test]
fn corrupt_entries_are_recomputed_never_served() {
    let root = tmp_store("corruption");
    let store = CellStore::open(&root).expect("fresh store");
    let specs = vec![
        dtn_testutil::run_spec_cell(0, 10, 400.0, 0, 0, 2),
        dtn_testutil::run_spec_cell(1, 9, 350.0, 1, 1, 3),
    ];
    let cold = sweep(&specs, 2, 1, Some(&store));
    assert_eq!(cold.len(), 4);

    // Damage two entries in distinct ways: truncate seed 1 of the first
    // cell mid-document, flip a digit in seed 2 of the second cell so a
    // stats counter no longer matches its probe sections.
    let truncated = store.entry_path(&specs[0].cell_key(1).encoded());
    let text = std::fs::read_to_string(&truncated).expect("entry exists");
    std::fs::write(&truncated, &text[..text.len() / 2]).expect("truncate");

    let flipped = store.entry_path(&specs[1].cell_key(2).encoded());
    let text = std::fs::read_to_string(&flipped).expect("entry exists");
    let delivered = cold[3].stats.delivered;
    let needle = format!("\"delivered\": {delivered}");
    assert!(text.contains(&needle), "fixture must expose the counter");
    std::fs::write(
        &flipped,
        text.replace(&needle, &format!("\"delivered\": {}", delivered + 1)),
    )
    .expect("bit flip");

    assert_eq!(
        store.verify().len(),
        2,
        "both damaged entries must fail verify"
    );
    assert!(
        store.serve(&specs[0].cell_key(1).encoded(), 1).is_none(),
        "a truncated entry must never be served"
    );
    assert!(
        store.serve(&specs[1].cell_key(2).encoded(), 2).is_none(),
        "a flipped entry must never be served"
    );

    // The warm sweep treats the damaged cells as misses and recomputes
    // them; the intact cells are served. Results stay bitwise cold.
    let warm = sweep(&specs, 2, 1, Some(&store));
    assert_records_identical(&cold, &warm, "warm after corruption");
    let cached: Vec<bool> = warm.iter().map(|r| r.cached).collect();
    assert_eq!(
        cached,
        vec![false, true, true, false],
        "exactly the damaged cells recompute"
    );

    // Republication healed the store: everything verifies and serves now.
    assert!(
        store.verify().is_empty(),
        "recomputation must heal the store"
    );
    let healed = sweep(&specs, 2, 1, Some(&store));
    assert_records_identical(&cold, &healed, "healed store");
    assert!(healed.iter().all(|r| r.cached));

    let _ = std::fs::remove_dir_all(&root);
}
