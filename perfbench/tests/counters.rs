//! The deterministic work counters of a traced pass repeat exactly: across
//! two runs, and across one and two sweep workers. These are the
//! machine-independent numbers a CI job can gate on.

use dtn_bench::ProtocolKind;
use perfbench::layers::layer_metrics;
use perfbench::trace::Tracer;
use perfbench::{Pass, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

const EXACT: [&str; 9] = [
    "mobility.contact_events",
    "sim.events",
    "sim.relayed",
    "sim.aborted",
    "core.contact_up_calls",
    "routing.pick_transfer_calls",
    "core.control_mb",
    "scenario.builds",
    "store.serves",
];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Each cell's digest; a cell computed more than once (sweep cycles) must
/// give the same digest every time.
fn digests(pass: &Pass) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for c in &pass.cells {
        let d = c.digest.clone().expect("cell succeeded");
        assert_eq!(
            *out.entry(c.key.clone()).or_insert(d),
            d,
            "{} repeats differently",
            c.key
        );
    }
    out
}

/// One untraced and one traced pass; returns the exact counters after
/// checking that both passes produced the same outputs and served every
/// cell warm.
fn counters(w: &Workload, seed: u64, dir: &std::path::Path) -> BTreeMap<&'static str, f64> {
    let untraced = w.run_untraced(seed, dir);
    let tr = Tracer::new();
    let traced = w.run_traced(seed, dir, &tr);
    assert_eq!(digests(&untraced), digests(&traced), "traced pass differs");
    for c in untraced.warm.iter().chain(&traced.warm) {
        assert!(
            c.digest.is_ok(),
            "warm cell {} failed: {:?}",
            c.key,
            c.digest
        );
    }
    let m = layer_metrics(&tr, &traced);
    EXACT.iter().map(|&k| (k, m[k])).collect()
}

#[test]
fn sweep_counters_repeat_across_runs_and_worker_counts() {
    let dir = temp_dir("sweep");
    let sweep =
        |workers| Workload::baseline_sweep(&[10, 14], 2, Some(1500.0), &ProtocolKind::ALL, workers);
    let one = counters(&sweep(1), 1, &dir);
    let again = counters(&sweep(1), 1, &dir);
    let two = counters(&sweep(2), 1, &dir);
    assert_eq!(one, again, "counters differ between two runs");
    assert_eq!(one, two, "counters differ between 1 and 2 workers");
    assert!(one["core.contact_up_calls"] > 0.0 && one["routing.pick_transfer_calls"] > 0.0);
    assert_eq!(
        one["scenario.builds"], 4.0,
        "2 node counts x 2 seeds, each built once"
    );
    assert_eq!(
        one["store.serves"], 40.0,
        "10 families x 2 node counts x 2 seeds"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_cell_counters_repeat_across_runs() {
    let dir = temp_dir("cells");
    for w in [
        || Workload::paper_protocols(24, 1200.0),
        || Workload::city_stream(40, 900.0),
    ] {
        let a = counters(&w(), 2, &dir);
        let b = counters(&w(), 2, &dir);
        assert_eq!(a, b, "counters differ between two runs");
        assert!(a["mobility.contact_events"] > 0.0 && a["sim.events"] > 0.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
