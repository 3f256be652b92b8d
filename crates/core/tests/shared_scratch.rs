//! Every MEMD solve on a thread reuses that thread's scratch, and routers
//! keep only their distance vectors. Nothing may carry over from one solve
//! to the next: an EER cell run again on the same thread, after a CR cell
//! of another size has used the scratch, must reproduce its first run bit
//! for bit.

use ce_core::{cr_factory, CommunityMap, Eer};
use dtn_mobility::scenario::ScenarioConfig;
use dtn_sim::{SimConfig, SimStats, Simulation, TrafficConfig};
use std::sync::Arc;

fn eer_cell(n: u32, duration: f64, seed: u64) -> SimStats {
    let scenario = ScenarioConfig::paper(n).sized(duration).build(seed);
    let workload = TrafficConfig::paper(duration).generate(n, seed);
    Simulation::new(
        &scenario.trace,
        workload,
        SimConfig::paper(seed),
        |id, nn| Box::new(Eer::new(id, nn, 10)),
    )
    .run()
}

fn cr_cell(n: u32, duration: f64, seed: u64) -> SimStats {
    let scenario = ScenarioConfig::paper(n).sized(duration).build(seed);
    let workload = TrafficConfig::paper(duration).generate(n, seed);
    let map = Arc::new(CommunityMap::new(scenario.communities.clone()));
    Simulation::new(
        &scenario.trace,
        workload,
        SimConfig::paper(seed),
        cr_factory(map, 1),
    )
    .run()
}

/// Every field, floats and delivery times by their bits.
fn assert_same(got: &SimStats, want: &SimStats) {
    let (g, w) = (got.snapshot(), want.snapshot());
    assert_eq!(
        g.latency_sum.to_bits(),
        w.latency_sum.to_bits(),
        "latency_sum"
    );
    assert_eq!(g, w, "counters");
    let bits = |s: &SimStats| -> Vec<Option<u64>> {
        s.delivered_at
            .iter()
            .map(|t| t.map(|t| t.as_secs().to_bits()))
            .collect()
    };
    assert_eq!(bits(got), bits(want), "delivery times");
}

#[test]
fn scratch_carries_nothing_between_routers_or_runs() {
    let first = eer_cell(24, 3000.0, 5);
    assert!(
        first.relayed > 0 && first.delivered > 0,
        "the cell must route something"
    );
    let cr = cr_cell(120, 2000.0, 2);
    assert!(cr.relayed > 0, "the CR cell must route something");
    let again = eer_cell(24, 3000.0, 5);
    assert_same(&again, &first);
    // A CR cell is just as unaffected by the EER cells around it.
    assert_same(&cr_cell(120, 2000.0, 2), &cr);
}
