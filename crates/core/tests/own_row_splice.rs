//! EER and CR publish their own MI row by splicing into the previous version
//! the one entry a contact can move: the mean towards the peer just met.
//! After a whole run, every node's own row must still equal the row rebuilt
//! from its history's means, bit for bit.

use ce_core::{cr_factory, CommunityMap, Cr, Eer};
use dtn_mobility::scenario::ScenarioConfig;
use dtn_sim::{NodeId, SimConfig, Simulation, TrafficConfig};
use std::any::Any;
use std::sync::Arc;

fn bits(row: impl IntoIterator<Item = (u32, f64)>) -> Vec<(u32, u64)> {
    row.into_iter().map(|(j, v)| (j, v.to_bits())).collect()
}

#[test]
fn eer_own_rows_equal_the_history_means() {
    let (n, duration, seed) = (24, 3000.0, 5);
    let scenario = ScenarioConfig::paper(n).sized(duration).build(seed);
    let workload = TrafficConfig::paper(duration).generate(n, seed);
    let mut sim = Simulation::new(
        &scenario.trace,
        workload,
        SimConfig::paper(seed),
        |id, nn| Box::new(Eer::new(id, nn, 10)),
    );
    sim.run_to_end();
    let mut entries = 0;
    for me in (0..n).map(NodeId) {
        let eer = (sim.router(me) as &dyn Any)
            .downcast_ref::<Eer>()
            .expect("every node runs EER");
        let own = eer.mi().row_entries(me);
        assert_eq!(
            bits(own.iter().copied()),
            bits(eer.history().mean_row()),
            "node {}",
            me.0
        );
        entries += own.len();
    }
    assert!(entries > n as usize, "the run must publish rows: {entries}");
}

#[test]
fn cr_own_rows_equal_the_history_means() {
    let (n, duration, seed) = (120, 2000.0, 2);
    let scenario = ScenarioConfig::paper(n).sized(duration).build(seed);
    let workload = TrafficConfig::paper(duration).generate(n, seed);
    let map = Arc::new(CommunityMap::new(scenario.communities.clone()));
    let mut sim = Simulation::new(
        &scenario.trace,
        workload,
        SimConfig::paper(seed),
        cr_factory(Arc::clone(&map), 1),
    );
    sim.run_to_end();
    let mut entries = 0;
    for me in (0..n).map(NodeId) {
        let cr = (sim.router(me) as &dyn Any)
            .downcast_ref::<Cr>()
            .expect("every node runs CR");
        let own = cr.intra_mi().row_entries(NodeId(map.position(me)));
        let rebuilt = cr
            .history()
            .mean_row()
            .filter(|&(j, _)| map.cid(NodeId(j)) == map.cid(me))
            .map(|(j, v)| (map.position(NodeId(j)), v));
        assert_eq!(bits(own.iter().copied()), bits(rebuilt), "node {}", me.0);
        entries += own.len();
    }
    assert!(entries > n as usize, "the run must publish rows: {entries}");
}
