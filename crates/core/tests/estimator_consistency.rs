//! Cross-checks between the cached/fast paths used inside the routers and
//! the plain estimator definitions — the refresh caches and the EEV horizon
//! quantisation described in the "Implementation notes" of
//! `crates/core/src/eer.rs` must degrade gracefully, not change semantics.

use ce_core::memd::{emd_entries, solve_into};
use ce_core::{Eer, EerConfig, MiMatrix};
use dtn_mobility::scenario::ScenarioConfig;
use dtn_sim::{NodeId, SimConfig, SimTime, Simulation, TrafficConfig};
use std::any::Any;

/// With `refresh = 0`, the EEV/MEMD caches are disabled; the protocol's
/// outcome must match a small-refresh run closely and an aggressive-refresh
/// run approximately (staleness only shifts marginal decisions).
#[test]
fn refresh_caching_degrades_gracefully() {
    let n = 24;
    let duration = 3000.0;
    let scenario = ScenarioConfig::paper(n).sized(duration).build(5);
    let workload = TrafficConfig::paper(duration).generate(n, 5);

    let run = |refresh: f64| {
        let cfg = EerConfig {
            refresh,
            ..EerConfig::default()
        };
        Simulation::new(
            &scenario.trace,
            workload.clone(),
            SimConfig::paper(5),
            move |id, nn| Box::new(Eer::with_config(id, nn, cfg)),
        )
        .run()
    };
    let exact = run(0.0);
    let cached = run(45.0);
    let stale = run(300.0);

    let dr = |s: &dtn_sim::SimStats| s.delivery_ratio();
    assert!(
        (dr(&exact) - dr(&cached)).abs() < 0.12,
        "default caching changed delivery too much: {} vs {}",
        dr(&exact),
        dr(&cached)
    );
    assert!(
        (dr(&exact) - dr(&stale)).abs() < 0.2,
        "even aggressive staleness must stay in the same band: {} vs {}",
        dr(&exact),
        dr(&stale)
    );
}

/// The quantised-τ EEV used by the router equals the exact estimator
/// evaluated at the quantised horizon (quantisation is the *only*
/// difference).
#[test]
fn router_eev_matches_estimator() {
    let mut contacts = vec![];
    for k in 0..10 {
        let t = 40.0 * f64::from(k) + 5.0;
        contacts.push(dtn_sim::Contact::new(0, 1, t, t + 2.0));
        contacts.push(dtn_sim::Contact::new(0, 2, t + 11.0, t + 13.0));
    }
    let trace = dtn_sim::ContactTrace::new(4, 1000.0, contacts);
    let mut sim = Simulation::new(&trace, vec![], SimConfig::paper(0), |id, n| {
        Box::new(Eer::new(id, n, 10))
    });
    sim.run_to_end();
    let r0 = (sim.router(NodeId(0)) as &dyn Any)
        .downcast_ref::<Eer>()
        .unwrap();
    let now = SimTime::secs(400.0);
    for tau in [30.0, 60.0, 120.0, 336.0] {
        let public = r0.eev(now, tau);
        let direct = r0.history().eev(now, tau);
        assert_eq!(public, direct);
        assert!((0.0..=3.0).contains(&public));
    }
}

/// MEMD through the MI is consistent with hand-computed two-hop paths after
/// a simulated gossip chain.
#[test]
fn memd_consistent_after_gossip_chain() {
    // 0 meets 1 every 100 s; 1 meets 2 every 60 s; 0 never meets 2.
    let mut contacts = vec![];
    for k in 0..8 {
        let t = 100.0 * f64::from(k) + 10.0;
        contacts.push(dtn_sim::Contact::new(0, 1, t, t + 2.0));
    }
    for k in 0..12 {
        let t = 60.0 * f64::from(k) + 40.0;
        contacts.push(dtn_sim::Contact::new(1, 2, t, t + 2.0));
    }
    let trace = dtn_sim::ContactTrace::new(3, 1000.0, contacts);
    let mut sim = Simulation::new(&trace, vec![], SimConfig::paper(0), |id, n| {
        Box::new(Eer::new(id, n, 10))
    });
    sim.run_to_end();
    let r0 = (sim.router(NodeId(0)) as &dyn Any)
        .downcast_ref::<Eer>()
        .unwrap();
    // Node 0's MI must know both rows by now.
    let i01 = r0.mi().get(NodeId(0), NodeId(1));
    let i12 = r0.mi().get(NodeId(1), NodeId(2));
    assert!((i01 - 100.0).abs() < 5.0, "I(0,1) ≈ 100, got {i01}");
    assert!((i12 - 60.0).abs() < 5.0, "I(1,2) ≈ 60, got {i12}");
    // MEMD(0→2) computed now must be ≤ EMD(0→1) + I(1,2) and > 0.
    let now = SimTime::secs(750.0);
    let mut d = Vec::new();
    let own_row = emd_entries(r0.history(), now);
    solve_into(&mut d, r0.history().me(), r0.mi(), own_row, None);
    let emd01 = r0
        .history()
        .pair(NodeId(1))
        .expected_meeting_delay(now)
        .expect("0 and 1 have admissible history at 750");
    assert!(d[2] > 0.0 && d[2].is_finite());
    assert!(
        (d[2] - (emd01 + i12)).abs() < 1e-9,
        "two-hop path composition"
    );
}

/// A fresh MiMatrix has no influence on MEMD: everything unreachable.
#[test]
fn memd_on_empty_matrix_is_unreachable() {
    let mi = MiMatrix::new(5);
    let row: Vec<(u32, f64)> = (0..5).map(|j| (j, mi.get(NodeId(0), NodeId(j)))).collect();
    let mut d = Vec::new();
    solve_into(&mut d, NodeId(0), &mi, row, None);
    assert_eq!(d[0], 0.0);
    for dv in &d[1..5] {
        assert!(dv.is_infinite());
    }
}
