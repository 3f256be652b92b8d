//! Property-based tests of the paper's estimators (Theorems 1, 2 and 4) and
//! the MI gossip.

use ce_core::memd::solve_into;
use ce_core::{CommunityMap, ContactHistory, MiMatrix, PairHistory};
use dtn_sim::{NodeId, SimTime};
use proptest::prelude::*;

/// Builds a pair history from positive inter-meeting gaps.
fn history_from_gaps(gaps: &[f64], window: usize) -> (PairHistory, f64) {
    let mut h = PairHistory::new(window);
    let mut t = 0.0;
    h.record_meeting(SimTime::secs(t));
    for g in gaps {
        t += g;
        h.record_meeting(SimTime::secs(t));
    }
    (h, t)
}

proptest! {
    /// Eq. 4 probabilities are valid probabilities, monotone in the horizon
    /// τ, and consistent with the admissible counts.
    #[test]
    fn meet_probability_is_monotone_probability(
        gaps in proptest::collection::vec(0.5f64..500.0, 1..40),
        elapsed in 0.0f64..600.0,
        tau_a in 0.0f64..700.0,
        extra in 0.0f64..700.0,
    ) {
        let (h, last) = history_from_gaps(&gaps, 16);
        let now = SimTime::secs(last + elapsed);
        let p_a = h.meet_probability(now, tau_a);
        let p_b = h.meet_probability(now, tau_a + extra);
        prop_assert!((0.0..=1.0).contains(&p_a));
        prop_assert!((0.0..=1.0).contains(&p_b));
        prop_assert!(p_b >= p_a - 1e-12, "probability must grow with τ");
        let (m, mt) = h.admissible_counts(now, tau_a);
        prop_assert!(mt <= m);
        if m > 0 {
            prop_assert!((p_a - mt as f64 / m as f64).abs() < 1e-12);
        } else {
            prop_assert_eq!(p_a, 0.0);
        }
    }

    /// Theorem 2: the EMD is non-negative... more precisely, EMD + elapsed
    /// equals the conditional mean of admissible intervals, which exceeds
    /// the elapsed time by construction.
    #[test]
    fn emd_is_conditional_mean_minus_elapsed(
        gaps in proptest::collection::vec(0.5f64..500.0, 1..40),
        elapsed in 0.0f64..600.0,
    ) {
        let (h, last) = history_from_gaps(&gaps, 16);
        let now = SimTime::secs(last + elapsed);
        match h.expected_meeting_delay(now) {
            Some(emd) => {
                prop_assert!(emd >= -1e-9, "EMD must be non-negative, got {emd}");
                // Conditional mean computed directly from the window.
                let adm: Vec<f64> = h.intervals().iter().copied().filter(|&x| x > elapsed).collect();
                prop_assert!(!adm.is_empty());
                let mean = adm.iter().sum::<f64>() / adm.len() as f64;
                prop_assert!((emd - (mean - elapsed)).abs() < 1e-9);
            }
            None => {
                // Only when nothing is admissible.
                prop_assert!(h.intervals().iter().all(|&x| x <= elapsed));
            }
        }
    }

    /// The sliding window never exceeds its size and keeps the most recent
    /// intervals.
    #[test]
    fn window_bounds_history(
        gaps in proptest::collection::vec(0.5f64..500.0, 1..60),
        window in 1usize..12,
    ) {
        let (h, _) = history_from_gaps(&gaps, window);
        prop_assert!(h.len() <= window);
        prop_assert_eq!(h.len(), gaps.len().min(window));
        // Sorted invariant.
        let iv = h.intervals();
        prop_assert!(iv.windows(2).all(|w| w[0] <= w[1]));
        // The retained multiset is exactly the most recent `window` gaps.
        let mut expect: Vec<f64> = gaps[gaps.len().saturating_sub(window)..].to_vec();
        expect.sort_by(f64::total_cmp);
        for (a, b) in iv.iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Theorem 1: EEV is the sum of the per-pair probabilities, so it is
    /// bounded by the number of peers and additive over community subsets.
    #[test]
    fn eev_is_additive_and_bounded(
        schedule in proptest::collection::vec(
            (1u32..8, proptest::collection::vec(0.5f64..300.0, 1..12)),
            1..8
        ),
        tau in 1.0f64..500.0,
    ) {
        let n = 8;
        let mut h = ContactHistory::new(NodeId(0), n, 16);
        for (peer, gaps) in &schedule {
            let mut t = f64::from(*peer); // desynchronise
            h.record_meeting(NodeId(*peer), SimTime::secs(t));
            for g in gaps {
                t += g;
                h.record_meeting(NodeId(*peer), SimTime::secs(t));
            }
        }
        let now = SimTime::secs(2_000.0);
        let eev = h.eev(now, tau);
        prop_assert!(eev >= 0.0 && eev <= f64::from(n - 1) + 1e-9);
        // Partition {1..3} / {4..7} must sum to the total.
        let left: Vec<NodeId> = (1..4).map(NodeId).collect();
        let right: Vec<NodeId> = (4..8).map(NodeId).collect();
        let sum = h.eev_over(now, tau, &left) + h.eev_over(now, tau, &right);
        prop_assert!((sum - eev).abs() < 1e-9);

        // Theorem 4: ENEC of singleton foreign communities equals EEV of
        // those nodes (product collapses), and is bounded by l - 1.
        let map = CommunityMap::new(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let enec = map.enec(&h, now, tau);
        prop_assert!((enec - eev).abs() < 1e-9, "singleton communities: ENEC == EEV");
        let map2 = CommunityMap::new(vec![0, 1, 1, 1, 2, 2, 2, 2]);
        let enec2 = map2.enec(&h, now, tau);
        prop_assert!(enec2 <= 2.0 + 1e-9);
        prop_assert!(enec2 <= eev + 1e-9, "union bound");
    }

    /// MI gossip: merging is idempotent and commutative in its fixed point —
    /// after both sides sync twice, the matrices agree.
    #[test]
    fn mi_merge_converges(rows in proptest::collection::vec((0u32..6, 0.0f64..100.0, 1.0f64..1e4), 0..24)) {
        let n = 6;
        let mut a = MiMatrix::new(n);
        let mut b = MiMatrix::new(n);
        for (chunk, (row, time, val)) in rows.iter().enumerate() {
            let target = if chunk % 2 == 0 { &mut a } else { &mut b };
            let mut values = vec![f64::INFINITY; n as usize];
            for (j, v) in values.iter_mut().enumerate() {
                if j as u32 != *row {
                    *v = val + j as f64;
                }
            }
            // Strictly increasing stamps so no two writes tie (ties with
            // different data are unresolvable for any gossip and cannot
            // occur in the protocol, where each row has one writer).
            target.set_row(NodeId(*row), (0..n).zip(values), *time + chunk as f64 * 2000.0);
        }
        a.merge_from(&b);
        b.merge_from(&a);
        let copied_second_round = a.merge_from(&b);
        prop_assert_eq!(copied_second_round, 0, "a must already be a fixed point");
        prop_assert!(a.same_data(&b));
    }

    /// MEMD never increases when an extra finite edge is added to the MI
    /// (shortest paths are monotone under edge addition).
    #[test]
    fn memd_monotone_under_edge_addition(
        base in proptest::collection::vec((0u32..6, 1u32..6, 1.0f64..1000.0), 1..12),
        extra in (0u32..6, 1u32..6, 1.0f64..1000.0),
    ) {
        let n = 6;
        let build = |edges: &[(u32, u32, f64)]| {
            let mut mi = MiMatrix::new(n);
            for &(i, j, w) in edges {
                if i == j { continue; }
                // Keep the cheaper weight when an edge repeats, so appending
                // an entry can only *add* capability (the property needs a
                // genuine edge addition, not an overwrite).
                if w < mi.get(NodeId(i), NodeId(j)) {
                    mi.set_entry(NodeId(i), NodeId(j), w, 1.0);
                    mi.set_entry(NodeId(j), NodeId(i), w, 1.0);
                }
            }
            mi
        };
        let mi1 = build(&base);
        let mut with_extra = base.clone();
        with_extra.push(extra);
        let mi2 = build(&with_extra);
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        let row1: Vec<(u32, f64)> = (0..n).map(|j| (j, mi1.get(NodeId(0), NodeId(j)))).collect();
        solve_into(&mut d1, NodeId(0), &mi1, row1, None);
        let row2: Vec<(u32, f64)> = (0..n).map(|j| (j, mi2.get(NodeId(0), NodeId(j)))).collect();
        solve_into(&mut d2, NodeId(0), &mi2, row2, None);
        for v in 0..n as usize {
            prop_assert!(d2[v] <= d1[v] + 1e-9, "adding an edge increased MEMD to {v}");
        }
    }
}
