//! Sliding-window contact histories and the paper's estimators
//! (Theorems 1 and 2, and the pair-probability of Eq. 4).
//!
//! Each node records, for every peer it has met, the last meeting time and a
//! sliding window of past meeting intervals `R_ij = {Δt_1, ..., Δt_r}`.
//! All of the paper's quantities are empirical conditional statistics over
//! that multiset, conditioned on the elapsed time `e = t − t0` since the
//! last contact:
//!
//! * `M_ij  = {Δt ∈ R_ij : Δt > e}` — intervals still admissible;
//! * `Mτ_ij = {Δt ∈ M_ij : Δt ≤ e + τ}` — admissible and within the window;
//! * meeting probability within `(t, t+τ]` = `mτ/m` (Eq. 4);
//! * `EMD(t) = mean(M_ij) − e` (Theorem 2);
//! * `EEV(t, τ) = Σ_j mτ_ij / m_ij` (Theorem 1).
//!
//! The interval window is kept sorted, so the counts `m` and `mτ` are two
//! binary searches — O(log W) — which matters because EER evaluates EEVs per
//! message per contact. The sums behind `EMD` and `I_ij` walk the sorted
//! window (W ≤ 32 by default): `EMD` once per peer per own-row build, `I_ij`
//! once per contact, for the one entry an own `MI` row republishes.

use dtn_sim::{NodeId, SimTime};

/// Default sliding-window length (recorded intervals per pair).
pub const DEFAULT_WINDOW: usize = 32;

/// Contact history between this node and one particular peer.
///
/// A 32-byte record with one allocation: `samples` holds the recorded
/// intervals twice, sorted ascending in its first half and in arrival order
/// in its second, a ring whose oldest entry is at `head`. It grows by one
/// interval per meeting until the window is full; from then on each meeting
/// replaces the oldest interval in place. Sums over the sorted half run left
/// to right from `0.0`, the order a prefix-sum array accumulates them in.
#[derive(Clone, Debug)]
pub struct PairHistory {
    /// Time of the last recorded meeting in seconds; `-∞` = never met.
    last_meet: f64,
    /// `[sorted | arrival ring]`, [`PairHistory::len`] intervals each.
    samples: Box<[f64]>,
    /// Most intervals kept.
    window: u32,
    /// Ring position of the oldest interval (0 until the window is full).
    head: u32,
}

impl PairHistory {
    /// Creates an empty history with the given window size.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        PairHistory {
            last_meet: f64::NEG_INFINITY,
            samples: Box::default(),
            window: u32::try_from(window).expect("window fits in u32"),
            head: 0,
        }
    }

    /// Records a meeting at `now`. The first meeting only sets the anchor;
    /// subsequent meetings append the interval since the previous one.
    pub fn record_meeting(&mut self, now: SimTime) {
        if let Some(prev) = self.last_meet() {
            let dt = now.since(prev);
            if dt > 0.0 {
                self.push_interval(dt);
            }
        }
        self.last_meet = now.as_secs();
    }

    /// Adds `dt` to the window, evicting the oldest interval when it is full.
    fn push_interval(&mut self, dt: f64) {
        let len = self.len();
        if len < self.window as usize {
            let (sorted, ring) = self.samples.split_at(len);
            let pos = sorted.partition_point(|&x| x < dt);
            let mut grown = Vec::with_capacity(2 * (len + 1));
            grown.extend_from_slice(&sorted[..pos]);
            grown.push(dt);
            grown.extend_from_slice(&sorted[pos..]);
            grown.extend_from_slice(ring);
            grown.push(dt);
            self.samples = grown.into_boxed_slice();
        } else {
            let (sorted, ring) = self.samples.split_at_mut(len);
            let head = self.head as usize;
            let evicted = std::mem::replace(&mut ring[head], dt);
            self.head = ((head + 1) % len) as u32;
            let pos = sorted
                .binary_search_by(|x| x.total_cmp(&evicted))
                .expect("evicted value present");
            sorted[pos..].rotate_left(1);
            let pos = sorted[..len - 1].partition_point(|&x| x < dt);
            sorted[pos..].rotate_right(1);
            sorted[pos] = dt;
        }
    }

    /// `(Σ sorted[..lo], Σ sorted)`, each summed left to right from `0.0`.
    fn sums(&self, lo: usize) -> (f64, f64) {
        let sorted = self.intervals();
        let below = sorted[..lo].iter().fold(0.0, |acc, &x| acc + x);
        let total = sorted[lo..].iter().fold(below, |acc, &x| acc + x);
        (below, total)
    }

    /// Number of recorded intervals `r_ij`.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len() / 2
    }

    /// Whether no interval has been recorded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Last meeting time `t0`, if the pair ever met.
    #[inline]
    pub fn last_meet(&self) -> Option<SimTime> {
        (self.last_meet > f64::NEG_INFINITY).then(|| SimTime::secs(self.last_meet))
    }

    /// Elapsed time since the last meeting, `t − t0` (`None` if never met).
    #[inline]
    pub fn elapsed(&self, now: SimTime) -> Option<f64> {
        self.last_meet().map(|t0| now.since(t0))
    }

    /// Unconditional mean interval `I_ij = (1/r) Σ Δt_k`, the MI entry.
    pub fn mean_interval(&self) -> Option<f64> {
        let len = self.len();
        (len > 0).then(|| self.sums(len).1 / len as f64)
    }

    /// `(m, mτ)` of Theorem 1 at time `now` for horizon `τ`.
    pub fn admissible_counts(&self, now: SimTime, tau: f64) -> (usize, usize) {
        let Some(e) = self.elapsed(now) else {
            return (0, 0);
        };
        let sorted = self.intervals();
        let lo = sorted.partition_point(|&x| x <= e);
        let hi = sorted.partition_point(|&x| x <= e + tau);
        (sorted.len() - lo, hi - lo)
    }

    /// Eq. 4: probability of meeting this peer within `(now, now+τ]`,
    /// `mτ/m`; 0 when no admissible interval remains (or never met).
    pub fn meet_probability(&self, now: SimTime, tau: f64) -> f64 {
        let (m, mt) = self.admissible_counts(now, tau);
        if m == 0 {
            0.0
        } else {
            mt as f64 / m as f64
        }
    }

    /// Theorem 2: expected meeting delay
    /// `EMD(t) = mean{Δt ∈ R : Δt > e} − e`.
    ///
    /// Returns `None` when the conditional set is empty (never met, or the
    /// pair is "overdue": elapsed exceeds every recorded interval).
    pub fn expected_meeting_delay(&self, now: SimTime) -> Option<f64> {
        let e = self.elapsed(now)?;
        let lo = self.intervals().partition_point(|&x| x <= e);
        let m = self.len() - lo;
        if m == 0 {
            return None;
        }
        let (below, total) = self.sums(lo);
        Some((total - below) / m as f64 - e)
    }

    /// The recorded intervals, ascending.
    pub fn intervals(&self) -> &[f64] {
        &self.samples[..self.len()]
    }
}

/// The contact history of one node towards the `n` peers of the network,
/// stored for the peers it has met only.
#[derive(Clone, Debug)]
pub struct ContactHistory {
    me: NodeId,
    n: usize,
    /// Ids of the met peers, ascending; parallel to `pairs`.
    peers: Vec<NodeId>,
    pairs: Vec<PairHistory>,
    /// The history every peer not met yet shares: empty, window-sized.
    unmet: PairHistory,
}

impl ContactHistory {
    /// Creates an empty history for node `me` in a network of `n` nodes.
    pub fn new(me: NodeId, n: u32, window: usize) -> Self {
        ContactHistory {
            me,
            n: n as usize,
            peers: Vec::new(),
            pairs: Vec::new(),
            unmet: PairHistory::new(window),
        }
    }

    /// This node's id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the network.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Records a meeting with `peer` at `now`.
    pub fn record_meeting(&mut self, peer: NodeId, now: SimTime) {
        debug_assert!(peer != self.me);
        assert!(peer.idx() < self.n, "peer {} outside the network", peer.0);
        let k = match self.peers.binary_search(&peer) {
            Ok(k) => k,
            Err(k) => {
                self.peers.insert(k, peer);
                self.pairs.insert(k, self.unmet.clone());
                k
            }
        };
        self.pairs[k].record_meeting(now);
    }

    /// The pair history towards `peer` (empty if never met).
    #[inline]
    pub fn pair(&self, peer: NodeId) -> &PairHistory {
        match self.peers.binary_search(&peer) {
            Ok(k) => &self.pairs[k],
            Err(_) => &self.unmet,
        }
    }

    /// The met peers and their histories, ascending by peer id.
    pub fn met(&self) -> impl Iterator<Item = (NodeId, &PairHistory)> + '_ {
        self.peers.iter().copied().zip(&self.pairs)
    }

    /// This node's MI row: the mean interval `I_ij` towards every met peer
    /// with a recorded interval, ascending by peer id.
    pub fn mean_row(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.met()
            .filter_map(|(j, p)| p.mean_interval().map(|mean| (j.0, mean)))
    }

    /// Theorem 1: expected encounter value
    /// `EEV(t, τ) = Σ_{j ≠ me} mτ_ij / m_ij`.
    ///
    /// A peer never met contributes an exact `+0.0`, so the sum runs over the
    /// met peers only, in ascending id order.
    pub fn eev(&self, now: SimTime, tau: f64) -> f64 {
        let mut sum = 0.0;
        for (j, p) in self.met() {
            if j == self.me {
                continue;
            }
            sum += p.meet_probability(now, tau);
        }
        sum
    }

    /// Restricted EEV over the peers in `subset` (the intra-community
    /// `EEV'` of §IV): `Σ_{j ∈ subset, j ≠ me} mτ/m`.
    pub fn eev_over(&self, now: SimTime, tau: f64, subset: &[NodeId]) -> f64 {
        subset
            .iter()
            .filter(|j| **j != self.me)
            .map(|j| self.pair(*j).meet_probability(now, tau))
            .sum()
    }

    /// Probability of meeting at least one member of `community` within
    /// `(now, now+τ]`: `P_ic = 1 − Π_{j ∈ C} (1 − p_ij)` (Theorem 4's inner
    /// term).
    pub fn community_meet_probability(&self, now: SimTime, tau: f64, community: &[NodeId]) -> f64 {
        let mut miss = 1.0;
        for j in community {
            if *j == self.me {
                continue;
            }
            miss *= 1.0 - self.pair(*j).meet_probability(now, tau);
        }
        1.0 - miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meet_at(h: &mut PairHistory, times: &[f64]) {
        for &t in times {
            h.record_meeting(SimTime::secs(t));
        }
    }

    #[test]
    fn first_meeting_records_no_interval() {
        let mut h = PairHistory::new(8);
        h.record_meeting(SimTime::secs(10.0));
        assert!(h.is_empty());
        assert_eq!(h.last_meet(), Some(SimTime::secs(10.0)));
    }

    #[test]
    fn intervals_accumulate_sorted() {
        let mut h = PairHistory::new(8);
        meet_at(&mut h, &[0.0, 30.0, 40.0, 100.0]); // intervals 30, 10, 60
        assert_eq!(h.intervals(), &[10.0, 30.0, 60.0]);
        assert_eq!(h.mean_interval(), Some(100.0 / 3.0));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut h = PairHistory::new(2);
        meet_at(&mut h, &[0.0, 30.0, 40.0, 100.0]); // 30 evicted, keep 10, 60
        assert_eq!(h.intervals(), &[10.0, 60.0]);
        assert_eq!(h.mean_interval(), Some(35.0));
    }

    /// The paper's periodic example (§III-B1): nodes meeting every Δt have
    /// EMD = Δt/2 halfway through, not Δt.
    #[test]
    fn emd_accounts_for_elapsed_time() {
        let mut h = PairHistory::new(8);
        meet_at(&mut h, &[0.0, 100.0, 200.0, 300.0]); // periodic, Δt = 100
        let emd = h.expected_meeting_delay(SimTime::secs(350.0)).unwrap();
        assert!((emd - 50.0).abs() < 1e-12, "EMD {emd}, want 50");
        // Right after the meeting the full interval remains.
        let emd0 = h.expected_meeting_delay(SimTime::secs(300.0)).unwrap();
        assert!((emd0 - 100.0).abs() < 1e-12);
    }

    #[test]
    fn emd_conditions_on_admissible_intervals() {
        let mut h = PairHistory::new(8);
        // Intervals 10, 30, 60 (see above), last meeting at 100.
        meet_at(&mut h, &[0.0, 30.0, 40.0, 100.0]);
        // Elapsed 20: admissible {30, 60}, mean 45, EMD 25.
        let emd = h.expected_meeting_delay(SimTime::secs(120.0)).unwrap();
        assert!((emd - 25.0).abs() < 1e-12);
        // Elapsed 70: nothing admissible → None.
        assert!(h.expected_meeting_delay(SimTime::secs(170.0)).is_none());
    }

    #[test]
    fn meet_probability_matches_eq4() {
        let mut h = PairHistory::new(8);
        meet_at(&mut h, &[0.0, 30.0, 40.0, 100.0]); // sorted {10, 30, 60}
        let now = SimTime::secs(120.0); // elapsed 20 → M = {30, 60}, m = 2
        assert_eq!(h.admissible_counts(now, 10.0), (2, 1)); // ≤ 30
        assert_eq!(h.meet_probability(now, 10.0), 0.5);
        assert_eq!(h.meet_probability(now, 40.0), 1.0); // both ≤ 60
        assert_eq!(h.meet_probability(now, 5.0), 0.0); // none ≤ 25
                                                       // Overdue: elapsed 70 → m = 0 → probability 0.
        assert_eq!(h.meet_probability(SimTime::secs(170.0), 50.0), 0.0);
    }

    #[test]
    fn eev_sums_pair_probabilities() {
        let mut ch = ContactHistory::new(NodeId(0), 4, 8);
        // Peer 1: periodic every 50 since t=0, last met 200.
        for t in [0.0, 50.0, 100.0, 150.0, 200.0] {
            ch.record_meeting(NodeId(1), SimTime::secs(t));
        }
        // Peer 2: met once (no intervals).
        ch.record_meeting(NodeId(2), SimTime::secs(10.0));
        // Peer 3: never met.
        let now = SimTime::secs(210.0); // elapsed to 1 = 10
                                        // p1: intervals all 50 > 10; ≤ 10+45=55 → all → 1.0.
        let eev = ch.eev(now, 45.0);
        assert!((eev - 1.0).abs() < 1e-12);
        // Short horizon: 10+20=30 < 50 → 0.
        assert_eq!(ch.eev(now, 20.0), 0.0);
    }

    #[test]
    fn eev_over_subset_restricts() {
        let mut ch = ContactHistory::new(NodeId(0), 4, 8);
        for t in [0.0, 50.0, 100.0] {
            ch.record_meeting(NodeId(1), SimTime::secs(t));
            ch.record_meeting(NodeId(2), SimTime::secs(t + 1.0));
        }
        let now = SimTime::secs(110.0);
        let all = ch.eev(now, 100.0);
        let only1 = ch.eev_over(now, 100.0, &[NodeId(1)]);
        let only2 = ch.eev_over(now, 100.0, &[NodeId(2)]);
        assert!((only1 + only2 - all).abs() < 1e-12);
        // `me` in the subset contributes nothing.
        let with_self = ch.eev_over(now, 100.0, &[NodeId(0), NodeId(1)]);
        assert_eq!(with_self, only1);
    }

    #[test]
    fn community_probability_composes() {
        let mut ch = ContactHistory::new(NodeId(0), 4, 8);
        for t in [0.0, 50.0, 100.0] {
            ch.record_meeting(NodeId(1), SimTime::secs(t));
        }
        let now = SimTime::secs(110.0);
        let p1 = ch.pair(NodeId(1)).meet_probability(now, 100.0);
        assert!(p1 > 0.0);
        // Community {1, 3}: 3 never met → P = p1.
        let p = ch.community_meet_probability(now, 100.0, &[NodeId(1), NodeId(3)]);
        assert!((p - p1).abs() < 1e-12);
        // Empty community → 0.
        assert_eq!(ch.community_meet_probability(now, 100.0, &[]), 0.0);
    }

    #[test]
    fn simultaneous_remeeting_keeps_window_consistent() {
        // Zero-length intervals (same-time re-meeting) are ignored.
        let mut h = PairHistory::new(4);
        h.record_meeting(SimTime::secs(5.0));
        h.record_meeting(SimTime::secs(5.0));
        assert!(h.is_empty());
        h.record_meeting(SimTime::secs(10.0));
        assert_eq!(h.intervals(), &[5.0]);
    }

    #[test]
    fn record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<PairHistory>(), 32);
    }

    /// The layout the compact record replaced: arrival order, sorted copy
    /// and prefix sums in three vectors.
    struct ThreeVectors {
        last_meet: Option<SimTime>,
        recent: Vec<f64>,
        sorted: Vec<f64>,
        prefix: Vec<f64>,
        window: usize,
    }

    impl ThreeVectors {
        fn record_meeting(&mut self, now: SimTime) {
            if let Some(prev) = self.last_meet {
                let dt = now.since(prev);
                if dt > 0.0 {
                    if self.recent.len() == self.window {
                        let evicted = self.recent.remove(0);
                        let pos = self
                            .sorted
                            .binary_search_by(|x| x.total_cmp(&evicted))
                            .unwrap();
                        self.sorted.remove(pos);
                    }
                    self.recent.push(dt);
                    let pos = self.sorted.partition_point(|&x| x < dt);
                    self.sorted.insert(pos, dt);
                    self.prefix.clear();
                    self.prefix.push(0.0);
                    let mut acc = 0.0;
                    for &x in &self.sorted {
                        acc += x;
                        self.prefix.push(acc);
                    }
                }
            }
            self.last_meet = Some(now);
        }

        fn expected_meeting_delay(&self, now: SimTime) -> Option<f64> {
            let e = now.since(self.last_meet?);
            let lo = self.sorted.partition_point(|&x| x <= e);
            let m = self.sorted.len() - lo;
            (m > 0).then(|| (self.prefix[self.sorted.len()] - self.prefix[lo]) / m as f64 - e)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Window eviction, means and EMDs equal the three-vector layout bit
        /// for bit, with repeated intervals and same-instant re-meetings.
        #[test]
        fn compact_record_matches_three_vectors(
            window in 1usize..6,
            steps in proptest::collection::vec((0u32..4, 0.0f64..200.0), 0..40),
            elapsed in proptest::collection::vec(0.0f64..300.0, 1..4),
        ) {
            let mut got = PairHistory::new(window);
            let mut want = ThreeVectors {
                last_meet: None,
                recent: Vec::new(),
                sorted: Vec::new(),
                prefix: vec![0.0],
                window,
            };
            let mut t = 0.0;
            for (kind, gap) in steps {
                // Kind 0 re-meets at once; kind 1 repeats a round gap.
                t += match kind { 0 => 0.0, 1 => 25.0, _ => gap };
                got.record_meeting(SimTime::secs(t));
                want.record_meeting(SimTime::secs(t));
                proptest::prop_assert_eq!(got.intervals(), want.sorted.as_slice());
                proptest::prop_assert_eq!(got.last_meet(), want.last_meet);
                let mean = want.prefix[want.sorted.len()] / want.sorted.len() as f64;
                proptest::prop_assert_eq!(
                    got.mean_interval().map(f64::to_bits),
                    (!want.sorted.is_empty()).then(|| mean.to_bits())
                );
                for &e in &elapsed {
                    let now = SimTime::secs(t + e);
                    proptest::prop_assert_eq!(
                        got.expected_meeting_delay(now).map(f64::to_bits),
                        want.expected_meeting_delay(now).map(f64::to_bits)
                    );
                }
            }
        }
    }
}
