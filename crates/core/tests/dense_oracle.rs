//! The sparse contact-expectation state against the dense layout it
//! replaced, kept here as a test-only oracle: an `n × n` MI matrix with
//! row-copying gossip, an O(n²) Dijkstra, and a history holding one pair
//! record per node of the network.
//!
//! Every comparison is bitwise (`f64::to_bits`): the sparse structures must
//! return exactly what the dense ones return, not something close.

use ce_core::memd::{emd_entries, mean_entries, solve_into};
use ce_core::{CommunityMap, ContactHistory, MiMatrix, PairHistory};
use dtn_sim::{NodeId, SimTime};
use proptest::prelude::*;

/// The dense layouts, as the router state stored them before it became
/// sparse.
mod dense {
    use super::*;

    /// Row-major `n × n` meeting-interval matrix (`INFINITY` = unknown,
    /// diagonal 0) with per-row stamps (`-1` = never updated).
    #[derive(Clone)]
    pub struct Mi {
        pub n: usize,
        pub data: Vec<f64>,
        pub row_time: Vec<f64>,
    }

    impl Mi {
        pub fn new(n: usize) -> Self {
            let mut data = vec![f64::INFINITY; n * n];
            for i in 0..n {
                data[i * n + i] = 0.0;
            }
            Mi {
                n,
                data,
                row_time: vec![-1.0; n],
            }
        }

        pub fn get(&self, i: usize, j: usize) -> f64 {
            self.data[i * self.n + j]
        }

        pub fn row(&self, i: usize) -> &[f64] {
            &self.data[i * self.n..(i + 1) * self.n]
        }

        pub fn set_row(&mut self, i: usize, values: &[f64], time: f64) {
            assert_eq!(values.len(), self.n);
            self.data[i * self.n..(i + 1) * self.n].copy_from_slice(values);
            self.data[i * self.n + i] = 0.0;
            self.row_time[i] = time;
        }

        pub fn set_entry(&mut self, i: usize, j: usize, value: f64, time: f64) {
            self.data[i * self.n + j] = value;
            self.row_time[i] = self.row_time[i].max(time);
        }

        /// Copies every row `other` has fresher among `rows`.
        pub fn merge_rows(&mut self, other: &Mi, rows: impl Iterator<Item = usize>) -> usize {
            let mut copied = 0;
            for i in rows {
                if other.row_time[i] > self.row_time[i] {
                    let (lo, hi) = (i * self.n, (i + 1) * self.n);
                    self.data[lo..hi].copy_from_slice(&other.data[lo..hi]);
                    self.row_time[i] = other.row_time[i];
                    copied += 1;
                }
            }
            copied
        }

        pub fn merge_from(&mut self, other: &Mi) -> usize {
            self.merge_rows(other, 0..self.n)
        }
    }

    /// Dense-extraction Dijkstra over `mi` with `src`'s row replaced by
    /// `emd_row`, optionally restricted to `restrict` (plus `src`).
    pub fn memd_from(
        src: usize,
        mi: &Mi,
        emd_row: &[f64],
        restrict: Option<&[NodeId]>,
    ) -> Vec<f64> {
        let n = mi.n;
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![true; n];
        match restrict {
            Some(nodes) => {
                for v in nodes {
                    done[v.idx()] = false;
                }
                done[src] = false;
            }
            None => done.iter_mut().for_each(|d| *d = false),
        }
        dist[src] = 0.0;
        loop {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for v in 0..n {
                if !done[v] && dist[v] < best {
                    best = dist[v];
                    u = v;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            let row = if u == src { emd_row } else { mi.row(u) };
            for (v, &w) in row.iter().enumerate() {
                if done[v] {
                    continue;
                }
                if w.is_finite() {
                    let nd = best + w;
                    if nd < dist[v] {
                        dist[v] = nd;
                    }
                }
            }
        }
        dist
    }

    /// One pair history per node of the network.
    pub struct History {
        pub me: usize,
        pub pairs: Vec<PairHistory>,
    }

    impl History {
        pub fn new(me: usize, n: usize, window: usize) -> Self {
            History {
                me,
                pairs: (0..n).map(|_| PairHistory::new(window)).collect(),
            }
        }

        pub fn record_meeting(&mut self, peer: usize, now: SimTime) {
            self.pairs[peer].record_meeting(now);
        }

        pub fn eev(&self, now: SimTime, tau: f64) -> f64 {
            let mut sum = 0.0;
            for (j, p) in self.pairs.iter().enumerate() {
                if j == self.me {
                    continue;
                }
                sum += p.meet_probability(now, tau);
            }
            sum
        }

        pub fn eev_over(&self, now: SimTime, tau: f64, subset: &[NodeId]) -> f64 {
            subset
                .iter()
                .filter(|j| j.idx() != self.me)
                .map(|j| self.pairs[j.idx()].meet_probability(now, tau))
                .sum()
        }

        pub fn community_meet_probability(
            &self,
            now: SimTime,
            tau: f64,
            community: &[NodeId],
        ) -> f64 {
            let mut miss = 1.0;
            for j in community {
                if j.idx() == self.me {
                    continue;
                }
                miss *= 1.0 - self.pairs[j.idx()].meet_probability(now, tau);
            }
            1.0 - miss
        }

        pub fn enec(&self, map: &CommunityMap, now: SimTime, tau: f64) -> f64 {
            let my_cid = map.cid(NodeId(self.me as u32));
            let mut sum = 0.0;
            for k in 0..map.n_communities() as u32 {
                if k == my_cid {
                    continue;
                }
                sum += self.community_meet_probability(now, tau, map.members(k));
            }
            sum
        }

        pub fn build_emd_row(&self, now: SimTime) -> Vec<f64> {
            let mut row = vec![f64::INFINITY; self.pairs.len()];
            for (j, pair) in self.pairs.iter().enumerate() {
                if j == self.me {
                    row[j] = 0.0;
                    continue;
                }
                row[j] = match pair.expected_meeting_delay(now) {
                    Some(d) => d.max(0.0),
                    None => f64::INFINITY,
                };
            }
            row
        }

        pub fn build_mean_row(&self) -> Vec<f64> {
            let mut row = vec![f64::INFINITY; self.pairs.len()];
            for (j, pair) in self.pairs.iter().enumerate() {
                if j == self.me {
                    row[j] = 0.0;
                    continue;
                }
                if let Some(mean) = pair.mean_interval() {
                    row[j] = mean;
                }
            }
            row
        }
    }
}

/// A sparse row as the dense oracle stores it (`me`'s diagonal 0).
fn densify(row: &[(u32, f64)], me: usize, n: usize) -> Vec<f64> {
    let mut out = vec![f64::INFINITY; n];
    out[me] = 0.0;
    for &(j, w) in row {
        out[j as usize] = w;
    }
    out
}

/// The finite off-diagonal entries of a dense row.
fn sparsify(row: &[f64], me: usize) -> Vec<(u32, f64)> {
    (0..row.len() as u32)
        .zip(row.iter().copied())
        .filter(|&(j, w)| j as usize != me && w.is_finite())
        .collect()
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{k}]: {x} vs {y}");
    }
}

/// An edge weight: a small integer (ties and zero weights), a tenth (sums
/// that round), or an arbitrary float, or unknown.
fn weight(kind: u32, int: u32, x: f64) -> f64 {
    match kind {
        0 => f64::INFINITY,
        1 | 2 => f64::from(int),
        3 => f64::from(int) / 10.0,
        _ => x,
    }
}

/// A generated row: `(kind, int, float)` per column.
fn row_strategy(n: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0u32..6, 0u32..4, 0.0f64..300.0), n)
}

fn dense_values(spec: &[(u32, u32, f64)]) -> Vec<f64> {
    spec.iter().map(|&(k, i, x)| weight(k, i, x)).collect()
}

/// A network of 2..12 nodes: per-row specs, which rows were ever set, a
/// source, the source's own-row spec and an optional restriction mask.
#[allow(clippy::type_complexity)]
fn memd_case() -> impl Strategy<
    Value = (
        Vec<Vec<(u32, u32, f64)>>,
        Vec<bool>,
        usize,
        Vec<(u32, u32, f64)>,
        Option<Vec<bool>>,
    ),
> {
    (2usize..12).prop_flat_map(|n| {
        (
            proptest::collection::vec(row_strategy(n), n),
            proptest::collection::vec(any::<bool>(), n),
            0..n,
            row_strategy(n),
            (any::<bool>(), proptest::collection::vec(any::<bool>(), n))
                .prop_map(|(on, mask)| on.then_some(mask)),
        )
    })
}

/// A sparse row of at most 16 `(column, kind, int, float)` entries.
fn sparse_row_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, u32, u32, f64)>> {
    proptest::collection::vec((0..n, 0u32..5, 0u32..4, 0.0f64..300.0), 0..17)
}

/// An own-row weight: `-0.0`, `0.0`, a negative integer or tenth, a
/// non-finite value, or any `MI` weight.
fn own_weight(kind: u32, int: u32, x: f64) -> f64 {
    match kind {
        0 => -0.0,
        1 => 0.0,
        2 => -f64::from(int + 1),
        3 => -f64::from(int) / 10.0,
        4 => [f64::NEG_INFINITY, f64::NAN, f64::INFINITY][int as usize % 3],
        _ => weight(kind - 5, int, x),
    }
}

/// A network of 30..250 nodes with sparse, tie-heavy rows: per-row entry
/// specs, which rows were ever set, a source, the own row's entry specs and
/// an optional restriction mask with its density.
#[allow(clippy::type_complexity)]
fn memd_case_at_scale() -> impl Strategy<
    Value = (
        Vec<Vec<(usize, u32, u32, f64)>>,
        Vec<u32>,
        usize,
        Vec<(usize, u32, u32, f64)>,
        Option<(u32, Vec<u32>)>,
    ),
> {
    (30usize..250).prop_flat_map(|n| {
        (
            proptest::collection::vec(sparse_row_strategy(n), n),
            proptest::collection::vec(0u32..4, n),
            0..n,
            proptest::collection::vec((0..n, 0u32..10, 0u32..4, 0.0f64..300.0), 0..17),
            (
                any::<bool>(),
                1u32..8,
                proptest::collection::vec(0u32..8, n),
            )
                .prop_map(|(on, keep, mask)| on.then_some((keep, mask))),
        )
    })
}

/// One operation on one of three matrices (see `mi_ops_match_dense`).
#[derive(Clone, Debug)]
enum MiOp {
    SetRow {
        m: usize,
        i: usize,
        row: Vec<f64>,
        time: f64,
    },
    SetEntry {
        m: usize,
        i: usize,
        j: usize,
        value: f64,
        time: f64,
    },
    Merge {
        into: usize,
        from: usize,
    },
    MergeRows {
        into: usize,
        from: usize,
        rows: Vec<usize>,
    },
}

fn mi_op(n: usize) -> impl Strategy<Value = MiOp> {
    (
        (0u32..4, 0usize..3, 0usize..3),
        (0usize..n, 1usize..n),
        row_strategy(n),
        (0u32..6, 0u32..4, 0.0f64..300.0),
        0u32..40,
        proptest::collection::vec(0usize..n, 0..n),
    )
        .prop_map(
            move |((op, m, other), (i, dj), spec, (k, int, x), t, rows)| {
                let time = f64::from(t) * 0.5; // repeated stamps: ties must not adopt
                match op {
                    0 => MiOp::SetRow {
                        m,
                        i,
                        row: dense_values(&spec),
                        time,
                    },
                    1 => MiOp::SetEntry {
                        m,
                        i,
                        j: (i + dj) % n,
                        value: weight(k, int, x),
                        time,
                    },
                    2 => MiOp::Merge {
                        into: m,
                        from: other,
                    },
                    _ => {
                        let mut rows = rows;
                        rows.sort_unstable();
                        rows.dedup();
                        MiOp::MergeRows {
                            into: m,
                            from: other,
                            rows,
                        }
                    }
                }
            },
        )
}

/// A meeting schedule for node `me` among `n` nodes: `(peer offset, gap
/// kind, gap)` steps. Gap kind 0 re-meets at the same instant.
#[allow(clippy::type_complexity)]
fn meeting_case() -> impl Strategy<Value = (usize, usize, usize, Vec<(usize, u32, f64)>, Vec<u32>)>
{
    (2usize..10).prop_flat_map(|n| {
        (
            Just(n),
            0..n,
            1usize..6,
            proptest::collection::vec((1..n, 0u32..4, 0.0f64..200.0), 0..60),
            proptest::collection::vec(0u32..3, n),
        )
    })
}

/// Replays a meeting schedule into the sparse history and the dense oracle.
fn replay(
    n: usize,
    me: usize,
    window: usize,
    steps: &[(usize, u32, f64)],
) -> (ContactHistory, dense::History, f64) {
    let mut sparse = ContactHistory::new(NodeId(me as u32), n as u32, window);
    let mut oracle = dense::History::new(me, n, window);
    let mut t = 0.0;
    for &(offset, kind, gap) in steps {
        if kind != 0 {
            t += gap;
        }
        let peer = (me + offset) % n;
        sparse.record_meeting(NodeId(peer as u32), SimTime::secs(t));
        oracle.record_meeting(peer, SimTime::secs(t));
    }
    (sparse, oracle, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// (a) The heap Dijkstra returns the dense solver's distances bit for
    /// bit: ties, zero-weight own-row entries, never-updated rows and
    /// restricted subsets included.
    #[test]
    fn heap_memd_matches_dense(case in memd_case()) {
        let (rows, set, src, own, mask) = case;
        let n = rows.len();
        let mut sparse = MiMatrix::new(n as u32);
        let mut oracle = dense::Mi::new(n);
        for (i, spec) in rows.iter().enumerate() {
            if set[i] {
                let values = dense_values(spec);
                sparse.set_row(NodeId(i as u32), (0..n as u32).zip(values.iter().copied()), 1.0);
                oracle.set_row(i, &values, 1.0);
            }
        }
        let mut own_dense = dense_values(&own);
        own_dense[src] = 0.0;
        let own_sparse = sparsify(&own_dense, src);
        let restrict: Option<Vec<NodeId>> = mask.map(|m| {
            (0..n as u32).filter(|&v| m[v as usize]).map(NodeId).collect()
        });
        let mut got = Vec::new();
        solve_into(&mut got, NodeId(src as u32), &sparse, own_sparse, restrict.as_deref());
        let want = dense::memd_from(src, &oracle, &own_dense, restrict.as_deref());
        assert_bits(&got, &want, "memd");
    }

    /// (a′) The same at the sizes the heap reaches in a run, where a 4-ary
    /// heap is several levels deep: sparse rows of up to 16 entries with
    /// small integers, tenths and zeros, own rows holding `0.0`, `-0.0`,
    /// negative and non-finite entries (the source's own among them), and
    /// restriction masks of every density.
    #[test]
    fn heap_memd_matches_dense_at_scale(case in memd_case_at_scale()) {
        let (rows, set, src, own, mask) = case;
        let n = rows.len();
        let mut sparse = MiMatrix::new(n as u32);
        let mut oracle = dense::Mi::new(n);
        for (i, spec) in rows.iter().enumerate() {
            if set[i] != 0 {
                let mut values = vec![f64::INFINITY; n];
                for &(j, kind, int, x) in spec {
                    values[j] = weight(kind, int, x);
                }
                sparse.set_row(NodeId(i as u32), (0..n as u32).zip(values.iter().copied()), 1.0);
                oracle.set_row(i, &values, 1.0);
            }
        }
        let mut own_row: Vec<Option<f64>> = vec![None; n];
        for &(j, kind, int, x) in &own {
            own_row[j] = Some(own_weight(kind, int, x));
        }
        let own_sparse: Vec<(u32, f64)> = (0..n as u32)
            .zip(own_row.iter().copied())
            .filter_map(|(j, w)| Some((j, w?)))
            .collect();
        let own_dense: Vec<f64> = own_row.iter().map(|w| w.unwrap_or(f64::INFINITY)).collect();
        let restrict: Option<Vec<NodeId>> = mask.map(|(keep, m)| {
            (0..n as u32).filter(|&v| m[v as usize] < keep).map(NodeId).collect()
        });
        let mut got = Vec::new();
        solve_into(&mut got, NodeId(src as u32), &sparse, own_sparse, restrict.as_deref());
        let want = dense::memd_from(src, &oracle, &own_dense, restrict.as_deref());
        assert_bits(&got, &want, "memd");
    }

    /// (b) Random `set_row` / `set_entry` / `merge_from` / `merge_rows_from`
    /// sequences over three matrices read back exactly as the dense layout:
    /// every entry, every stamp and every adopted-row count.
    #[test]
    fn mi_ops_match_dense(
        (n, ops) in (2usize..9).prop_flat_map(|n| (Just(n), proptest::collection::vec(mi_op(n), 1..40)))
    ) {
        let mut sparse: Vec<MiMatrix> = (0..3).map(|_| MiMatrix::new(n as u32)).collect();
        let mut oracle: Vec<dense::Mi> = (0..3).map(|_| dense::Mi::new(n)).collect();
        for op in &ops {
            match op {
                MiOp::SetRow { m, i, row, time } => {
                    sparse[*m].set_row(NodeId(*i as u32), (0..n as u32).zip(row.iter().copied()), *time);
                    oracle[*m].set_row(*i, row, *time);
                }
                MiOp::SetEntry { m, i, j, value, time } => {
                    sparse[*m].set_entry(NodeId(*i as u32), NodeId(*j as u32), *value, *time);
                    oracle[*m].set_entry(*i, *j, *value, *time);
                }
                MiOp::Merge { into, from } => {
                    let other = sparse[*from].clone();
                    let got = sparse[*into].merge_from(&other);
                    let other = oracle[*from].clone();
                    let want = oracle[*into].merge_from(&other);
                    prop_assert_eq!(got, want, "merge_from copied count");
                }
                MiOp::MergeRows { into, from, rows } => {
                    let ids: Vec<NodeId> = rows.iter().map(|&r| NodeId(r as u32)).collect();
                    let other = sparse[*from].clone();
                    let got = sparse[*into].merge_rows_from(&other, &ids);
                    let other = oracle[*from].clone();
                    let want = oracle[*into].merge_rows(&other, rows.iter().copied());
                    prop_assert_eq!(got, want, "merge_rows_from copied count");
                }
            }
            for (s, d) in sparse.iter().zip(&oracle) {
                prop_assert_eq!(s.n(), d.n);
                for i in 0..n {
                    let id = NodeId(i as u32);
                    prop_assert_eq!(s.row_time(id).to_bits(), d.row_time[i].to_bits());
                    for j in 0..n {
                        let (got, want) = (s.get(id, NodeId(j as u32)), d.get(i, j));
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "I[{}][{}] after {:?}", i, j, op);
                    }
                    prop_assert_eq!(s.row_entries(id), sparsify(d.row(i), i).as_slice());
                }
            }
        }
    }

    /// (c) Sparse histories answer every estimator exactly as one pair
    /// record per node did: EEV, EEV′ over member slices, community meeting
    /// probabilities, ENEC and the own `MD` rows.
    #[test]
    fn sparse_history_matches_dense(
        (n, me, window, steps, cids) in meeting_case(),
        elapsed in proptest::collection::vec(0.0f64..400.0, 1..4),
        tau in 0.0f64..600.0,
    ) {
        let (sparse, oracle, last) = replay(n, me, window, &steps);
        prop_assert_eq!(sparse.n_nodes(), n);
        for j in 0..n {
            let (s, d) = (sparse.pair(NodeId(j as u32)), &oracle.pairs[j]);
            prop_assert_eq!(s.len(), d.len());
            prop_assert_eq!(s.last_meet(), d.last_meet());
            prop_assert_eq!(s.intervals(), d.intervals());
        }
        let map = CommunityMap::new(cids.clone());
        let mean = densify(&mean_entries(&sparse).collect::<Vec<_>>(), me, n);
        assert_bits(&mean, &oracle.build_mean_row(), "mean row");
        assert_bits(&densify(&sparse.mean_row().collect::<Vec<_>>(), me, n), &oracle.build_mean_row(), "MI row");
        for e in elapsed {
            let now = SimTime::secs(last + e);
            prop_assert_eq!(sparse.eev(now, tau).to_bits(), oracle.eev(now, tau).to_bits(), "eev");
            prop_assert_eq!(map.enec(&sparse, now, tau).to_bits(), oracle.enec(&map, now, tau).to_bits(), "enec");
            for c in 0..map.n_communities() as u32 {
                let members = map.members(c);
                prop_assert_eq!(
                    sparse.eev_over(now, tau, members).to_bits(),
                    oracle.eev_over(now, tau, members).to_bits(),
                    "eev_over"
                );
                prop_assert_eq!(
                    sparse.community_meet_probability(now, tau, members).to_bits(),
                    oracle.community_meet_probability(now, tau, members).to_bits(),
                    "community probability"
                );
            }
            let emd = densify(&emd_entries(&sparse, now).collect::<Vec<_>>(), me, n);
            assert_bits(&emd, &oracle.build_emd_row(now), "emd row");
        }
    }

    /// The three together, as a router uses them: MEMD from a sparse
    /// history over a sparse MI equals the dense composition.
    #[test]
    fn memd_all_matches_dense_composition(
        (n, me, window, steps, cids) in meeting_case(),
        rows in proptest::collection::vec(row_strategy(10), 10),
        elapsed in 0.0f64..400.0,
        restricted in any::<bool>(),
    ) {
        let (sparse_h, oracle_h, last) = replay(n, me, window, &steps);
        let mut sparse = MiMatrix::new(n as u32);
        let mut oracle = dense::Mi::new(n);
        for (i, spec) in rows.iter().take(n).enumerate() {
            let values = dense_values(&spec[..n]);
            sparse.set_row(NodeId(i as u32), (0..n as u32).zip(values.iter().copied()), 1.0);
            oracle.set_row(i, &values, 1.0);
        }
        let map = CommunityMap::new(cids);
        let members = map.members(map.cid(NodeId(me as u32))).to_vec();
        let restrict = restricted.then_some(members.as_slice());
        let now = SimTime::secs(last + elapsed);
        let mut got = Vec::new();
        solve_into(&mut got, sparse_h.me(), &sparse, emd_entries(&sparse_h, now), restrict);
        let want = dense::memd_from(me, &oracle, &oracle_h.build_emd_row(now), restrict);
        assert_bits(&got, &want, "memd_all");
        solve_into(&mut got, sparse_h.me(), &sparse, mean_entries(&sparse_h), restrict);
        let want = dense::memd_from(me, &oracle, &oracle_h.build_mean_row(), restrict);
        assert_bits(&got, &want, "memd_all_mean");
    }
}
