//! Minimum expected meeting delay (Theorem 3).
//!
//! The `MD` matrix of §III-B2 is the `MI` matrix with the *source node's own
//! row* replaced by its expected meeting delays (Theorem 2), which account
//! for the elapsed time since each last contact. The MEMD from the source to
//! every destination is the shortest-path distance over `MD` — computed here
//! with a Dijkstra over the known (finite) edges only: the source's own row
//! first, then each finalized node's `MI` row entries. The matrix copy is
//! never materialised.
//!
//! The frontier is an indexed 4-ary min-heap. Each node sits in it at most
//! once: a relax that lowers the distance of a queued node moves that node
//! up in place (decrease-key), so no pop is ever stale. A heap key is
//! [`f64::total_cmp`]'s integer image of the tentative distance, which for
//! the non-negative distances `MI` rows produce is the raw bit pattern; keys
//! compare as integers, with no tie-break on the node. Relaxing an `MI` row
//! entry costs one float compare, `best + w < dist[v]`, before anything
//! else: `MI` rows hold finite entries only, and a node popped from the heap
//! never passes it, because its distance is at most `best` and `w ≥ 0`. The
//! nodes that can pass it are marked done up front — the source, whose 0 a
//! negative own-row distance can undercut, and the nodes outside a
//! `restrict` set, kept at ∞ — and that mark is read only once the compare
//! passes. The own row keeps a finiteness filter and may hold negative or
//! `-0.0` weights; the keys order those too.
//!
//! Final distances do not depend on the order in which equal distances are
//! finalized: weights are non-negative and rounding is monotone, so each
//! distance is the minimum of `fl(d[u] + w)` over its finalized predecessors.
//! The heap therefore returns, bit for bit, what a dense O(n²) Dijkstra over
//! the same matrix returns, whatever order it pops ties in.
//!
//! The Dijkstra scratch (heap positions, keys and nodes) is kept once per
//! thread and reused by every solve on it, so a router holds only its
//! distance vector, and the solve writes straight into that vector.
//!
//! [`solve_into`] is the one entry point; [`emd_entries`] and
//! [`mean_entries`] give it the source's own row.

use crate::history::ContactHistory;
use crate::mi::MiMatrix;
use dtn_sim::{NodeId, SimTime};
use std::cell::RefCell;

/// Heap position of a node the solve has not reached yet.
const UNSEEN: u32 = u32::MAX;
/// Heap position of a finalized node, or of one outside the restricted set.
const DONE: u32 = u32::MAX - 1;

/// [`f64::total_cmp`]'s integer image of `x`: keys compare as integers
/// exactly as the distances compare under `total_cmp`. For `x ≥ +0.0` it is
/// `x`'s bit pattern.
#[inline]
fn key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The working memory of one solve: an indexed 4-ary min-heap. Every solve
/// resets what it reads, so nothing carries over from one solve to the next.
#[derive(Debug, Default)]
struct Scratch {
    /// Per node: its index in the heap, or [`UNSEEN`] / [`DONE`].
    pos: Vec<u32>,
    /// The heap's keys and nodes, in parallel; slot `k`'s children are
    /// `4k + 1 ..= 4k + 4`.
    keys: Vec<i64>,
    nodes: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// MEMD from `src` to every node, solved into `dist` on this thread's
/// scratch (unreachable = ∞): shortest paths over `mi` with `src`'s row
/// replaced by `own_row`, given as `(j, weight)` entries ascending by peer
/// ([`emd_entries`], [`mean_entries`] or any custom override; non-finite
/// weights are ignored). `restrict` limits the graph to a subset of nodes
/// plus `src` (the intra-community MEMD′ of §IV); `None` means all nodes.
pub fn solve_into(
    dist: &mut Vec<f64>,
    src: NodeId,
    mi: &MiMatrix,
    own_row: impl IntoIterator<Item = (u32, f64)>,
    restrict: Option<&[NodeId]>,
) {
    SCRATCH.with(|s| s.borrow_mut().solve(dist, src, mi, own_row, restrict));
}

impl Scratch {
    fn solve(
        &mut self,
        dist: &mut Vec<f64>,
        src: NodeId,
        mi: &MiMatrix,
        own_row: impl IntoIterator<Item = (u32, f64)>,
        restrict: Option<&[NodeId]>,
    ) {
        let n = mi.n();
        dist.clear();
        dist.resize(n, f64::INFINITY);
        self.reset(n, restrict);
        // The source is finalized first, at 0, so its own row is read once,
        // here, and never buffered. Its distances are `0.0 + w`, as the dense
        // solve adds them: a `-0.0` weight becomes a `+0.0` distance.
        let best = 0.0;
        dist[src.idx()] = best;
        self.pos[src.idx()] = DONE;
        for (v, w) in own_row {
            let nd = best + w;
            if w.is_finite() && nd < dist[v as usize] {
                self.improve(dist, v, nd);
            }
        }
        while let Some(u) = self.pop() {
            let best = dist[u as usize];
            for &(v, w) in mi.row_entries(NodeId(u)) {
                let nd = best + w;
                if nd < dist[v as usize] {
                    self.improve(dist, v, nd);
                }
            }
        }
    }

    /// Empties the heap and marks every node unseen, or, under `restrict`,
    /// every node outside it done (it stays at ∞).
    fn reset(&mut self, n: usize, restrict: Option<&[NodeId]>) {
        self.keys.clear();
        self.nodes.clear();
        self.pos.clear();
        match restrict {
            Some(nodes) => {
                self.pos.resize(n, DONE);
                for v in nodes {
                    self.pos[v.idx()] = UNSEEN;
                }
            }
            None => self.pos.resize(n, UNSEEN),
        }
    }

    /// Lowers `v`'s tentative distance to `nd` (`nd < dist[v]`), unless `v`
    /// is done: queues `v`, or moves it up in place if it is queued.
    #[inline]
    fn improve(&mut self, dist: &mut [f64], v: u32, nd: f64) {
        let at = match self.pos[v as usize] {
            DONE => return,
            UNSEEN => {
                self.keys.push(0);
                self.nodes.push(v);
                self.keys.len() - 1
            }
            at => at as usize,
        };
        dist[v as usize] = nd;
        self.sift_up(at, key(nd), v);
    }

    /// Removes the node with the smallest key and marks it done.
    fn pop(&mut self) -> Option<u32> {
        let top = *self.nodes.first()?;
        self.pos[top as usize] = DONE;
        let (k, v) = (self.keys.pop()?, self.nodes.pop()?);
        if !self.nodes.is_empty() {
            self.sift_down(k, v);
        }
        Some(top)
    }

    /// Places `(k, v)` at slot `at` or above, moving larger parents down.
    #[inline]
    fn sift_up(&mut self, mut at: usize, k: i64, v: u32) {
        while at > 0 {
            let parent = (at - 1) / 4;
            if self.keys[parent] <= k {
                break;
            }
            self.place(at, self.keys[parent], self.nodes[parent]);
            at = parent;
        }
        self.place(at, k, v);
    }

    /// Places `(k, v)` at the root or below, moving smaller children up.
    fn sift_down(&mut self, k: i64, v: u32) {
        let len = self.keys.len();
        let mut at = 0;
        loop {
            let first = 4 * at + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            for c in first + 1..len.min(first + 4) {
                if self.keys[c] < self.keys[child] {
                    child = c;
                }
            }
            if self.keys[child] >= k {
                break;
            }
            self.place(at, self.keys[child], self.nodes[child]);
            at = child;
        }
        self.place(at, k, v);
    }

    #[inline]
    fn place(&mut self, at: usize, k: i64, v: u32) {
        self.keys[at] = k;
        self.nodes[at] = v;
        self.pos[v as usize] = at as u32;
    }
}

/// The source's own `MD` row: `EMD(t)` towards every met peer, as finite
/// entries `(j, EMD_j)` ascending by peer. The paper-unspecified corner
/// cases are resolved as:
///
/// * never met / no intervals → unknown (no entry);
/// * "overdue" (elapsed exceeds all recorded intervals, conditional set
///   empty) → unknown (no entry): the estimator has no admissible evidence
///   left, and treating overdue links as attractive was measured to cause
///   single-copy thrashing (see the `ablation emd` grid).
pub fn emd_entries(
    history: &ContactHistory,
    now: SimTime,
) -> impl Iterator<Item = (u32, f64)> + '_ {
    let me = history.me();
    history
        .met()
        .filter(move |&(j, _)| j != me)
        .filter_map(move |(j, pair)| Some((j.0, pair.expected_meeting_delay(now)?.max(0.0))))
}

/// An own row of plain mean intervals (no Theorem-2 elapsed-time
/// correction), ascending by peer — the Jones et al. MEED-style baseline the
/// `ablation emd` grid uses to quantify what the correction buys.
pub fn mean_entries(history: &ContactHistory) -> impl Iterator<Item = (u32, f64)> + '_ {
    let me = history.me().0;
    history.mean_row().filter(move |&(j, _)| j != me)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mi_from(n: u32, entries: &[(u32, u32, f64)]) -> MiMatrix {
        let mut mi = MiMatrix::new(n);
        for &(i, j, v) in entries {
            mi.set_entry(NodeId(i), NodeId(j), v, 1.0);
            mi.set_entry(NodeId(j), NodeId(i), v, 1.0);
        }
        mi
    }

    /// The finite entries of a dense row literal.
    fn sparse(row: &[f64]) -> Vec<(u32, f64)> {
        (0..row.len() as u32)
            .zip(row.iter().copied())
            .filter(|(_, w)| w.is_finite())
            .collect()
    }

    /// MEMD from `src` into a fresh vector.
    fn memd(
        src: NodeId,
        mi: &MiMatrix,
        own_row: Vec<(u32, f64)>,
        restrict: Option<&[NodeId]>,
    ) -> Vec<f64> {
        let mut dist = Vec::new();
        solve_into(&mut dist, src, mi, own_row, restrict);
        dist
    }

    /// Node `me`'s sparse row as a dense one: `INFINITY` = unknown, and the
    /// diagonal 0 (as `MiMatrix::get` reads it).
    fn dense(row: &[(u32, f64)], me: usize, n: usize) -> Vec<f64> {
        let mut out = vec![f64::INFINITY; n];
        out[me] = 0.0;
        for &(j, w) in row {
            out[j as usize] = w;
        }
        out
    }

    #[test]
    fn memd_is_shortest_path_over_md() {
        // 0 -10- 1 -10- 2, and a slow direct edge 0 -50- 2.
        let mi = mi_from(3, &[(0, 1, 10.0), (1, 2, 10.0), (0, 2, 50.0)]);
        let emd_row = sparse(&[0.0, 10.0, 50.0]); // same as MI row here
        let d = memd(NodeId(0), &mi, emd_row, None);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 10.0);
        assert_eq!(d[2], 20.0, "two-hop path beats direct");
    }

    #[test]
    fn emd_row_override_changes_first_hop() {
        let mi = mi_from(3, &[(0, 1, 10.0), (1, 2, 10.0), (0, 2, 50.0)]);
        // Node 0 just met 1 recently: its *current* expected delay to 1 is
        // only 2 (Theorem 2), so MEMD(0→2) drops to 12.
        let emd_row = sparse(&[0.0, 2.0, 50.0]);
        let d = memd(NodeId(0), &mi, emd_row, None);
        assert_eq!(d[2], 12.0);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mi = mi_from(4, &[(0, 1, 5.0)]);
        let emd_row = sparse(&[0.0, 5.0, f64::INFINITY, f64::INFINITY]);
        let d = memd(NodeId(0), &mi, emd_row, None);
        assert!(d[2].is_infinite());
        assert!(d[3].is_infinite());
    }

    #[test]
    fn restriction_blocks_outside_relays() {
        // Path 0-1-2 exists, but 1 is outside the allowed subset.
        let mi = mi_from(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]);
        let emd_row = sparse(&[0.0, 1.0, 10.0]);
        let d = memd(NodeId(0), &mi, emd_row, Some(&[NodeId(0), NodeId(2)]));
        assert_eq!(d[2], 10.0, "must use the direct intra-subset edge");
    }

    #[test]
    fn build_emd_row_fallbacks() {
        use dtn_sim::SimTime;
        let mut h = ContactHistory::new(NodeId(0), 3, 8);
        // Peer 1: periodic 100s, last met at 200.
        for t in [0.0, 100.0, 200.0] {
            h.record_meeting(NodeId(1), SimTime::secs(t));
        }
        let emd_row = |t| emd_entries(&h, SimTime::secs(t)).collect::<Vec<_>>();
        // At t=250 (elapsed 50): EMD = 100 - 50 = 50.
        let row = dense(&emd_row(250.0), 0, 3);
        assert!((row[1] - 50.0).abs() < 1e-12);
        assert!(row[2].is_infinite(), "never met → unknown");
        assert_eq!(row[0], 0.0);
        // Overdue (elapsed 150 > all intervals): no admissible evidence.
        let row = dense(&emd_row(350.0), 0, 3);
        assert!(row[1].is_infinite());
    }

    /// A tie-heavy step: zero, a small integer, a tenth or an arbitrary
    /// float.
    fn step(kind: u32, int: u32, x: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => f64::from(int),
            2 => f64::from(int) / 10.0,
            _ => x,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Random relax and pop sequences, as a solve issues them: a relax
        /// lowers a node's distance to the last popped distance plus a
        /// non-negative step. Each pop is a smallest queued distance and never
        /// below the previous pop; each reached node pops exactly once; nodes
        /// done or outside the restricted set ignore every relax.
        #[test]
        fn heap_pops_each_node_once_in_key_order(
            (n, ops, mask) in (1usize..90).prop_flat_map(|n| (
                Just(n),
                proptest::collection::vec(
                    (0u32..5, 0..n as u32, (0u32..4, 0u32..5, 0.0f64..40.0)),
                    0..400,
                ),
                (any::<bool>(), proptest::collection::vec(any::<bool>(), n))
                    .prop_map(|(on, mask)| on.then_some(mask)),
            ))
        ) {
            let restrict: Option<Vec<NodeId>> = mask.map(|m| {
                (0..n as u32).filter(|&v| m[v as usize]).map(NodeId).collect()
            });
            let inside = |v: u32| restrict.as_ref().is_none_or(|r| r.contains(&NodeId(v)));
            let mut heap = Scratch::default();
            heap.reset(n, restrict.as_deref());
            let mut dist = vec![f64::INFINITY; n];
            let mut popped = vec![false; n];
            let mut floor = 0.0;
            let pop = |heap: &mut Scratch, dist: &[f64], popped: &mut [bool], floor: &mut f64| {
                let queued = (0..n).filter(|&v| dist[v].is_finite() && !popped[v]);
                let least = queued.map(|v| key(dist[v])).min();
                let got = heap.pop();
                prop_assert_eq!(got.map(|u| key(dist[u as usize])), least);
                if let Some(u) = got {
                    let u = u as usize;
                    prop_assert!(!popped[u], "node {} popped twice", u);
                    prop_assert!(key(dist[u]) >= key(*floor), "pop below the previous one");
                    popped[u] = true;
                    *floor = dist[u];
                }
                got
            };
            for (op, v, (kind, int, x)) in ops {
                if op == 0 {
                    pop(&mut heap, &dist, &mut popped, &mut floor);
                    continue;
                }
                let vi = v as usize;
                if popped[vi] || !inside(v) {
                    // Below anything queued: only the done mark stops it.
                    let before = (dist[vi].to_bits(), heap.nodes.len());
                    heap.improve(&mut dist, v, floor - 1.0);
                    prop_assert_eq!((dist[vi].to_bits(), heap.nodes.len()), before);
                    continue;
                }
                let nd = floor + step(kind, int, x);
                if nd < dist[vi] {
                    heap.improve(&mut dist, v, nd);
                    prop_assert_eq!(dist[vi].to_bits(), nd.to_bits());
                }
            }
            while pop(&mut heap, &dist, &mut popped, &mut floor).is_some() {}
            for v in 0..n {
                prop_assert_eq!(popped[v], dist[v].is_finite(), "node {}", v);
                prop_assert!(inside(v as u32) || dist[v].is_infinite());
            }
        }
    }

    #[test]
    fn memd_all_composes() {
        use dtn_sim::SimTime;
        let mut h = ContactHistory::new(NodeId(0), 3, 8);
        for t in [0.0, 100.0, 200.0] {
            h.record_meeting(NodeId(1), SimTime::secs(t));
        }
        // MI knows 1-2 meet every 30 on average.
        let mut mi = MiMatrix::new(3);
        mi.set_entry(NodeId(1), NodeId(2), 30.0, 5.0);
        let mut d = Vec::new();
        solve_into(
            &mut d,
            h.me(),
            &mi,
            emd_entries(&h, SimTime::secs(250.0)),
            None,
        );
        assert!((d[1] - 50.0).abs() < 1e-12);
        assert!((d[2] - 80.0).abs() < 1e-12, "50 to reach 1 + 30 onwards");
    }
}
