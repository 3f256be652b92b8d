//! Minimum expected meeting delay (Theorem 3).
//!
//! The `MD` matrix of §III-B2 is the `MI` matrix with the *source node's own
//! row* replaced by its expected meeting delays (Theorem 2), which account
//! for the elapsed time since each last contact. The MEMD from the source to
//! every destination is the shortest-path distance over `MD` — computed here
//! with a binary-heap Dijkstra over the known (finite) edges only: the
//! source's own row first, then each finalized node's `MI` row entries. The
//! matrix copy is never materialised.
//!
//! Final distances do not depend on the order in which equal distances are
//! finalized: weights are non-negative and rounding is monotone, so each
//! distance is the minimum of `fl(d[u] + w)` over its finalized predecessors.
//! The heap therefore returns, bit for bit, what a dense O(n²) Dijkstra over
//! the same matrix returns.
//!
//! The Dijkstra scratch (finalized marks and the frontier heap) is kept once
//! per thread and reused by every solve on it, so a router holds only its
//! distance vector, and the solve writes straight into that vector.

use crate::history::ContactHistory;
use crate::mi::MiMatrix;
use dtn_sim::{NodeId, SimTime};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A tentative distance in the Dijkstra frontier, ordered so that the
/// max-heap [`BinaryHeap`] pops the smallest distance first.
#[derive(Clone, Copy, Debug)]
struct Frontier {
    dist: f64,
    node: u32,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Frontier {}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then(other.node.cmp(&self.node))
    }
}

/// The working memory of one solve. Every solve resets what it reads, so
/// nothing carries over from one solve to the next.
#[derive(Debug, Default)]
struct Scratch {
    done: Vec<bool>,
    heap: BinaryHeap<Frontier>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// MEMD from `src` over `mi`, with `src`'s row replaced by `own_row`
/// (ascending by peer; non-finite weights are ignored), solved into `dist`
/// on this thread's scratch. `restrict` limits the graph to a subset of
/// nodes plus `src`.
pub(crate) fn solve_into(
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
        self.done.clear();
        match restrict {
            Some(nodes) => {
                self.done.resize(n, true);
                for v in nodes {
                    self.done[v.idx()] = false;
                }
            }
            None => self.done.resize(n, false),
        }
        // `done[v] = true` marks nodes outside the restricted set as already
        // finalised (at ∞), so they are never relaxed through.
        self.heap.clear();
        // The source is finalized first, at 0, so its own row is read once,
        // here, and never buffered.
        dist[src.idx()] = 0.0;
        self.done[src.idx()] = true;
        self.relax(dist, 0.0, own_row);
        while let Some(Frontier { dist: best, node }) = self.heap.pop() {
            let u = node as usize;
            if self.done[u] {
                continue; // a stale entry: `u` was finalized at a smaller distance
            }
            self.done[u] = true;
            self.relax(dist, best, mi.row_entries(NodeId(node)).iter().copied());
        }
    }

    /// Relaxes the edges `row` out of a node finalized at `best`.
    fn relax(&mut self, dist: &mut [f64], best: f64, row: impl IntoIterator<Item = (u32, f64)>) {
        for (v, w) in row {
            let vi = v as usize;
            if self.done[vi] || !w.is_finite() {
                continue;
            }
            let nd = best + w;
            if nd < dist[vi] {
                dist[vi] = nd;
                self.heap.push(Frontier { dist: nd, node: v });
            }
        }
    }
}

/// The entries of [`MemdSolver::build_emd_row`].
pub(crate) fn emd_entries(
    history: &ContactHistory,
    now: SimTime,
) -> impl Iterator<Item = (u32, f64)> + '_ {
    let me = history.me();
    history
        .met()
        .filter(move |&(j, _)| j != me)
        .filter_map(move |(j, pair)| Some((j.0, pair.expected_meeting_delay(now)?.max(0.0))))
}

/// The entries of [`MemdSolver::build_mean_row`].
pub(crate) fn mean_entries(history: &ContactHistory) -> impl Iterator<Item = (u32, f64)> + '_ {
    let me = history.me().0;
    history.mean_row().filter(move |&(j, _)| j != me)
}

/// A MEMD solver with its own distance vector and own row, for callers that
/// read them back; the Dijkstra scratch is this thread's.
#[derive(Clone, Debug, Default)]
pub struct MemdSolver {
    dist: Vec<f64>,
    /// The source node's own `MD` row, as finite entries `(j, w)` ascending
    /// by peer.
    own_row: Vec<(u32, f64)>,
}

impl MemdSolver {
    /// Creates a solver (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the source's `MD` row: `EMD(t)` towards every met peer, as
    /// finite entries `(j, EMD_j)` ascending by peer. The paper-unspecified
    /// corner cases are resolved as:
    ///
    /// * never met / no intervals → unknown (no entry);
    /// * "overdue" (elapsed exceeds all recorded intervals, conditional set
    ///   empty) → unknown (no entry): the estimator has no admissible
    ///   evidence left, and treating overdue links as attractive was measured
    ///   to cause single-copy thrashing (see the `ablation emd` grid).
    pub fn build_emd_row(&mut self, history: &ContactHistory, now: SimTime) -> &[(u32, f64)] {
        self.own_row.clear();
        self.own_row.extend(emd_entries(history, now));
        &self.own_row
    }

    /// Builds an own-row of plain mean intervals (no Theorem-2 elapsed-time
    /// correction) — the Jones et al. MEED-style baseline the `ablation emd`
    /// grid uses to quantify what the correction buys.
    pub fn build_mean_row(&mut self, history: &ContactHistory) -> &[(u32, f64)] {
        self.own_row.clear();
        self.own_row.extend(mean_entries(history));
        &self.own_row
    }

    /// MEMD from `src` to all nodes, over `mi` with `src`'s row overridden by
    /// `own_row`, given as `(j, weight)` entries (use
    /// [`MemdSolver::build_emd_row`] first, or pass any custom override;
    /// non-finite weights are ignored). Returns the distance vector;
    /// unreachable = ∞.
    ///
    /// Optionally `restrict` limits the graph to a subset of nodes (the
    /// intra-community MEMD′ of §IV); `None` means all nodes.
    pub fn memd_from(
        &mut self,
        src: NodeId,
        mi: &MiMatrix,
        own_row: &[(u32, f64)],
        restrict: Option<&[NodeId]>,
    ) -> &[f64] {
        solve_into(&mut self.dist, src, mi, own_row.iter().copied(), restrict);
        &self.dist
    }

    /// Convenience: full MEMD vector for `history.me()` at `now`.
    pub fn memd_all(
        &mut self,
        history: &ContactHistory,
        mi: &MiMatrix,
        now: SimTime,
        restrict: Option<&[NodeId]>,
    ) -> &[f64] {
        let own_row = emd_entries(history, now);
        solve_into(&mut self.dist, history.me(), mi, own_row, restrict);
        &self.dist
    }

    /// As [`MemdSolver::memd_all`] but with the mean-interval own-row (no
    /// Theorem-2 correction).
    pub fn memd_all_mean(
        &mut self,
        history: &ContactHistory,
        mi: &MiMatrix,
        restrict: Option<&[NodeId]>,
    ) -> &[f64] {
        let own_row = mean_entries(history);
        solve_into(&mut self.dist, history.me(), mi, own_row, restrict);
        &self.dist
    }

    /// The last computed distance vector.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut s = MemdSolver::new();
        let emd_row = sparse(&[0.0, 10.0, 50.0]); // same as MI row here
        let d = s.memd_from(NodeId(0), &mi, &emd_row, None);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 10.0);
        assert_eq!(d[2], 20.0, "two-hop path beats direct");
    }

    #[test]
    fn emd_row_override_changes_first_hop() {
        let mi = mi_from(3, &[(0, 1, 10.0), (1, 2, 10.0), (0, 2, 50.0)]);
        let mut s = MemdSolver::new();
        // Node 0 just met 1 recently: its *current* expected delay to 1 is
        // only 2 (Theorem 2), so MEMD(0→2) drops to 12.
        let emd_row = sparse(&[0.0, 2.0, 50.0]);
        let d = s.memd_from(NodeId(0), &mi, &emd_row, None);
        assert_eq!(d[2], 12.0);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mi = mi_from(4, &[(0, 1, 5.0)]);
        let mut s = MemdSolver::new();
        let emd_row = sparse(&[0.0, 5.0, f64::INFINITY, f64::INFINITY]);
        let d = s.memd_from(NodeId(0), &mi, &emd_row, None);
        assert!(d[2].is_infinite());
        assert!(d[3].is_infinite());
    }

    #[test]
    fn restriction_blocks_outside_relays() {
        // Path 0-1-2 exists, but 1 is outside the allowed subset.
        let mi = mi_from(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]);
        let mut s = MemdSolver::new();
        let emd_row = sparse(&[0.0, 1.0, 10.0]);
        let d = s.memd_from(NodeId(0), &mi, &emd_row, Some(&[NodeId(0), NodeId(2)]));
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
        let mut s = MemdSolver::new();
        // At t=250 (elapsed 50): EMD = 100 - 50 = 50.
        let row = dense(s.build_emd_row(&h, SimTime::secs(250.0)), 0, 3);
        assert!((row[1] - 50.0).abs() < 1e-12);
        assert!(row[2].is_infinite(), "never met → unknown");
        assert_eq!(row[0], 0.0);
        // Overdue (elapsed 150 > all intervals): no admissible evidence.
        let row = dense(s.build_emd_row(&h, SimTime::secs(350.0)), 0, 3);
        assert!(row[1].is_infinite());
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
        let mut s = MemdSolver::new();
        let d = s.memd_all(&h, &mi, SimTime::secs(250.0), None);
        assert!((d[1] - 50.0).abs() < 1e-12);
        assert!((d[2] - 80.0).abs() < 1e-12, "50 to reach 1 + 30 onwards");
    }
}
