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
//! One solver instance owns its scratch buffers so repeated per-contact
//! computations don't allocate.

use crate::history::ContactHistory;
use crate::mi::MiMatrix;
use dtn_sim::{NodeId, SimTime};
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

/// Reusable heap-Dijkstra solver for MEMD queries.
#[derive(Clone, Debug, Default)]
pub struct MemdSolver {
    dist: Vec<f64>,
    done: Vec<bool>,
    heap: BinaryHeap<Frontier>,
    /// The source node's own `MD` row (Theorem 2 values), as finite entries
    /// `(j, EMD_j)` ascending by peer.
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
        for (j, pair) in history.met() {
            if j == history.me() {
                continue;
            }
            if let Some(d) = pair.expected_meeting_delay(now) {
                self.own_row.push((j.0, d.max(0.0)));
            }
        }
        &self.own_row
    }

    /// Builds an own-row of plain mean intervals (no Theorem-2 elapsed-time
    /// correction) — the Jones et al. MEED-style baseline the `ablation emd`
    /// grid uses to quantify what the correction buys.
    pub fn build_mean_row(&mut self, history: &ContactHistory) -> &[(u32, f64)] {
        self.own_row.clear();
        let me = history.me().0;
        self.own_row
            .extend(history.mean_row().filter(|&(j, _)| j != me));
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
        let n = mi.n();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.done.clear();
        match restrict {
            Some(nodes) => {
                self.done.resize(n, true);
                for v in nodes {
                    self.done[v.idx()] = false;
                }
                self.done[src.idx()] = false;
            }
            None => self.done.resize(n, false),
        }
        // `done[v] = true` marks nodes outside the restricted set as already
        // finalised (at ∞), so they are never relaxed through.
        self.heap.clear();
        self.dist[src.idx()] = 0.0;
        self.heap.push(Frontier {
            dist: 0.0,
            node: src.0,
        });
        while let Some(Frontier { dist: best, node }) = self.heap.pop() {
            let u = node as usize;
            if self.done[u] {
                continue; // a stale entry: `u` was finalized at a smaller distance
            }
            self.done[u] = true;
            let row = if u == src.idx() {
                own_row
            } else {
                mi.row_entries(NodeId(node))
            };
            for &(v, w) in row {
                let vi = v as usize;
                if self.done[vi] || !w.is_finite() {
                    continue;
                }
                let nd = best + w;
                if nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.heap.push(Frontier { dist: nd, node: v });
                }
            }
        }
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
        self.build_emd_row(history, now);
        self.memd_own_row(history.me(), mi, restrict)
    }

    /// As [`MemdSolver::memd_all`] but with the mean-interval own-row (no
    /// Theorem-2 correction).
    pub fn memd_all_mean(
        &mut self,
        history: &ContactHistory,
        mi: &MiMatrix,
        restrict: Option<&[NodeId]>,
    ) -> &[f64] {
        self.build_mean_row(history);
        self.memd_own_row(history.me(), mi, restrict)
    }

    /// [`MemdSolver::memd_from`] with the own row last built.
    fn memd_own_row(&mut self, src: NodeId, mi: &MiMatrix, restrict: Option<&[NodeId]>) -> &[f64] {
        let row = std::mem::take(&mut self.own_row);
        let _ = self.memd_from(src, mi, &row, restrict);
        self.own_row = row;
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
