//! The meeting-interval matrix `MI` and its freshness-based gossip.
//!
//! Every EER node keeps, for each of the `n` nodes `i`, the row of average
//! meeting intervals `I_ij` that node `i` last published, together with the
//! row's update time. Row `i` is authoritative at node `i` (computed from its
//! own history); all other rows arrive by gossip: when two nodes meet they
//! exchange rows, each adopting the rows the other has fresher — the paper's
//! footnote 1 ("only the rows with the fresher update time need to be
//! exchanged ... which can reduce the routing information exchange overhead
//! greatly").
//!
//! A row is stored as one immutable, owner-authored version: the finite
//! off-diagonal entries `(j, I_ij)` ascending by column, behind an [`Arc`].
//! Adopting a fresher row therefore clones a pointer, and every node that
//! holds the same version shares one copy of its entries. A node's state is
//! `n` row pointers and stamps plus the entries it actually knows.
//!
//! Entries absent from a row are unknown (`f64::INFINITY`); the diagonal is
//! always 0.

use dtn_sim::NodeId;
use std::sync::Arc;

/// One row version: the finite off-diagonal entries, ascending by column.
type Row = Arc<[(u32, f64)]>;

/// Meeting-interval matrix with per-row freshness stamps.
#[derive(Clone, Debug)]
pub struct MiMatrix {
    /// Row versions; `None` = never updated (no entry known).
    rows: Vec<Option<Row>>,
    /// Last update time per row; `-1` = never updated.
    row_time: Vec<f64>,
}

impl MiMatrix {
    /// Creates an all-unknown matrix for `n` nodes.
    pub fn new(n: u32) -> Self {
        let n = n as usize;
        MiMatrix {
            rows: vec![None; n],
            row_time: vec![-1.0; n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Entry `I_ij` (`INFINITY` = unknown, `0` on the diagonal).
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> f64 {
        if i == j {
            return 0.0;
        }
        let row = self.row_entries(i);
        match row.binary_search_by_key(&j.0, |&(col, _)| col) {
            Ok(k) => row[k].1,
            Err(_) => f64::INFINITY,
        }
    }

    /// The known (finite, off-diagonal) entries `(j, I_ij)` of row `i`,
    /// ascending by column.
    #[inline]
    pub fn row_entries(&self, i: NodeId) -> &[(u32, f64)] {
        self.rows[i.idx()].as_deref().unwrap_or(&[])
    }

    /// Freshness stamp of row `i` (`-1` = never updated).
    #[inline]
    pub fn row_time(&self, i: NodeId) -> f64 {
        self.row_time[i.idx()]
    }

    /// Replaces row `i` with a new version holding `entries` and stamps it
    /// with `time`. Entries must ascend by column; non-finite values
    /// (unknown) and the diagonal are dropped.
    pub fn set_row(&mut self, i: NodeId, entries: impl IntoIterator<Item = (u32, f64)>, time: f64) {
        let row: Row = entries
            .into_iter()
            .filter(|&(j, v)| j != i.0 && v.is_finite())
            .collect();
        assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "row entries must ascend by column"
        );
        assert!(
            row.last().is_none_or(|&(j, _)| (j as usize) < self.n()),
            "row entry outside the network"
        );
        self.rows[i.idx()] = Some(row);
        self.row_time[i.idx()] = time;
    }

    /// Updates a single entry of row `i` (stamping the row with `time`, which
    /// never moves the stamp backwards). A non-finite `value` makes the entry
    /// unknown; the diagonal stays 0.
    ///
    /// The new version is the old one with entry `j` spliced in, replaced or
    /// out, built in one allocation. If entry `j` keeps its bits, the row
    /// keeps its version and only the stamp moves.
    pub fn set_entry(&mut self, i: NodeId, j: NodeId, value: f64, time: f64) {
        let old = self.row_entries(i);
        let at = old.partition_point(|&(c, _)| c < j.0);
        let found = old.get(at).filter(|&&(c, _)| c == j.0).map(|&(_, v)| v);
        let new = (i != j && value.is_finite()).then_some(value);
        if found.map(f64::to_bits) != new.map(f64::to_bits) {
            let rest = at + usize::from(found.is_some());
            let row: Row = old[..at]
                .iter()
                .copied()
                .chain(new.map(|v| (j.0, v)))
                .chain(old[rest..].iter().copied())
                .collect();
            self.rows[i.idx()] = Some(row);
        }
        self.row_time[i.idx()] = self.row_time[i.idx()].max(time);
    }

    /// Adopts every row the `other` matrix has fresher, by sharing its
    /// version. Returns the number of rows adopted (for control-overhead
    /// accounting).
    pub fn merge_from(&mut self, other: &MiMatrix) -> usize {
        assert_eq!(self.n(), other.n());
        let mut copied = 0;
        for i in 0..self.n() {
            if other.row_time[i] > self.row_time[i] {
                self.adopt(other, i);
                copied += 1;
            }
        }
        copied
    }

    /// As [`MiMatrix::merge_from`], but compares only the rows of `nodes`
    /// (the rows a community-local gossip can ever set).
    pub fn merge_rows_from(&mut self, other: &MiMatrix, nodes: &[NodeId]) -> usize {
        assert_eq!(self.n(), other.n());
        let mut copied = 0;
        for i in nodes {
            if other.row_time[i.idx()] > self.row_time[i.idx()] {
                self.adopt(other, i.idx());
                copied += 1;
            }
        }
        copied
    }

    #[inline]
    fn adopt(&mut self, other: &MiMatrix, i: usize) {
        self.rows[i].clone_from(&other.rows[i]);
        self.row_time[i] = other.row_time[i];
    }

    /// Whether two matrices hold identical data (for convergence tests).
    pub fn same_data(&self, other: &MiMatrix) -> bool {
        self.n() == other.n()
            && (0..self.n()).all(|i| {
                let i = NodeId(i as u32);
                self.row_entries(i) == other.row_entries(i)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(column, value)` pairs of a dense row literal.
    fn dense(values: &[f64]) -> impl Iterator<Item = (u32, f64)> + '_ {
        values.iter().enumerate().map(|(j, &v)| (j as u32, v))
    }

    #[test]
    fn starts_unknown_with_zero_diagonal() {
        let m = MiMatrix::new(3);
        assert_eq!(m.get(NodeId(0), NodeId(0)), 0.0);
        assert!(m.get(NodeId(0), NodeId(1)).is_infinite());
        assert_eq!(m.row_time(NodeId(2)), -1.0);
        assert!(m.row_entries(NodeId(2)).is_empty());
    }

    #[test]
    fn set_row_stamps_and_zeroes_diagonal() {
        let mut m = MiMatrix::new(3);
        m.set_row(NodeId(1), dense(&[5.0, 99.0, 7.0]), 10.0);
        assert_eq!(m.get(NodeId(1), NodeId(0)), 5.0);
        assert_eq!(m.get(NodeId(1), NodeId(1)), 0.0, "diagonal forced to 0");
        assert_eq!(m.get(NodeId(1), NodeId(2)), 7.0);
        assert_eq!(m.row_time(NodeId(1)), 10.0);
        assert_eq!(m.row_entries(NodeId(1)), &[(0, 5.0), (2, 7.0)]);
    }

    #[test]
    fn set_row_keeps_only_finite_entries() {
        let mut m = MiMatrix::new(4);
        m.set_row(NodeId(0), dense(&[0.0, f64::INFINITY, 3.0, f64::NAN]), 1.0);
        assert_eq!(m.row_entries(NodeId(0)), &[(2, 3.0)]);
        assert!(m.get(NodeId(0), NodeId(1)).is_infinite());
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn set_row_rejects_unsorted_entries() {
        let mut m = MiMatrix::new(3);
        m.set_row(NodeId(0), [(2, 1.0), (1, 1.0)], 1.0);
    }

    #[test]
    fn merge_adopts_only_fresher_rows() {
        let mut a = MiMatrix::new(3);
        let mut b = MiMatrix::new(3);
        a.set_row(NodeId(0), dense(&[0.0, 10.0, 20.0]), 5.0);
        a.set_row(NodeId(2), dense(&[1.0, 2.0, 0.0]), 50.0);
        b.set_row(NodeId(0), dense(&[0.0, 11.0, 21.0]), 9.0); // fresher
        b.set_row(NodeId(2), dense(&[9.0, 9.0, 0.0]), 3.0); // staler
        let copied = a.merge_from(&b);
        assert_eq!(copied, 1);
        assert_eq!(a.get(NodeId(0), NodeId(1)), 11.0, "fresher row adopted");
        assert_eq!(a.get(NodeId(2), NodeId(0)), 1.0, "staler row kept");
    }

    #[test]
    fn merge_shares_the_adopted_version() {
        let mut a = MiMatrix::new(3);
        let mut b = MiMatrix::new(3);
        b.set_row(NodeId(1), dense(&[4.0, 0.0, 6.0]), 2.0);
        assert_eq!(a.merge_from(&b), 1);
        assert!(std::ptr::eq(
            a.row_entries(NodeId(1)),
            b.row_entries(NodeId(1))
        ));
    }

    #[test]
    fn merge_rows_from_compares_only_the_given_rows() {
        let mut a = MiMatrix::new(4);
        let mut b = MiMatrix::new(4);
        b.set_row(NodeId(1), dense(&[4.0, 0.0, 6.0, 7.0]), 2.0);
        b.set_row(NodeId(3), dense(&[1.0, 2.0, 3.0, 0.0]), 2.0);
        assert_eq!(a.merge_rows_from(&b, &[NodeId(0), NodeId(1)]), 1);
        assert_eq!(a.get(NodeId(1), NodeId(3)), 7.0);
        assert_eq!(
            a.row_time(NodeId(3)),
            -1.0,
            "row outside the subset untouched"
        );
    }

    #[test]
    fn bidirectional_merge_converges() {
        let mut a = MiMatrix::new(3);
        let mut b = MiMatrix::new(3);
        a.set_row(NodeId(0), dense(&[0.0, 10.0, 20.0]), 5.0);
        b.set_row(NodeId(1), dense(&[30.0, 0.0, 40.0]), 7.0);
        let a2 = a.clone();
        a.merge_from(&b);
        b.merge_from(&a2);
        // After a second sync in either direction they are identical.
        b.merge_from(&a);
        assert!(a.same_data(&b));
        assert_eq!(a.get(NodeId(1), NodeId(0)), 30.0);
        assert_eq!(b.get(NodeId(0), NodeId(2)), 20.0);
    }

    /// A splice that leaves every entry's bits as they were keeps the shared
    /// version; one that changes a bit, even `0.0` to `-0.0`, makes a new one.
    #[test]
    fn set_entry_keeps_the_version_only_while_the_bits_stay() {
        let mut m = MiMatrix::new(3);
        m.set_row(NodeId(0), [(1, 0.0)], 1.0);
        let before: *const [(u32, f64)] = m.row_entries(NodeId(0));
        m.set_entry(NodeId(0), NodeId(1), 0.0, 2.0);
        m.set_entry(NodeId(0), NodeId(2), f64::INFINITY, 3.0);
        m.set_entry(NodeId(0), NodeId(0), 9.0, 4.0);
        assert!(std::ptr::eq(before, m.row_entries(NodeId(0))));
        assert_eq!(m.row_time(NodeId(0)), 4.0, "only the stamp moves");
        m.set_entry(NodeId(0), NodeId(1), -0.0, 5.0);
        assert!(!std::ptr::eq(before, m.row_entries(NodeId(0))));
        assert_eq!(m.get(NodeId(0), NodeId(1)).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn set_entry_bumps_row_time_monotonically() {
        let mut m = MiMatrix::new(2);
        m.set_entry(NodeId(0), NodeId(1), 42.0, 10.0);
        assert_eq!(m.row_time(NodeId(0)), 10.0);
        m.set_entry(NodeId(0), NodeId(1), 43.0, 5.0);
        assert_eq!(m.row_time(NodeId(0)), 10.0, "older stamp must not regress");
        assert_eq!(m.get(NodeId(0), NodeId(1)), 43.0);
        m.set_entry(NodeId(0), NodeId(1), f64::INFINITY, 11.0);
        assert!(m.row_entries(NodeId(0)).is_empty(), "∞ makes it unknown");
    }
}
