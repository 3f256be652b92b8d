//! Community structure (§IV-A) and the ENEC estimator (Theorem 4).
//!
//! The paper predefines communities ("in the implementation of the CR, the
//! communities in the network are predefined for simplicity"); we take the
//! same approach — [`CommunityMap`] is built from a per-node community-id
//! assignment provided by the scenario (ground-truth districts).

use crate::history::ContactHistory;
use dtn_sim::{NodeId, SimTime};

/// Identifier of a community.
pub type CommunityId = u32;

/// A static partition of the nodes into communities.
#[derive(Clone, Debug)]
pub struct CommunityMap {
    cid_of: Vec<CommunityId>,
    /// Each node's index in its community's member list.
    position: Vec<u32>,
    members: Vec<Vec<NodeId>>,
}

impl CommunityMap {
    /// Builds the map from a per-node community assignment.
    ///
    /// # Panics
    /// Panics if `cid_of` is empty.
    pub fn new(cid_of: Vec<CommunityId>) -> Self {
        assert!(!cid_of.is_empty());
        let n_comm = cid_of.iter().copied().max().unwrap() as usize + 1;
        let mut members = vec![Vec::new(); n_comm];
        let mut position = Vec::with_capacity(cid_of.len());
        for (i, &c) in cid_of.iter().enumerate() {
            let list = &mut members[c as usize];
            position.push(list.len() as u32);
            list.push(NodeId(i as u32));
        }
        CommunityMap {
            cid_of,
            position,
            members,
        }
    }

    /// Community id of `node`.
    #[inline]
    pub fn cid(&self, node: NodeId) -> CommunityId {
        self.cid_of[node.idx()]
    }

    /// Index of `node` in its community's member list: the row and column
    /// CR's intra-community tables give it.
    #[inline]
    pub fn position(&self, node: NodeId) -> u32 {
        self.position[node.idx()]
    }

    /// Nodes belonging to community `c`, ascending by id.
    #[inline]
    pub fn members(&self, c: CommunityId) -> &[NodeId] {
        &self.members[c as usize]
    }

    /// Number of communities `l`.
    #[inline]
    pub fn n_communities(&self) -> usize {
        self.members.len()
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.cid_of.len()
    }

    /// Whether two nodes share a community.
    #[inline]
    pub fn same_community(&self, a: NodeId, b: NodeId) -> bool {
        self.cid(a) == self.cid(b)
    }

    /// Theorem 4: expected number of encountering communities for
    /// `history.me()` within `(now, now+τ]`:
    /// `ENEC(t, τ) = Σ_{k ≠ CID(me)} (1 − Π_{j ∈ C_k} (1 − mτ_ij/m_ij))`.
    pub fn enec(&self, history: &ContactHistory, now: SimTime, tau: f64) -> f64 {
        let my_cid = self.cid(history.me());
        let mut sum = 0.0;
        for (k, members) in self.members.iter().enumerate() {
            if k as CommunityId == my_cid {
                continue;
            }
            sum += history.community_meet_probability(now, tau, members);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexes_members() {
        let m = CommunityMap::new(vec![0, 1, 0, 2, 1]);
        assert_eq!(m.n_communities(), 3);
        assert_eq!(m.n_nodes(), 5);
        assert_eq!(m.cid(NodeId(3)), 2);
        assert_eq!(m.members(0), &[NodeId(0), NodeId(2)]);
        assert_eq!(m.members(1), &[NodeId(1), NodeId(4)]);
        assert_eq!(m.position(NodeId(2)), 1);
        assert_eq!(m.position(NodeId(3)), 0);
        assert_eq!(m.position(NodeId(4)), 1);
        assert!(m.same_community(NodeId(0), NodeId(2)));
        assert!(!m.same_community(NodeId(0), NodeId(1)));
    }

    #[test]
    fn enec_excludes_own_community_and_sums_probabilities() {
        // Communities: {0,1} (home of node 0), {2}, {3}.
        let map = CommunityMap::new(vec![0, 0, 1, 2]);
        let mut h = ContactHistory::new(NodeId(0), 4, 8);
        // Meet node 2 (community 1) periodically: p≈1 over a long horizon.
        for t in [0.0, 50.0, 100.0] {
            h.record_meeting(NodeId(2), SimTime::secs(t));
        }
        // Meet node 1 (own community): must not count.
        for t in [0.0, 10.0, 20.0] {
            h.record_meeting(NodeId(1), SimTime::secs(t));
        }
        let now = SimTime::secs(110.0);
        let enec = map.enec(&h, now, 100.0);
        let p2 = h.pair(NodeId(2)).meet_probability(now, 100.0);
        assert!((enec - p2).abs() < 1e-12, "only community 1 contributes");
        assert!(enec > 0.0);
        // Never-met community 2 contributes zero.
    }

    #[test]
    fn enec_bounded_by_foreign_community_count() {
        let map = CommunityMap::new(vec![0, 1, 1, 2, 2]);
        let mut h = ContactHistory::new(NodeId(0), 5, 8);
        for peer in 1..5u32 {
            for t in [0.0, 10.0, 20.0] {
                h.record_meeting(NodeId(peer), SimTime::secs(t + f64::from(peer)));
            }
        }
        let enec = map.enec(&h, SimTime::secs(25.0), 1000.0);
        assert!(enec <= 2.0 + 1e-12, "at most l−1 = 2, got {enec}");
        assert!(enec > 1.5, "long horizon: both foreign communities likely");
    }
}
