//! CR — the Community-based Routing protocol (§IV, Algorithms 2–4).
//!
//! Nodes are partitioned into communities (predefined, as in the paper's
//! implementation). Every message carries its destination's community id.
//!
//! **Inter-community routing** (carrier outside the destination community):
//!
//! * peer *in* the destination community → hand over **all** replicas
//!   (Algorithm 3, lines 1–2);
//! * `Mk > 1` → split replicas proportionally to the two nodes' expected
//!   numbers of encountering communities, `ENEC(t, α·TTLk)` (Theorem 4);
//! * `Mk = 1` → forward iff the peer's probability of meeting the
//!   destination community within `α·TTLk` exceeds ours (`P_ic < P_jc`).
//!
//! **Intra-community routing** (carrier inside the destination community):
//!
//! * only same-community peers are considered;
//! * `Mk > 1` → split by intra-community EEV′ proportion;
//! * `Mk = 1` → forward iff intra-community `MEMD′(me, dst) > MEMD′(peer,
//!   dst)`.
//!
//! The key systems payoff over EER: the gossiped state shrinks from the full
//! `n × n` MI to the community-local sub-matrix, so CR exchanges far fewer
//! control bytes (measured by the `ablation cr-state` grid). Each node's
//! intra-community MI is that sub-matrix and no more: its rows and columns
//! are the positions in [`CommunityMap::members`] of the node's community.

use crate::community::CommunityMap;
use crate::decision::{DecisionBatches, HorizonCache};
use crate::eer::{quantise_tau, replica_share};
use crate::history::{ContactHistory, DEFAULT_WINDOW};
use crate::memd::{emd_entries, solve_into};
use crate::mi::MiMatrix;
use crate::policy::BufferPolicy;
use dtn_sim::{ContactCtx, Message, NodeCtx, NodeId, Router, SimTime, TransferPlan};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

/// CR tuning parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrConfig {
    /// Quota λ: initial replicas per message.
    pub lambda: u32,
    /// The TTL-fraction horizon parameter α (paper: 0.28).
    pub alpha: f64,
    /// Sliding-window length per pair history.
    pub window: usize,
    /// Intra-community single-copy hysteresis in seconds (see
    /// `EerConfig::forward_hysteresis`).
    pub forward_hysteresis: f64,
    /// Inter-community single-copy hysteresis in probability units: forward
    /// only when `P_jc` exceeds `P_ic` by this margin.
    pub probability_hysteresis: f64,
    /// Estimator refresh window in seconds (see `EerConfig::refresh`).
    pub refresh: f64,
    /// Eviction policy under buffer pressure (future-work extension).
    pub buffer_policy: BufferPolicy,
}

impl Default for CrConfig {
    fn default() -> Self {
        CrConfig {
            lambda: 10,
            alpha: 0.28,
            window: DEFAULT_WINDOW,
            forward_hysteresis: 180.0,
            probability_hysteresis: 0.1,
            refresh: 60.0,
            buffer_policy: BufferPolicy::default(),
        }
    }
}

/// One node's CR router instance.
#[derive(Debug)]
pub struct Cr {
    me: NodeId,
    cfg: CrConfig,
    communities: Arc<CommunityMap>,
    /// Full history towards all nodes (needed for ENEC and P_ic).
    history: ContactHistory,
    /// Intra-community MI over the own community: row and column `k` are
    /// the community's `k`-th member ([`CommunityMap::position`]).
    intra_mi: MiMatrix,
    /// Pending transfer decisions per active contact.
    batches: DecisionBatches,
    /// Cached intra-community MEMD′ vector (indexed by member position),
    /// solved in place, and its computation time.
    memd_cache: Vec<f64>,
    memd_time: f64,
    /// Cached ENECs per horizon (see `cfg.refresh`).
    enec_cache: HorizonCache,
}

impl Cr {
    /// Creates a CR router for `me` with quota `lambda`.
    pub fn new(me: NodeId, n: u32, communities: Arc<CommunityMap>, lambda: u32) -> Self {
        Self::with_config(
            me,
            n,
            communities,
            CrConfig {
                lambda,
                ..CrConfig::default()
            },
        )
    }

    /// Creates a CR router with explicit parameters.
    ///
    /// # Panics
    /// Panics on zero quota, α outside `[0, 1]`, or a community map whose
    /// size disagrees with `n`.
    pub fn with_config(me: NodeId, n: u32, communities: Arc<CommunityMap>, cfg: CrConfig) -> Self {
        assert!(cfg.lambda >= 1);
        assert!((0.0..=1.0).contains(&cfg.alpha));
        assert_eq!(communities.n_nodes(), n as usize, "community map size");
        let community_size = communities.members(communities.cid(me)).len();
        Cr {
            me,
            cfg,
            history: ContactHistory::new(me, n, cfg.window),
            intra_mi: MiMatrix::new(community_size as u32),
            communities,
            batches: DecisionBatches::default(),
            memd_cache: Vec::new(),
            memd_time: f64::NEG_INFINITY,
            enec_cache: HorizonCache::new(cfg.refresh),
        }
    }

    /// The community map.
    pub fn communities(&self) -> &CommunityMap {
        &self.communities
    }

    /// Read access to the contact history.
    pub fn history(&self) -> &ContactHistory {
        &self.history
    }

    /// Read access to the intra-community MI matrix. It spans the own
    /// community only: row and column `k` belong to the `k`-th member
    /// ([`CommunityMap::position`]).
    pub fn intra_mi(&self) -> &MiMatrix {
        &self.intra_mi
    }

    /// This node's intra-community MEMD′ at `now`, solved afresh: entry `k`
    /// is the delay to the own community's `k`-th member (∞ = unreachable).
    pub fn intra_memd(&self, now: SimTime) -> Vec<f64> {
        let mut dist = Vec::new();
        self.solve_intra_memd(&mut dist, now);
        dist
    }

    /// Theorem 4 expectation for this node at `now` over `tau`.
    pub fn enec(&self, now: SimTime, tau: f64) -> f64 {
        self.communities.enec(&self.history, now, tau)
    }

    /// Own community members.
    fn my_members(&self) -> &[NodeId] {
        self.communities.members(self.communities.cid(self.me))
    }

    /// This node's row and column in the intra-community tables.
    fn my_position(&self) -> NodeId {
        NodeId(self.communities.position(self.me))
    }

    /// Publishes a new version of the own intra-MI row, stamped `now`: the
    /// history means towards the met peers of the own community. It is
    /// republished on every same-community contact, so only the mean towards
    /// `peer`, just met there, can have moved since the previous version,
    /// and that one entry is spliced into it.
    fn refresh_own_row(&mut self, peer: NodeId, now: SimTime) {
        let me = self.my_position();
        let mean = self.history.pair(peer).mean_interval();
        self.intra_mi.set_entry(
            me,
            NodeId(self.communities.position(peer)),
            mean.unwrap_or(f64::INFINITY),
            now.as_secs(),
        );
        debug_assert!(
            self.intra_mi
                .row_entries(me)
                .iter()
                .copied()
                .eq(community_entries(
                    &self.communities,
                    self.me,
                    self.history.mean_row()
                )),
            "spliced own row differs from the history means"
        );
    }

    /// Solves MEMD′ over the intra-community MI into `dist`, from the own
    /// Theorem-2 row restricted to the community.
    fn solve_intra_memd(&self, dist: &mut Vec<f64>, now: SimTime) {
        let own_row =
            community_entries(&self.communities, self.me, emd_entries(&self.history, now));
        solve_into(dist, self.my_position(), &self.intra_mi, own_row, None);
    }

    /// Re-solves the cached MEMD′ vector if it is more than `cfg.refresh`
    /// seconds old.
    fn refresh_intra_memd(&mut self, now: SimTime) {
        if now.as_secs() - self.memd_time > self.cfg.refresh {
            let mut dist = std::mem::take(&mut self.memd_cache);
            self.solve_intra_memd(&mut dist, now);
            self.memd_cache = dist;
            self.memd_time = now.as_secs();
        }
    }

    /// Theorem-4 ENEC, cached per horizon (see `cfg.refresh`).
    fn enec_cached(&mut self, now: SimTime, tau: f64) -> f64 {
        self.enec_cache
            .get(now, tau, || self.communities.enec(&self.history, now, tau))
    }

    /// Builds the decision batch for the current contact.
    #[allow(clippy::too_many_lines)]
    fn build_queue(
        &mut self,
        ctx: &mut ContactCtx<'_>,
        peer_router: &mut Cr,
    ) -> VecDeque<TransferPlan> {
        let now = ctx.now;
        let my_cid = self.communities.cid(self.me);
        let peer_cid = self.communities.cid(ctx.peer);
        let same_community = my_cid == peer_cid;

        let mut queue = VecDeque::new();
        // Intra-community MEMD′ vectors only when single intra replicas are
        // in play between same-community peers.
        let need_memd = same_community
            && ctx.buf.iter().any(|e| {
                e.copies == 1
                    && e.msg.dst != ctx.peer
                    && self.communities.cid(e.msg.dst) == my_cid
                    && !ctx.peer_buf.contains(e.msg.id)
            });
        if need_memd {
            ctx.control_bytes(16);
            self.refresh_intra_memd(now);
            peer_router.refresh_intra_memd(now);
        }
        let mut intra_ev_cache: Vec<(u64, f64, f64)> = Vec::new();

        for entry in ctx.buf.iter() {
            let msg = &entry.msg;
            if msg.dst == ctx.peer {
                queue.push_back(TransferPlan::forward(msg.id));
                continue;
            }
            if ctx.peer_buf.contains(msg.id) {
                continue;
            }
            let dst_cid = self.communities.cid(msg.dst);
            let tau = quantise_tau(self.cfg.alpha * msg.residual_ttl(now));

            if my_cid != dst_cid {
                // ---- Inter-community routing (Algorithm 3) ----
                if peer_cid == dst_cid {
                    queue.push_back(TransferPlan::forward(msg.id));
                    continue;
                }
                if entry.copies > 1 {
                    let mine = self.enec_cached(now, tau);
                    let theirs = peer_router.enec_cached(now, tau);
                    ctx.control_bytes(16); // ENEC scalar exchange
                    let give = replica_share(entry.copies, mine, theirs);
                    if give >= 1 {
                        queue.push_back(TransferPlan::split(msg.id, give));
                    }
                } else {
                    let members = self.communities.members(dst_cid);
                    let p_ic = self.history.community_meet_probability(now, tau, members);
                    let p_jc = peer_router
                        .history
                        .community_meet_probability(now, tau, members);
                    ctx.control_bytes(16);
                    if p_ic + self.cfg.probability_hysteresis < p_jc {
                        queue.push_back(TransferPlan::forward(msg.id));
                    }
                }
            } else {
                // ---- Intra-community routing (Algorithm 4) ----
                if !same_community {
                    continue; // peer outside the destination community
                }
                if entry.copies > 1 {
                    let bits = tau.to_bits();
                    let (ev_me, ev_peer) = match intra_ev_cache.iter().find(|(b, _, _)| *b == bits)
                    {
                        Some(&(_, a, b)) => (a, b),
                        None => {
                            let members = self.my_members();
                            let a = self.history.eev_over(now, tau, members);
                            let b = peer_router.history.eev_over(now, tau, members);
                            intra_ev_cache.push((bits, a, b));
                            ctx.control_bytes(16);
                            (a, b)
                        }
                    };
                    let give = replica_share(entry.copies, ev_me, ev_peer);
                    if give >= 1 {
                        queue.push_back(TransferPlan::split(msg.id, give));
                    }
                } else {
                    let k = self.communities.position(msg.dst) as usize;
                    let (mine, theirs) = (self.memd_cache[k], peer_router.memd_cache[k]);
                    if mine > theirs + self.cfg.forward_hysteresis {
                        queue.push_back(TransferPlan::forward(msg.id));
                    }
                }
            }
        }
        queue
    }
}

impl Router for Cr {
    fn label(&self) -> &'static str {
        "CR"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn initial_copies(&self, _msg: &Message) -> u32 {
        self.cfg.lambda
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer_router = peer
            .as_any_mut()
            .downcast_mut::<Cr>()
            .expect("all nodes run CR");
        let now = ctx.now;
        self.history.record_meeting(ctx.peer, now);

        // Intra-community MI gossip only between same-community nodes —
        // this is the state-size reduction CR buys over EER. Both tables
        // span the same community, position for position.
        if self.communities.same_community(self.me, ctx.peer) {
            self.refresh_own_row(ctx.peer, now);
            let copied = self.intra_mi.merge_from(&peer_router.intra_mi);
            let community_size = self.intra_mi.n();
            ctx.control_bytes(8 * (copied * community_size + community_size) as u64);
        }

        let queue = self.build_queue(ctx, peer_router);
        self.batches.decide(ctx.peer, queue);
    }

    fn on_contact_down(&mut self, _ctx: &mut NodeCtx<'_>, peer: NodeId) {
        self.batches.forget(peer);
    }

    fn select_drops(
        &mut self,
        buf: &dtn_sim::Buffer,
        incoming: &Message,
        now: SimTime,
    ) -> Vec<dtn_sim::MessageId> {
        self.cfg.buffer_policy.victims(buf, incoming, now)
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        self.batches.next(ctx)
    }
}

/// The entries of a row over global ids that fall in `me`'s community, as
/// `(position, value)`: positions ascend with ids, so the row stays sorted.
fn community_entries<'a>(
    communities: &'a CommunityMap,
    me: NodeId,
    row: impl Iterator<Item = (u32, f64)> + 'a,
) -> impl Iterator<Item = (u32, f64)> + 'a {
    let my_cid = communities.cid(me);
    row.filter_map(move |(j, v)| {
        let j = NodeId(j);
        (communities.cid(j) == my_cid).then(|| (communities.position(j), v))
    })
}

/// Convenience: a router factory closure for CR over a shared community map.
pub fn cr_factory(
    communities: Arc<CommunityMap>,
    lambda: u32,
) -> impl FnMut(NodeId, u32) -> Box<dyn Router> {
    move |id, n| Box::new(Cr::new(id, n, Arc::clone(&communities), lambda))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    fn map(cids: Vec<u32>) -> Arc<CommunityMap> {
        Arc::new(CommunityMap::new(cids))
    }

    #[test]
    fn peer_in_destination_community_gets_all_replicas() {
        // Communities: {0}, {1, 2}. Message 0→2. Node 1 is in dst community.
        let communities = map(vec![0, 1, 1]);
        let trace = ContactTrace::new(
            3,
            200.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0),
                Contact::new(1, 2, 50.0, 55.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 190.0,
        }];
        let stats =
            Simulation::new(&trace, wl, SimConfig::paper(0), cr_factory(communities, 10)).run();
        // 0 hands everything to 1 (dst community), 1 delivers to 2.
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 2);
    }

    #[test]
    fn direct_delivery_works_across_communities() {
        let communities = map(vec![0, 1]);
        let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1000,
            ttl: 90.0,
        }];
        let stats =
            Simulation::new(&trace, wl, SimConfig::paper(0), cr_factory(communities, 10)).run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 1);
    }

    /// Outside the destination community, single copies follow P_ic < P_jc.
    #[test]
    fn inter_community_single_copy_follows_community_probability() {
        // Communities: {0, 1}, {2, 3}. Node 1 meets community-2 member 3
        // periodically; node 0 never leaves home. Message 0→2 with λ=1.
        let communities = map(vec![0, 0, 1, 1]);
        let mut contacts = vec![];
        for rep in 0..6 {
            let t = 50.0 * f64::from(rep) + 5.0;
            contacts.push(Contact::new(1, 3, t, t + 2.0));
        }
        // 0 meets 1 while 1's window to community 1 is still "admissible"
        // (within 50 s of its last 1–3 contact, so Eq. 4 gives p > 0).
        contacts.push(Contact::new(0, 1, 280.0, 285.0));
        let trace = ContactTrace::new(4, 1000.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(270.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 600.0,
        }];
        let stats =
            Simulation::new(&trace, wl, SimConfig::paper(0), cr_factory(communities, 1)).run();
        assert_eq!(
            stats.relayed, 1,
            "0 must hand the copy to 1, who actually meets community 1"
        );
    }

    /// Intra-community: messages never leak to outside peers.
    #[test]
    fn intra_community_message_stays_inside() {
        // Communities: {0, 2}, {1}. Message 0→2 (intra). Node 0 only ever
        // meets outsider 1: no transfer may happen.
        let communities = map(vec![0, 1, 0]);
        let trace = ContactTrace::new(
            3,
            300.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0),
                Contact::new(0, 1, 100.0, 105.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 290.0,
        }];
        let stats =
            Simulation::new(&trace, wl, SimConfig::paper(0), cr_factory(communities, 1)).run();
        assert_eq!(stats.relayed, 0, "outsiders must not carry intra traffic");
    }

    /// Intra-community single-copy forwarding uses MEMD′ and delivers.
    #[test]
    fn intra_community_memd_forwarding() {
        // Community {0, 1, 2} (all one community). Node 1 meets destination
        // 2 periodically; 0 does not. 0 should hand its single copy to 1.
        let communities = map(vec![0, 0, 0]);
        let mut contacts = vec![];
        for rep in 0..12 {
            let t = 100.0 * f64::from(rep) + 10.0;
            contacts.push(Contact::new(1, 2, t, t + 2.0));
        }
        contacts.push(Contact::new(0, 1, 450.0, 452.0));
        contacts.push(Contact::new(0, 1, 850.0, 855.0));
        let trace = ContactTrace::new(3, 2000.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(800.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 1200.0,
        }];
        let stats =
            Simulation::new(&trace, wl, SimConfig::paper(0), cr_factory(communities, 1)).run();
        assert_eq!(stats.delivered, 1, "1 delivers at the next 1–2 contact");
        assert_eq!(stats.relayed, 2, "handover 0→1 plus delivery hop 1→2");
    }

    /// CR's gossip is community-local: contacts between different
    /// communities exchange no MI rows.
    #[test]
    fn no_mi_gossip_across_communities() {
        let communities = map(vec![0, 1]);
        let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
        let mut sim = Simulation::new(
            &trace,
            vec![],
            SimConfig::paper(0),
            cr_factory(communities, 10),
        );
        let stats = sim.run_to_end();
        assert_eq!(
            stats.control_bytes, 0,
            "inter-community contact with no messages exchanges nothing"
        );
    }
}
