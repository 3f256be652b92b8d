//! MaxProp (Burgess, Gallagher, Jensen & Levine, INFOCOM'06).
//!
//! An epidemic-family protocol for vehicular DTNs with three ingredients:
//!
//! 1. **Delivery likelihoods** — incrementally averaged meeting
//!    probabilities, flooded through the network, giving every node an
//!    estimated cost (sum of `1 − p` along the cheapest path) to every
//!    destination;
//! 2. **Transmission priority** — fresh (low hop-count) messages first, then
//!    ascending destination cost;
//! 3. **Acknowledgements** — delivery acks flood the network and purge
//!    delivered messages from buffers; the eviction policy drops
//!    highest-cost, most-travelled messages first.
//!
//! Simplification vs. the original: the adaptive hop-count threshold
//! (derived from average transfer opportunity) is a fixed configurable
//! constant.
//!
//! # State layout
//!
//! A likelihood vector is one immutable version: a node's `n` meeting
//! probabilities behind an [`Arc`], stamped with the time it was published.
//! Each node holds
//!
//! - its own vector, copy-on-write: a meeting re-normalises it in place, or
//!   into a new version while another node still holds the current one;
//! - one slot per node with the freshest version it has heard of, and that
//!   version's stamp. Flooding adopts a fresher version by cloning the
//!   pointer, so every node holding a version shares one copy of it;
//! - the slots as they were at the last cost refresh, with the own vector in
//!   its own slot, and the destination costs solved from them. The solve
//!   runs only when a decision reads a cost, at most once per refresh: a
//!   transfer pick with no offerable message below the hop threshold, an
//!   eviction ranking a message at or above it, or [`MaxProp::cost_to`];
//! - the delivered-message ids as a bitset over the dense [`MessageId`]s,
//!   with a running count.
//!
//! Per node that is `n` slots and stamps, `n` refresh-time slots and `n`
//! costs, plus the versions it shares with the rest of the network.

use crate::util::{control_size, deliver_forward};
use dtn_sim::{
    Buffer, BufferEntry, ContactCtx, Message, MessageId, NodeCtx, NodeId, Router, SimTime,
    TransferPlan,
};
use std::any::Any;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// MaxProp parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaxPropConfig {
    /// Messages with fewer hops than this are prioritised by hop count and
    /// protected from eviction.
    pub hop_threshold: u32,
    /// Seconds a cost refresh stands: the first contact more than this long
    /// after the last refresh captures the likelihood vectors the node knows
    /// at that moment, and costs are solved from those vectors until the
    /// next refresh. This is part of the model, not a performance knob: it
    /// decides which vectors transmission priorities and evictions see, so
    /// results depend on it.
    pub cost_refresh: f64,
}

impl Default for MaxPropConfig {
    fn default() -> Self {
        MaxPropConfig {
            hop_threshold: 7,
            cost_refresh: 60.0,
        }
    }
}

/// One likelihood-vector version: a node's meeting probabilities towards
/// every node, shared by all its holders.
type Likelihoods = Arc<[f64]>;

/// Delivered-message ids: a bitset over the dense [`MessageId`]s and the
/// number of ids set.
#[derive(Clone, Debug, Default)]
struct Acks {
    words: Vec<u64>,
    len: usize,
}

impl Acks {
    #[inline]
    fn contains(&self, id: MessageId) -> bool {
        self.words
            .get(id.idx() / 64)
            .is_some_and(|w| w & (1 << (id.idx() % 64)) != 0)
    }

    fn insert(&mut self, id: MessageId) {
        let (k, bit) = (id.idx() / 64, 1u64 << (id.idx() % 64));
        if k >= self.words.len() {
            self.words.resize(k + 1, 0);
        }
        if self.words[k] & bit == 0 {
            self.words[k] |= bit;
            self.len += 1;
        }
    }

    /// Adds every id of `other`.
    fn union_with(&mut self, other: &Acks) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            self.len += (o & !*w).count_ones() as usize;
            *w |= o;
        }
    }
}

/// A path cost ordered by `total_cmp`, for the solve's heap.
#[derive(PartialEq)]
struct Dist(f64);

impl Eq for Dist {}

impl PartialOrd for Dist {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Dist {
    fn cmp(&self, o: &Self) -> Ordering {
        self.0.total_cmp(&o.0)
    }
}

/// MaxProp router.
#[derive(Clone, Debug)]
pub struct MaxProp {
    me: NodeId,
    cfg: MaxPropConfig,
    /// Own meeting-probability vector (normalised to sum 1).
    f: Likelihoods,
    /// Freshest known vector of every node (`None` = unknown) and its stamp
    /// (`-1` = unknown).
    est: Vec<Option<Likelihoods>>,
    est_time: Vec<f64>,
    /// `est` as of the last refresh, own vector included: the rows the
    /// costs are solved from.
    snap: Vec<Option<Likelihoods>>,
    /// Whether `cost` is still to be solved from `snap`.
    solve_pending: bool,
    /// Delivered-message ids learned so far (flooded acks).
    acked: Acks,
    /// Cost to every destination as last solved (∞ = unreachable or not
    /// solved yet).
    cost: Vec<f64>,
    /// When the last refresh happened (`-∞` = never).
    cost_time: f64,
}

impl MaxProp {
    /// Creates a MaxProp router for `me` in a network of `n` nodes.
    pub fn new(me: NodeId, n: u32) -> Self {
        Self::with_config(me, n, MaxPropConfig::default())
    }

    /// Creates a MaxProp router with explicit parameters.
    pub fn with_config(me: NodeId, n: u32, cfg: MaxPropConfig) -> Self {
        let n = n as usize;
        let init = if n > 1 { 1.0 / (n as f64 - 1.0) } else { 0.0 };
        let mut f = vec![init; n];
        f[me.idx()] = 0.0;
        MaxProp {
            me,
            cfg,
            f: f.into(),
            est: vec![None; n],
            est_time: vec![-1.0; n],
            snap: Vec::new(),
            solve_pending: false,
            acked: Acks::default(),
            cost: vec![f64::INFINITY; n],
            cost_time: f64::NEG_INFINITY,
        }
    }

    /// Own meeting probability towards `peer`.
    pub fn meeting_probability(&self, peer: NodeId) -> f64 {
        self.f[peer.idx()]
    }

    /// Incremental averaging: bump the peer's slot by 1 and re-normalise.
    fn bump(&mut self, peer: NodeId) {
        let f = Arc::make_mut(&mut self.f);
        f[peer.idx()] += 1.0;
        let sum: f64 = f.iter().sum();
        if sum > 0.0 {
            for v in f.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// Likelihood flooding: adopts every vector `peer_router` knows fresher,
    /// including the peer's own (always freshest for itself, stamped `now`).
    fn adopt_fresher(&mut self, peer: NodeId, peer_router: &MaxProp, now: f64) {
        for (i, (mine, &theirs)) in self
            .est_time
            .iter_mut()
            .zip(&peer_router.est_time)
            .enumerate()
        {
            // An unknown vector (stamp −1) is never fresher.
            if theirs > *mine && i != peer.idx() {
                self.est[i].clone_from(&peer_router.est[i]);
                *mine = theirs;
            }
        }
        if now > self.est_time[peer.idx()] {
            self.est[peer.idx()] = Some(Arc::clone(&peer_router.f));
            self.est_time[peer.idx()] = now;
        }
    }

    /// Captures the rows the next cost solve reads: the own vector into its
    /// slot, then every slot.
    fn refresh(&mut self, now: f64) {
        self.est[self.me.idx()] = Some(Arc::clone(&self.f));
        self.est_time[self.me.idx()] = now;
        self.snap.clone_from(&self.est);
        self.solve_pending = true;
        self.cost_time = now;
    }

    /// Dijkstra over the likelihood graph of the last refresh: the cost of
    /// edge `u → v` is `1 − p_u(v)` under `u`'s vector as it was then. Runs
    /// at most once per refresh.
    fn solve_costs(&mut self) {
        if !self.solve_pending {
            return;
        }
        self.solve_pending = false;
        self.cost.fill(f64::INFINITY);
        self.cost[self.me.idx()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((Dist(0.0), self.me.0)));
        let mut visited = vec![false; self.cost.len()];
        while let Some(Reverse((Dist(d), u))) = heap.pop() {
            let ui = u as usize;
            if visited[ui] {
                continue;
            }
            visited[ui] = true;
            let Some(vec_u) = &self.snap[ui] else {
                continue; // no likelihood info about u's links
            };
            for (v, &p) in vec_u.iter().enumerate() {
                if v == ui {
                    continue;
                }
                let nd = d + (1.0 - p);
                if nd < self.cost[v] {
                    self.cost[v] = nd;
                    heap.push(Reverse((Dist(nd), v as u32)));
                }
            }
        }
    }

    /// Cost to `dst` (∞ when unknown), solved from the rows of the last
    /// refresh.
    pub fn cost_to(&mut self, dst: NodeId) -> f64 {
        self.solve_costs();
        self.cost[dst.idx()]
    }

    /// Priority key: lower sorts earlier in transmission order.
    fn priority(&self, e: &BufferEntry) -> (u32, f64) {
        if e.hops < self.cfg.hop_threshold {
            (e.hops, 0.0)
        } else {
            (u32::MAX, self.cost[e.msg.dst.idx()])
        }
    }
}

/// Transmission order of two priority keys.
fn cmp_priority(a: (u32, f64), b: (u32, f64)) -> Ordering {
    a.0.cmp(&b.0).then(a.1.total_cmp(&b.1))
}

/// Whether `e` may be offered to the peer and is not known delivered.
fn offerable(ctx: &ContactCtx<'_>, acked: &Acks, e: &BufferEntry) -> bool {
    ctx.can_offer(e.msg.id) && !acked.contains(e.msg.id)
}

impl Router for MaxProp {
    fn label(&self) -> &'static str {
        "MaxProp"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer_router = peer
            .as_any_mut()
            .downcast_mut::<MaxProp>()
            .expect("all nodes run MaxProp");
        self.bump(ctx.peer);
        let now = ctx.now.as_secs();
        self.adopt_fresher(ctx.peer, peer_router, now);
        // Ack merge and purge of known-delivered messages.
        self.acked.union_with(&peer_router.acked);
        ctx.purge.extend(
            ctx.buf
                .iter()
                .filter(|e| self.acked.contains(e.msg.id))
                .map(|e| e.msg.id),
        );
        if now - self.cost_time > self.cfg.cost_refresh {
            self.refresh(now);
        }
        // Vectors + ack ids exchanged.
        ctx.control_bytes(control_size(self.est.len() + self.acked.len));
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        // Deliverables first; delivery also generates an ack (in on_sent).
        if let Some(plan) = deliver_forward(ctx) {
            return Some(plan);
        }
        if self.cost_time == f64::NEG_INFINITY {
            return None; // no refresh yet: deliveries only
        }
        // Lowest priority key first among offerable, un-acked messages. A
        // message below the hop threshold sorts before every other one and
        // ties keep the first, so while one is on offer the pick is the
        // first with the fewest hops, and no cost is read.
        let mut fresh: Option<(u32, MessageId)> = None;
        let mut travelled = false;
        for e in ctx.buf.iter().filter(|e| offerable(ctx, &self.acked, e)) {
            if e.hops >= self.cfg.hop_threshold {
                travelled = true;
            } else if fresh.is_none_or(|(hops, _)| e.hops < hops) {
                fresh = Some((e.hops, e.msg.id));
            }
        }
        if let Some((_, id)) = fresh {
            return Some(TransferPlan::copy(id));
        }
        if !travelled {
            return None;
        }
        self.solve_costs();
        ctx.buf
            .iter()
            .filter(|e| offerable(ctx, &self.acked, e))
            .min_by(|a, b| cmp_priority(self.priority(a), self.priority(b)))
            .map(|e| TransferPlan::copy(e.msg.id))
    }

    fn on_sent(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        msg: &Message,
        _action: dtn_sim::TransferAction,
        _to: NodeId,
        delivered: bool,
    ) {
        if delivered {
            self.acked.insert(msg.id);
        }
    }

    fn on_delivery_received(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        msg: &Message,
        _from: NodeId,
        _first: bool,
    ) {
        self.acked.insert(msg.id);
    }

    /// MaxProp eviction: highest-cost, most-travelled messages go first;
    /// fresh low-hop messages are protected longest.
    fn select_drops(&mut self, buf: &Buffer, incoming: &Message, _now: SimTime) -> Vec<MessageId> {
        let mut entries: Vec<BufferEntry> =
            buf.iter().filter(|e| e.msg.id != incoming.id).collect();
        if entries.iter().any(|e| e.hops >= self.cfg.hop_threshold) {
            self.solve_costs();
        }
        // Reverse priority: worst (highest key) first.
        entries.sort_by(|a, b| cmp_priority(self.priority(b), self.priority(a)));
        entries.into_iter().map(|e| e.msg.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    #[test]
    fn bump_keeps_distribution_normalised() {
        let mut r = MaxProp::new(NodeId(0), 4);
        r.bump(NodeId(2));
        r.bump(NodeId(1));
        r.bump(NodeId(1));
        let sum: f64 = r.f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Incremental averaging is recency-weighted: the twice-met (and most
        // recently met) node 1 dominates, never-met node 3 trails.
        assert!(r.meeting_probability(NodeId(1)) > r.meeting_probability(NodeId(2)));
        assert!(r.meeting_probability(NodeId(2)) > r.meeting_probability(NodeId(3)));
        assert!(r.meeting_probability(NodeId(3)) > 0.0, "smoothing mass");
        assert_eq!(r.meeting_probability(NodeId(0)), 0.0, "never self");
    }

    /// A single recent meeting outweighs several old ones — the documented
    /// recency property of MaxProp's incremental averaging.
    #[test]
    fn bump_is_recency_weighted() {
        let mut r = MaxProp::new(NodeId(0), 4);
        r.bump(NodeId(1));
        r.bump(NodeId(1));
        r.bump(NodeId(2));
        assert!(r.meeting_probability(NodeId(2)) > r.meeting_probability(NodeId(1)));
    }

    /// The running count is the number of distinct ids, however they
    /// arrive: `control_size(n + acked)` reads it.
    #[test]
    fn acks_count_each_id_once() {
        let mut a = Acks::default();
        a.insert(MessageId(3));
        a.insert(MessageId(3));
        a.insert(MessageId(130));
        let mut b = Acks::default();
        b.insert(MessageId(3));
        b.insert(MessageId(64));
        a.union_with(&b);
        a.union_with(&b);
        assert_eq!(a.len, 3);
        let ids: Vec<u32> = (0..200).filter(|&k| a.contains(MessageId(k))).collect();
        assert_eq!(ids, vec![3, 64, 130]);
        assert!(
            !Acks::default().contains(MessageId(7)),
            "past the last word"
        );
    }

    #[test]
    fn floods_and_delivers_like_epidemic() {
        let trace = ContactTrace::new(
            4,
            200.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0),
                Contact::new(1, 2, 30.0, 35.0),
                Contact::new(2, 3, 50.0, 55.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(3),
            size: 1000,
            ttl: 190.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
            Box::new(MaxProp::new(id, n))
        })
        .run();
        assert_eq!(stats.delivered, 1);
        assert!(stats.relayed >= 3);
    }

    /// Acks purge delivered messages from intermediate buffers.
    #[test]
    fn acks_purge_delivered_messages() {
        let trace = ContactTrace::new(
            4,
            400.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0), // replicate 0→1
                Contact::new(1, 3, 30.0, 35.0), // deliver 1→3 (dst), 1 learns ack
                Contact::new(1, 2, 50.0, 55.0), // 2 learns ack... but 2 has no copy
                Contact::new(0, 2, 70.0, 75.0), // 2 tells 0? no—0 offers copy; 2 knows ack
                Contact::new(0, 1, 90.0, 95.0), // 1 tells 0 the ack → 0 purges
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(3),
            size: 1000,
            ttl: 390.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
            Box::new(MaxProp::new(id, n))
        })
        .run();
        assert_eq!(stats.delivered, 1);
        assert!(
            stats.drops_protocol >= 1,
            "source copy should be purged by the flooded ack"
        );
    }

    #[test]
    fn eviction_prefers_travelled_costly_messages() {
        let mut r = MaxProp::new(NodeId(0), 4);
        r.cost = vec![0.0, 0.5, 1.5, 2.5];
        let mut buf = Buffer::new(10_000);
        let mk = |id: u32, dst: u32, hops: u32| BufferEntry {
            msg: Message {
                id: MessageId(id),
                src: NodeId(0),
                dst: NodeId(dst),
                size: 10,
                created: SimTime::ZERO,
                ttl: 100.0,
            },
            copies: 1,
            received_at: SimTime::ZERO,
            hops,
        };
        buf.insert(mk(0, 1, 0)).unwrap(); // fresh, low hops: protected
        buf.insert(mk(1, 2, 9)).unwrap(); // travelled, cost 1.5
        buf.insert(mk(2, 3, 9)).unwrap(); // travelled, cost 2.5: first victim
        let incoming = mk(9, 1, 0).msg;
        let order = r.select_drops(&buf, &incoming, SimTime::ZERO);
        assert_eq!(order[0], MessageId(2));
        assert_eq!(order[1], MessageId(1));
        assert_eq!(order[2], MessageId(0));
    }
}
