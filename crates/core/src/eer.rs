//! EER — the Expected-Encounter-based Routing protocol (§III, Algorithm 1).
//!
//! Per contact between `ui` and `uj` at time `t`:
//!
//! 1. both update their contact histories and average meeting intervals;
//! 2. they exchange `MI` matrices (freshness-gossip of rows) to form an
//!    identical `MI`;
//! 3. for every message `mk` held by `ui` and not `uj`:
//!    * `Mk > 1` replicas → send `⌊Mk · EEVj / (EEVi + EEVj)⌋` replicas,
//!      where the EEVs are Theorem 1 expectations over the horizon
//!      `α · TTLk` (the *residual* TTL — the paper's whole point versus
//!      EBR's rate-based EV);
//!    * `Mk = 1` → forward iff `MEMD(ui, dst) > MEMD(uj, dst)` (Theorem 3
//!      over the shared `MI` with each node's own Theorem-2 EMD row).
//!
//! Implementation notes (documented deviations are engineering, not
//! semantics):
//!
//! * The per-message decision batch is computed once at contact-up — exactly
//!   the structure of Algorithm 1 — and drained transfer-by-transfer as the
//!   link frees up; messages arriving mid-contact wait for the next contact.
//! * A peer that *is* the destination receives custody of all replicas
//!   immediately (delivery short-circuit).
//! * Estimates are cached for [`EerConfig::refresh`] seconds: the MEMD
//!   vector is re-solved at most once per window, and EEVs are kept per
//!   `(τ, time)` bucket. EEV horizons are rounded up to multiples of
//!   [`EEV_TAU_QUANTUM`] seconds, so messages with similar residual TTLs
//!   share a bucket (the workload gives every message the same TTL, so this
//!   collapses many evaluations). `crates/core/tests/estimator_consistency.rs`
//!   checks that both approximations leave the protocol's semantics intact.

use crate::decision::{DecisionBatches, HorizonCache};
use crate::history::{ContactHistory, DEFAULT_WINDOW};
use crate::memd::{emd_entries, mean_entries, solve_into};
use crate::mi::MiMatrix;
use crate::policy::BufferPolicy;
use dtn_sim::{ContactCtx, Message, MessageId, NodeCtx, NodeId, Router, SimTime, TransferPlan};
use std::any::Any;
use std::collections::VecDeque;

/// Which estimator feeds the source's own MD row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EmdMode {
    /// Theorem 2: conditional mean of admissible intervals minus elapsed
    /// time (the paper's estimator).
    #[default]
    Theorem2,
    /// Plain mean interval (Jones et al.'s MEED); the baseline of the
    /// `ablation emd` grid.
    MeanInterval,
}

/// EER tuning parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EerConfig {
    /// Quota λ: initial replicas per message (paper's figures use 6–12).
    pub lambda: u32,
    /// The TTL-fraction horizon parameter α (paper: 0.28).
    pub alpha: f64,
    /// Sliding-window length per pair history.
    pub window: usize,
    /// Single-copy forwarding hysteresis in seconds: forward only when the
    /// peer's MEMD is better than ours by more than this margin. The paper's
    /// Algorithm 1 uses a strict `>` (hysteresis 0); a small margin damps
    /// carrier thrashing caused by the elapsed-time term of Theorem 2
    /// oscillating between co-located nodes (quantified by the `ablation emd`
    /// grid).
    pub forward_hysteresis: f64,
    /// Estimator refresh window in seconds: cached MEMD vectors and EEVs are
    /// reused for this long before recomputation. A pure performance knob —
    /// the underlying meeting statistics move on the scale of whole meeting
    /// intervals (hundreds of seconds).
    pub refresh: f64,
    /// Own-row estimator for the MD matrix (Theorem 2 vs. plain means).
    pub emd_mode: EmdMode,
    /// Eviction policy under buffer pressure (future-work extension).
    pub buffer_policy: BufferPolicy,
    /// Adaptive quota (the paper's third future-work item: "network
    /// parameters such as α and λ can be tuned automatically"). When set to
    /// `Some((min, max))`, a freshly created message's quota is the source's
    /// own expected encounter value over the message horizon, clamped to
    /// `[min, max]` — well-connected sources spray wider, isolated sources
    /// conserve copies. `None` uses the fixed λ.
    pub adaptive_lambda: Option<(u32, u32)>,
}

impl Default for EerConfig {
    fn default() -> Self {
        EerConfig {
            lambda: 10,
            alpha: 0.28,
            window: DEFAULT_WINDOW,
            forward_hysteresis: 180.0,
            refresh: 45.0,
            emd_mode: EmdMode::Theorem2,
            buffer_policy: BufferPolicy::default(),
            adaptive_lambda: None,
        }
    }
}

/// One node's EER router instance.
#[derive(Debug)]
pub struct Eer {
    me: NodeId,
    cfg: EerConfig,
    history: ContactHistory,
    mi: MiMatrix,
    /// Pending transfer decisions per active contact.
    batches: DecisionBatches,
    /// Cached MEMD vector, solved in place, and the time it was computed
    /// (`-∞` = never).
    memd_cache: Vec<f64>,
    memd_time: f64,
    /// Cached EEVs per horizon (see `cfg.refresh`).
    eev_cache: HorizonCache,
}

impl Eer {
    /// Creates an EER router for `me` in a network of `n` nodes, with the
    /// paper's default parameters and quota `lambda`.
    pub fn new(me: NodeId, n: u32, lambda: u32) -> Self {
        Self::with_config(
            me,
            n,
            EerConfig {
                lambda,
                ..EerConfig::default()
            },
        )
    }

    /// Creates an EER router with explicit parameters.
    ///
    /// # Panics
    /// Panics on zero quota, α outside `[0, 1]`, or an empty window.
    pub fn with_config(me: NodeId, n: u32, cfg: EerConfig) -> Self {
        assert!(cfg.lambda >= 1);
        assert!((0.0..=1.0).contains(&cfg.alpha));
        Eer {
            me,
            cfg,
            history: ContactHistory::new(me, n, cfg.window),
            mi: MiMatrix::new(n),
            batches: DecisionBatches::default(),
            memd_cache: Vec::new(),
            memd_time: f64::NEG_INFINITY,
            eev_cache: HorizonCache::new(cfg.refresh),
        }
    }

    /// Read access to the contact history (tests/inspection).
    pub fn history(&self) -> &ContactHistory {
        &self.history
    }

    /// Read access to the MI matrix (tests/inspection).
    pub fn mi(&self) -> &MiMatrix {
        &self.mi
    }

    /// This node's Theorem-1 EEV at `now` over horizon `tau`.
    pub fn eev(&self, now: SimTime, tau: f64) -> f64 {
        self.history.eev(now, tau)
    }

    /// Publishes a new version of this node's own MI row, stamped `now`: the
    /// history means towards its met peers. Only the mean towards `peer`,
    /// just met, can have moved since the previous version, so that one entry
    /// is spliced into it.
    fn refresh_own_row(&mut self, peer: NodeId, now: SimTime) {
        let mean = self.history.pair(peer).mean_interval();
        self.mi
            .set_entry(self.me, peer, mean.unwrap_or(f64::INFINITY), now.as_secs());
        debug_assert!(
            self.mi
                .row_entries(self.me)
                .iter()
                .copied()
                .eq(self.history.mean_row()),
            "spliced own row differs from the history means"
        );
    }

    /// Re-solves this node's MEMD vector if the cached one is more than
    /// `cfg.refresh` seconds old.
    fn refresh_memd(&mut self, now: SimTime) {
        if now.as_secs() - self.memd_time > self.cfg.refresh {
            let (cache, me, mi) = (&mut self.memd_cache, self.me, &self.mi);
            match self.cfg.emd_mode {
                EmdMode::Theorem2 => {
                    solve_into(cache, me, mi, emd_entries(&self.history, now), None)
                }
                EmdMode::MeanInterval => {
                    solve_into(cache, me, mi, mean_entries(&self.history), None)
                }
            }
            self.memd_time = now.as_secs();
        }
    }

    /// Theorem-1 EEV, cached per horizon (see `cfg.refresh`).
    fn eev_cached(&mut self, now: SimTime, tau: f64) -> f64 {
        self.eev_cache.get(now, tau, || self.history.eev(now, tau))
    }
}

/// EEV horizons are rounded up to multiples of this many seconds so that
/// per-contact EEV evaluations collapse into a handful of cache buckets.
/// 5 s against the paper's 336 s horizon (α · TTL) is far below the
/// estimator's own resolution (meeting intervals are tens of seconds).
pub const EEV_TAU_QUANTUM: f64 = 5.0;

/// Rounds a horizon up to the quantisation grid.
#[inline]
pub(crate) fn quantise_tau(tau: f64) -> f64 {
    (tau / EEV_TAU_QUANTUM).ceil() * EEV_TAU_QUANTUM
}

/// Computes the replica share for the peer:
/// `⌊copies · ev_peer / (ev_me + ev_peer)⌋`, split evenly when both
/// expectations are zero (cold start).
pub(crate) fn replica_share(copies: u32, ev_me: f64, ev_peer: f64) -> u32 {
    let total = ev_me + ev_peer;
    if total > 0.0 {
        (f64::from(copies) * ev_peer / total).floor() as u32
    } else {
        copies / 2
    }
}

impl Router for Eer {
    fn label(&self) -> &'static str {
        "EER"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn initial_copies(&self, msg: &Message) -> u32 {
        match self.cfg.adaptive_lambda {
            None => self.cfg.lambda,
            Some((min, max)) => {
                let tau = self.cfg.alpha * msg.ttl;
                let eev = self.history.eev(msg.created, tau);
                (eev.round() as u32).clamp(min, max)
            }
        }
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer_router = peer
            .as_any_mut()
            .downcast_mut::<Eer>()
            .expect("all nodes run EER");
        let now = ctx.now;

        // (1) History + own-row update, (2) MI exchange.
        self.history.record_meeting(ctx.peer, now);
        self.refresh_own_row(ctx.peer, now);
        let copied = self.mi.merge_from(&peer_router.mi);
        // Control accounting: each adopted row is n entries + a stamp; the
        // freshness comparison itself costs one stamp per row.
        ctx.control_bytes(8 * (copied * self.mi.n() + self.mi.n()) as u64);

        // (3) Per-message decision batch (Algorithm 1, lines 6–18).
        // MEMD vectors are needed only when single replicas are in play.
        let need_memd = ctx
            .buf
            .iter()
            .any(|e| e.copies == 1 && e.msg.dst != ctx.peer && !ctx.peer_buf.contains(e.msg.id));
        if need_memd {
            ctx.control_bytes(16); // MEMD scalar exchange
            self.refresh_memd(now);
            peer_router.refresh_memd(now);
        }
        let mut queue: VecDeque<TransferPlan> = VecDeque::new();

        for entry in ctx.buf.iter() {
            let msg = &entry.msg;
            if ctx.peer_buf.contains(msg.id) {
                continue; // both hold replicas: no redistribution (§III-C)
            }
            if msg.dst == ctx.peer {
                queue.push_back(TransferPlan::forward(msg.id));
                continue;
            }
            let tau = quantise_tau(self.cfg.alpha * msg.residual_ttl(now));
            if entry.copies > 1 {
                let ev_me = self.eev_cached(now, tau);
                let ev_peer = peer_router.eev_cached(now, tau);
                ctx.control_bytes(16); // EEV scalar exchange
                let give = replica_share(entry.copies, ev_me, ev_peer);
                if give >= 1 {
                    queue.push_back(TransferPlan::split(msg.id, give));
                }
            } else {
                let mine = self.memd_cache[msg.dst.idx()];
                let theirs = peer_router.memd_cache[msg.dst.idx()];
                if mine > theirs + self.cfg.forward_hysteresis {
                    queue.push_back(TransferPlan::forward(msg.id));
                }
            }
        }
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
    ) -> Vec<MessageId> {
        self.cfg.buffer_policy.victims(buf, incoming, now)
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        self.batches.next(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    fn eer_factory(lambda: u32) -> impl FnMut(NodeId, u32) -> Box<dyn Router> {
        move |id, n| Box::new(Eer::new(id, n, lambda))
    }

    #[test]
    fn replica_share_math() {
        assert_eq!(replica_share(10, 1.0, 1.0), 5);
        assert_eq!(replica_share(10, 3.0, 1.0), 2);
        assert_eq!(replica_share(10, 0.0, 1.0), 10, "all copies to active peer");
        assert_eq!(replica_share(10, 1.0, 0.0), 0);
        assert_eq!(replica_share(10, 0.0, 0.0), 5, "cold start splits evenly");
        assert_eq!(replica_share(1, 0.0, 0.0), 0, "single copy never splits");
    }

    #[test]
    fn adaptive_lambda_scales_with_connectivity() {
        let cfg = EerConfig {
            adaptive_lambda: Some((2, 12)),
            ..EerConfig::default()
        };
        let mut r = Eer::with_config(NodeId(0), 8, cfg);
        let msg = Message {
            id: dtn_sim::MessageId(0),
            src: NodeId(0),
            dst: NodeId(7),
            size: 100,
            created: SimTime::secs(990.0),
            ttl: 1200.0,
        };
        // No history: EEV 0 → clamped to the minimum.
        assert_eq!(r.initial_copies(&msg), 2);
        // Node 0 meets peers 1..6 every 50 s (last at 950; the message is
        // created 40 s later, within the admissible window): EEV ≈ 6.
        for peer in 1..7u32 {
            for k in 0..20 {
                r.history
                    .record_meeting(NodeId(peer), SimTime::secs(f64::from(k) * 50.0));
            }
        }
        let copies = r.initial_copies(&msg);
        assert!((5..=7).contains(&copies), "EEV-driven quota, got {copies}");
    }

    #[test]
    fn delivers_directly_to_destination() {
        let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1000,
            ttl: 90.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), eer_factory(10)).run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 1);
    }

    /// Replicas flow towards the node with the larger expected EV.
    #[test]
    fn splits_towards_higher_eev() {
        // Warm-up: node 1 meets nodes 2..5 periodically → large EEV.
        // Node 0 meets only node 1 rarely → small EEV.
        let mut contacts = vec![];
        for rep in 0..6 {
            for peer in 2..6u32 {
                let t = 20.0 * f64::from(rep) + 2.0 * f64::from(peer);
                contacts.push(Contact::new(1, peer, t, t + 1.0));
            }
        }
        contacts.push(Contact::new(0, 1, 200.0, 210.0));
        let trace = ContactTrace::new(6, 2000.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(150.0),
            src: NodeId(0),
            dst: NodeId(5),
            size: 1000,
            ttl: 1200.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), eer_factory(10)).run();
        // Node 1 should have received most of the 10 replicas in one split.
        assert_eq!(stats.relayed, 1, "a single split transfer 0→1");
    }

    /// Single-copy forwarding follows the MEMD comparison.
    #[test]
    fn single_copy_follows_memd() {
        // Node 1 meets destination 3 periodically; node 0 never does.
        // After history builds up, 0 (λ=1) hands its message to 1.
        let mut contacts = vec![];
        for rep in 0..12 {
            let t = 100.0 * f64::from(rep) + 10.0;
            contacts.push(Contact::new(1, 3, t, t + 2.0));
        }
        // 0 and 1 meet a few times so MI rows propagate.
        contacts.push(Contact::new(0, 1, 450.0, 452.0));
        contacts.push(Contact::new(0, 1, 850.0, 855.0));
        let trace = ContactTrace::new(4, 2000.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(800.0),
            src: NodeId(0),
            dst: NodeId(3),
            size: 1000,
            ttl: 1200.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), eer_factory(1)).run();
        // Node 1 meets 3 again at 910 → delivery.
        assert_eq!(stats.delivered, 1);
        assert_eq!(
            stats.relayed, 2,
            "handover 0→1 plus the delivery hop 1→3, nothing else"
        );
    }

    /// Symmetric histories ⇒ no single-copy forwarding (strict inequality).
    #[test]
    fn equal_memd_does_not_forward() {
        let trace = ContactTrace::new(
            3,
            500.0,
            vec![
                Contact::new(0, 1, 10.0, 12.0),
                Contact::new(0, 1, 100.0, 102.0),
                Contact::new(0, 1, 200.0, 202.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(150.0),
            src: NodeId(0),
            dst: NodeId(2), // neither node ever met 2
            size: 1000,
            ttl: 300.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), eer_factory(1)).run();
        assert_eq!(stats.relayed, 0, "both MEMDs are ∞ → no forward");
    }

    /// MI rows propagate through gossip: after 0↔1 syncs twice and 1↔2
    /// syncs once, node 2 must know node 0's row (carrying the 0–1 mean
    /// interval) without ever having met node 0.
    #[test]
    fn mi_gossip_propagates() {
        let trace = ContactTrace::new(
            3,
            500.0,
            vec![
                Contact::new(0, 1, 10.0, 12.0),
                Contact::new(0, 1, 50.0, 52.0),
                Contact::new(1, 2, 100.0, 102.0),
            ],
        );
        let mut sim = Simulation::new(&trace, vec![], SimConfig::paper(0), eer_factory(10));
        let stats = sim.run_to_end();
        assert!(stats.control_bytes > 0, "gossip accounted as control bytes");
        let r2 = (sim.router(NodeId(2)) as &dyn std::any::Any)
            .downcast_ref::<Eer>()
            .expect("node 2 runs EER");
        let i01 = r2.mi().get(NodeId(0), NodeId(1));
        assert!(
            (i01 - 40.0).abs() < 1e-9,
            "node 2 should have learned I(0,1) = 40 via node 1, got {i01}"
        );
    }
}
