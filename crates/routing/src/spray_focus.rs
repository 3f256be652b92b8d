//! Spray-and-Focus (Spyropoulos, Psounis & Raghavendra, PerCom WS'07).
//!
//! Spray phase as in Spray-and-Wait; but a node holding a single copy
//! (*focus* phase) forwards it to encounters with higher utility for the
//! destination instead of waiting. Utility is the classic last-encounter
//! timer with transitive updates: smaller time-since-last-meeting of the
//! destination is better.

use crate::util::deliver_forward;
use dtn_sim::{ContactCtx, Message, NodeId, Router, SimTime, TransferPlan};
use std::any::Any;

/// Spray-and-Focus tuning parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SprayFocusConfig {
    /// Quota λ: initial number of replicas per message.
    pub lambda: u32,
    /// Forwarding threshold in seconds: forward when the peer's timer is
    /// smaller than ours by more than this.
    pub utility_threshold: f64,
    /// Transitivity penalty in seconds: an indirectly learned timer is
    /// adopted as if it were this much older than the witness's direct
    /// observation. This is the paper's `t_m(d_{A,B})` term — without it,
    /// exchanged timers become equal and focus forwarding never fires.
    pub transitivity_penalty: f64,
}

impl Default for SprayFocusConfig {
    fn default() -> Self {
        SprayFocusConfig {
            lambda: 10,
            utility_threshold: 30.0,
            transitivity_penalty: 300.0,
        }
    }
}

/// Spray-and-Focus router.
#[derive(Debug)]
pub struct SprayAndFocus {
    lambda: u32,
    /// Last time this node met each other node (`None` = never).
    last_enc: Vec<Option<SimTime>>,
    /// Snapshot of current peers' timer ages taken at contact-up.
    peer_age: Vec<(NodeId, Vec<f64>)>,
    /// Forwarding threshold in seconds (see
    /// [`SprayFocusConfig::utility_threshold`]).
    pub utility_threshold: f64,
    /// Transitivity penalty in seconds (see
    /// [`SprayFocusConfig::transitivity_penalty`]).
    pub transitivity_penalty: f64,
}

impl SprayAndFocus {
    /// Creates a Spray-and-Focus router for a network of `n` nodes with the
    /// default utility parameters.
    ///
    /// # Panics
    /// Panics if `lambda` is zero.
    pub fn new(lambda: u32, n: u32) -> Self {
        Self::with_config(
            SprayFocusConfig {
                lambda,
                ..SprayFocusConfig::default()
            },
            n,
        )
    }

    /// Creates a Spray-and-Focus router with explicit parameters.
    ///
    /// # Panics
    /// Panics if `cfg.lambda` is zero.
    pub fn with_config(cfg: SprayFocusConfig, n: u32) -> Self {
        assert!(
            cfg.lambda >= 1,
            "Spray-and-Focus needs a quota of at least 1"
        );
        SprayAndFocus {
            lambda: cfg.lambda,
            last_enc: vec![None; n as usize],
            peer_age: Vec::new(),
            utility_threshold: cfg.utility_threshold,
            transitivity_penalty: cfg.transitivity_penalty,
        }
    }

    /// Age (seconds since last encounter) of `node`'s timer at `now`.
    fn age_of(&self, node: NodeId, now: SimTime) -> f64 {
        match self.last_enc[node.idx()] {
            Some(t) => now.since(t),
            None => f64::INFINITY,
        }
    }

    fn peer_ages(&self, peer: NodeId) -> Option<&[f64]> {
        self.peer_age
            .iter()
            .find(|(id, _)| *id == peer)
            .map(|(_, v)| v.as_slice())
    }
}

impl Router for SprayAndFocus {
    fn label(&self) -> &'static str {
        "SprayAndFocus"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn initial_copies(&self, _msg: &Message) -> u32 {
        self.lambda
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer_router = peer
            .as_any_mut()
            .downcast_mut::<SprayAndFocus>()
            .expect("all nodes run Spray-and-Focus");
        self.last_enc[ctx.peer.idx()] = Some(ctx.now);
        // Transitive timer update: adopt the peer's observation aged by the
        // transitivity penalty, if it still beats what we have. The penalty
        // keeps direct witnesses strictly better carriers than gossip
        // recipients.
        for x in 0..self.last_enc.len() {
            if let Some(pt) = peer_router.last_enc[x] {
                let adopted = pt + (-self.transitivity_penalty);
                if self.last_enc[x].is_none_or(|mt| adopted > mt) && x != ctx.me.idx() {
                    self.last_enc[x] = Some(adopted);
                }
            }
        }
        let ages: Vec<f64> = (0..self.last_enc.len())
            .map(|x| peer_router.age_of(NodeId(x as u32), ctx.now))
            .collect();
        self.peer_age.retain(|(id, _)| *id != ctx.peer);
        self.peer_age.push((ctx.peer, ages));
        ctx.control_bytes(crate::util::control_size(self.last_enc.len()));
    }

    fn on_contact_down(&mut self, _ctx: &mut dtn_sim::NodeCtx<'_>, peer: NodeId) {
        self.peer_age.retain(|(id, _)| *id != peer);
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        if let Some(plan) = deliver_forward(ctx) {
            return Some(plan);
        }
        // Spray phase.
        if let Some(e) = ctx.offers().find(|e| e.copies > 1) {
            return Some(TransferPlan::split(e.msg.id, (e.copies / 2).max(1)));
        }
        // Focus phase: forward single copies towards fresher timers.
        let peer_ages = self.peer_ages(ctx.peer)?;
        ctx.offers()
            .find(|e| {
                e.copies == 1
                    && peer_ages[e.msg.dst.idx()] + self.utility_threshold
                        < self.age_of(e.msg.dst, ctx.now)
            })
            .map(|e| TransferPlan::forward(e.msg.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    /// In the focus phase the single copy chases fresher encounter timers.
    #[test]
    fn focus_forwards_towards_fresher_timer() {
        let contacts = vec![
            // Node 1 met destination 2 recently.
            Contact::new(1, 2, 50.0, 55.0),
            // Source 0 (λ=1, never met 2) meets 1 → should hand over.
            Contact::new(0, 1, 100.0, 105.0),
            // 1 meets 2 again → delivery.
            Contact::new(1, 2, 150.0, 155.0),
        ];
        let trace = ContactTrace::new(3, 500.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(60.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 400.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
            Box::new(SprayAndFocus::new(1, n.max(id.0 + 1)))
        })
        .run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 2);
    }

    /// A node with no fresher timer does not receive the single copy.
    #[test]
    fn focus_does_not_forward_to_worse_carrier() {
        let contacts = vec![
            // Source 0 met destination 2 at t=50 (fresh timer).
            Contact::new(0, 2, 50.0, 55.0),
            // 0 meets 1 (1 never met 2): no forward should happen.
            Contact::new(0, 1, 100.0, 105.0),
        ];
        let trace = ContactTrace::new(3, 500.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(60.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 400.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, n| {
            Box::new(SprayAndFocus::new(1, n))
        })
        .run();
        assert_eq!(stats.relayed, 0);
    }

    /// Spray phase splits copies like Spray-and-Wait.
    #[test]
    fn spray_phase_splits() {
        let trace = ContactTrace::new(3, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 90.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, n| {
            Box::new(SprayAndFocus::new(8, n))
        })
        .run();
        assert_eq!(stats.relayed, 1, "one split transfer 0→1");
    }

    /// A direct witness beats a node that only learned the timer through
    /// gossip: the transitivity penalty keeps the ordering strict, so the
    /// single copy flows back towards the direct witness.
    #[test]
    fn direct_witness_beats_gossip_recipient() {
        let trace = ContactTrace::new(
            3,
            300.0,
            vec![
                Contact::new(1, 2, 10.0, 12.0),   // 1 directly met 2
                Contact::new(0, 1, 50.0, 52.0),   // 0 learns 2's timer via gossip
                Contact::new(0, 1, 100.0, 102.0), // 0 carries a copy → hands to 1
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(60.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 200.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, n| {
            Box::new(SprayAndFocus::new(1, n))
        })
        .run();
        assert_eq!(
            stats.relayed, 1,
            "direct witness (node 1) must receive the copy from the gossip \
             recipient (node 0)"
        );
    }
}
