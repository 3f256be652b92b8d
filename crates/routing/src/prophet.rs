//! PRoPHET (Lindgren, Doria & Schelén, MobiHoc'03): probabilistic routing
//! using delivery predictabilities with aging and transitivity.
//!
//! A message is replicated to the peer when the peer's delivery
//! predictability for the destination exceeds the carrier's.

use crate::util::{control_size, deliver_copy};
use dtn_sim::{ContactCtx, NodeId, Router, SimTime, TransferPlan};
use std::any::Any;

/// PRoPHET tuning parameters (defaults from the original paper / the ONE).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProphetConfig {
    /// Initialisation constant `P_init`.
    pub p_init: f64,
    /// Transitivity scaling `β`.
    pub beta: f64,
    /// Aging base `γ` (applied per time unit).
    pub gamma: f64,
    /// Seconds per aging time unit.
    pub time_unit: f64,
}

impl Default for ProphetConfig {
    fn default() -> Self {
        ProphetConfig {
            p_init: 0.75,
            beta: 0.25,
            gamma: 0.98,
            time_unit: 30.0,
        }
    }
}

/// PRoPHET router.
#[derive(Debug)]
pub struct Prophet {
    me: NodeId,
    cfg: ProphetConfig,
    /// Delivery predictability to each node.
    p: Vec<f64>,
    last_aged: SimTime,
    /// Snapshot of the current peers' predictability vectors, taken at
    /// contact-up (peer id, vector).
    peer_p: Vec<(NodeId, Vec<f64>)>,
}

impl Prophet {
    /// Creates a PRoPHET router for `me` in a network of `n` nodes.
    pub fn new(me: NodeId, n: u32) -> Self {
        Self::with_config(me, n, ProphetConfig::default())
    }

    /// Creates a PRoPHET router with explicit parameters.
    pub fn with_config(me: NodeId, n: u32, cfg: ProphetConfig) -> Self {
        Prophet {
            me,
            cfg,
            p: vec![0.0; n as usize],
            last_aged: SimTime::ZERO,
            peer_p: Vec::new(),
        }
    }

    /// Applies exponential aging up to `now`.
    fn age(&mut self, now: SimTime) {
        let dt = now.since(self.last_aged);
        if dt <= 0.0 {
            return;
        }
        let factor = self.cfg.gamma.powf(dt / self.cfg.time_unit);
        for v in &mut self.p {
            *v *= factor;
        }
        self.last_aged = now;
    }

    /// Current predictability to `dst`.
    pub fn predictability(&self, dst: NodeId) -> f64 {
        self.p[dst.idx()]
    }

    fn peer_vector(&self, peer: NodeId) -> Option<&[f64]> {
        self.peer_p
            .iter()
            .find(|(id, _)| *id == peer)
            .map(|(_, v)| v.as_slice())
    }
}

impl Router for Prophet {
    fn label(&self) -> &'static str {
        "PRoPHET"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer = peer
            .as_any_mut()
            .downcast_mut::<Prophet>()
            .expect("all nodes run PRoPHET");
        self.age(ctx.now);
        peer.age(ctx.now);
        // Direct update.
        let pi = &mut self.p[ctx.peer.idx()];
        *pi += (1.0 - *pi) * self.cfg.p_init;
        // Transitivity through the peer's (pre-contact) vector.
        let p_ab = self.p[ctx.peer.idx()];
        for c in 0..self.p.len() {
            if c == self.me.idx() || c == ctx.peer.idx() {
                continue;
            }
            let through = p_ab * peer.p[c] * self.cfg.beta;
            if through > self.p[c] {
                self.p[c] = through;
            }
        }
        // Snapshot the peer's vector for forwarding decisions.
        self.peer_p.retain(|(id, _)| *id != ctx.peer);
        self.peer_p.push((ctx.peer, peer.p.clone()));
        ctx.control_bytes(control_size(self.p.len()));
    }

    fn on_contact_down(&mut self, _ctx: &mut dtn_sim::NodeCtx<'_>, peer: NodeId) {
        self.peer_p.retain(|(id, _)| *id != peer);
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        if let Some(plan) = deliver_copy(ctx) {
            return Some(plan);
        }
        let peer_vec = self.peer_vector(ctx.peer)?;
        ctx.offers()
            .find(|e| peer_vec[e.msg.dst.idx()] > self.p[e.msg.dst.idx()])
            .map(|e| TransferPlan::copy(e.msg.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    #[test]
    fn predictability_rises_on_contact_and_decays() {
        let trace = ContactTrace::new(2, 1000.0, vec![Contact::new(0, 1, 10.0, 12.0)]);
        let sim = Simulation::new(&trace, vec![], SimConfig::paper(0), |id, n| {
            Box::new(Prophet::new(id, n))
        });
        // Run manually: after the contact, p(0→1) should be p_init.
        let stats = sim.run();
        assert_eq!(stats.created, 0);
        // (behavioural check below via routing outcome)
    }

    /// A node that repeatedly meets the destination attracts the message from
    /// a node that never does.
    #[test]
    fn forwards_to_better_carrier() {
        let mut contacts = vec![];
        // Node 1 meets destination 2 often (builds predictability).
        for k in 0..5 {
            let t = 10.0 + k as f64 * 50.0;
            contacts.push(Contact::new(1, 2, t, t + 2.0));
        }
        // Source 0 then meets node 1.
        contacts.push(Contact::new(0, 1, 300.0, 305.0));
        // Node 1 meets destination again → delivery.
        contacts.push(Contact::new(1, 2, 350.0, 355.0));
        let trace = ContactTrace::new(3, 1000.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 900.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
            Box::new(Prophet::new(id, n))
        })
        .run();
        assert_eq!(stats.delivered, 1, "message should flow 0→1→2");
        assert_eq!(stats.relayed, 2);
    }

    /// With no history anywhere, nothing is forwarded except to the
    /// destination itself.
    #[test]
    fn no_history_no_relay() {
        let trace = ContactTrace::new(3, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 90.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
            Box::new(Prophet::new(id, n))
        })
        .run();
        assert_eq!(stats.relayed, 0, "peer has no predictability advantage");
    }

    #[test]
    fn aging_is_exponential() {
        let mut r = Prophet::new(NodeId(0), 3);
        r.p[1] = 0.8;
        r.age(SimTime::secs(300.0)); // 10 time units
        let expected = 0.8 * 0.98f64.powi(10);
        assert!((r.p[1] - expected).abs() < 1e-12);
    }
}
