//! EBR — Encounter-Based Routing (Nelson, Bakht & Kravets, INFOCOM'09).
//!
//! The quota protocol the paper's EER directly improves on. Each node tracks
//! an *encounter value* (EV): an exponentially weighted moving average of how
//! many encounters it sees per window. When two nodes meet, replicas of a
//! message split proportionally to their EVs. A single remaining copy waits
//! for the destination.
//!
//! The paper's critique (its §I): EV is a *rate* — identical for all messages
//! and independent of each message's residual TTL. EER replaces it with the
//! TTL-window-conditioned expectation of Theorem 1.

use crate::util::{control_size, deliver_forward};
use dtn_sim::{ContactCtx, Message, NodeId, Router, TransferPlan};
use std::any::Any;

/// EBR tuning parameters (defaults from the EBR paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EbrConfig {
    /// Quota λ: initial number of replicas per message.
    pub lambda: u32,
    /// EWMA weight α for the current-window count.
    pub alpha: f64,
    /// Window length in seconds.
    pub window: f64,
}

impl Default for EbrConfig {
    fn default() -> Self {
        EbrConfig {
            lambda: 10,
            alpha: 0.85,
            window: 30.0,
        }
    }
}

/// EBR router.
#[derive(Debug)]
pub struct Ebr {
    cfg: EbrConfig,
    /// Smoothed encounter value.
    ev: f64,
    /// Encounters in the current window (CWC).
    cwc: u32,
    /// Peer EV snapshots for active contacts.
    peer_ev: Vec<(NodeId, f64)>,
}

impl Ebr {
    /// Creates an EBR router with quota `lambda` and default smoothing.
    pub fn new(lambda: u32) -> Self {
        Self::with_config(EbrConfig {
            lambda,
            ..EbrConfig::default()
        })
    }

    /// Creates an EBR router with explicit parameters.
    ///
    /// # Panics
    /// Panics on a zero quota or out-of-range α.
    pub fn with_config(cfg: EbrConfig) -> Self {
        assert!(cfg.lambda >= 1);
        assert!((0.0..=1.0).contains(&cfg.alpha));
        assert!(cfg.window > 0.0);
        Ebr {
            cfg,
            ev: 0.0,
            cwc: 0,
            peer_ev: Vec::new(),
        }
    }

    /// Current encounter value.
    pub fn encounter_value(&self) -> f64 {
        self.ev
    }

    fn peer_ev(&self, peer: NodeId) -> Option<f64> {
        self.peer_ev
            .iter()
            .find(|(id, _)| *id == peer)
            .map(|(_, v)| *v)
    }
}

impl Router for Ebr {
    fn label(&self) -> &'static str {
        "EBR"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn initial_copies(&self, _msg: &Message) -> u32 {
        self.cfg.lambda
    }

    fn tick_interval(&self) -> Option<f64> {
        Some(self.cfg.window)
    }

    fn on_tick(&mut self, _ctx: &mut dtn_sim::NodeCtx<'_>) {
        self.ev = self.cfg.alpha * f64::from(self.cwc) + (1.0 - self.cfg.alpha) * self.ev;
        self.cwc = 0;
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer_router = peer
            .as_any_mut()
            .downcast_mut::<Ebr>()
            .expect("all nodes run EBR");
        self.cwc += 1;
        self.peer_ev.retain(|(id, _)| *id != ctx.peer);
        self.peer_ev.push((ctx.peer, peer_router.ev));
        // EV exchange is a single scalar.
        ctx.control_bytes(control_size(1));
    }

    fn on_contact_down(&mut self, _ctx: &mut dtn_sim::NodeCtx<'_>, peer: NodeId) {
        self.peer_ev.retain(|(id, _)| *id != peer);
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        if let Some(plan) = deliver_forward(ctx) {
            return Some(plan);
        }
        let peer_ev = self.peer_ev(ctx.peer)?;
        let my_ev = self.ev;
        let total = my_ev + peer_ev;
        ctx.offers().filter(|e| e.copies > 1).find_map(|e| {
            let give = if total > 0.0 {
                (f64::from(e.copies) * peer_ev / total) as u32
            } else {
                // No history on either side: split evenly, as the EBR
                // paper's cold-start behaviour.
                e.copies / 2
            };
            let give = give.min(e.copies - 1);
            (give >= 1).then(|| TransferPlan::split(e.msg.id, give))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    #[test]
    fn ev_ewma_update() {
        let mut r = Ebr::with_config(EbrConfig {
            lambda: 4,
            alpha: 0.5,
            window: 30.0,
        });
        r.cwc = 4;
        let mut purge = vec![];
        let mut stats = SimStats::new(0);
        let buf = Buffer::new(100);
        let mut ctx = NodeCtx {
            now: SimTime::secs(30.0),
            me: NodeId(0),
            buf: &buf,
            stats: &mut stats,
            purge: &mut purge,
        };
        r.on_tick(&mut ctx);
        assert_eq!(r.encounter_value(), 2.0);
        r.cwc = 0;
        r.on_tick(&mut ctx);
        assert_eq!(r.encounter_value(), 1.0);
    }

    /// A high-EV node receives proportionally more copies.
    #[test]
    fn split_proportional_to_ev() {
        // Node 1 is "social": meets nodes 2..5 during warm-up, so its EV
        // grows. Node 0 is isolated. After warm-up, 0 creates a message with
        // λ=10 and meets 1: nearly all copies should move to 1.
        let mut contacts = vec![];
        for k in 0..8 {
            let t = 5.0 + k as f64 * 20.0;
            let peer = 2 + (k % 4);
            contacts.push(Contact::new(1, peer, t, t + 2.0));
        }
        contacts.push(Contact::new(0, 1, 400.0, 410.0));
        let trace = ContactTrace::new(6, 1000.0, contacts);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(300.0),
            src: NodeId(0),
            dst: NodeId(5),
            size: 1000,
            ttl: 600.0,
        }];
        let sim = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(Ebr::new(10))
        });
        let stats = sim.run();
        // One split transfer happened.
        assert_eq!(stats.relayed, 1);
    }

    /// Wait phase: single copies are never relayed.
    #[test]
    fn single_copy_waits() {
        let trace = ContactTrace::new(
            3,
            200.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0),
                Contact::new(0, 1, 50.0, 55.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 190.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(Ebr::new(2))
        })
        .run();
        // First contact splits 2 → 1+1; second contact: both have a single
        // copy, no further transfer.
        assert_eq!(stats.relayed, 1);
        assert_eq!(stats.delivered, 0);
    }
}
