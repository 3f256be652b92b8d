//! Spray-and-Wait (Spyropoulos, Psounis & Raghavendra, WDTN'05).
//!
//! Each message starts with λ logical copies. In the *spray* phase a node
//! holding more than one copy hands half of them (binary spray) to every new
//! node it meets. A node holding a single copy is in the *wait* phase and
//! only delivers directly to the destination.

use crate::util::{deliver_forward, find_deliverable};
use dtn_sim::{ContactCtx, Message, Router, TransferPlan};
use std::any::Any;

/// Spray-and-Wait router.
#[derive(Debug)]
pub struct SprayAndWait {
    lambda: u32,
    binary: bool,
}

impl SprayAndWait {
    /// Binary Spray-and-Wait with `lambda` initial copies.
    ///
    /// # Panics
    /// Panics if `lambda` is zero.
    pub fn new(lambda: u32) -> Self {
        assert!(lambda >= 1);
        SprayAndWait {
            lambda,
            binary: true,
        }
    }

    /// Source spray variant: only the source distributes copies, one at a
    /// time.
    pub fn source_spray(lambda: u32) -> Self {
        assert!(lambda >= 1);
        SprayAndWait {
            lambda,
            binary: false,
        }
    }

    /// The configured quota.
    pub fn lambda(&self) -> u32 {
        self.lambda
    }
}

impl Router for SprayAndWait {
    fn label(&self) -> &'static str {
        "SprayAndWait"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn initial_copies(&self, _msg: &Message) -> u32 {
        self.lambda
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        if let Some(plan) = deliver_forward(ctx) {
            return Some(plan);
        }
        debug_assert!(find_deliverable(ctx).is_none());
        ctx.offers().find(|e| e.copies > 1).map(|e| {
            let give = if self.binary { e.copies / 2 } else { 1 };
            TransferPlan::split(e.msg.id, give.max(1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    fn star_trace(n: u32) -> ContactTrace {
        // Node 0 meets 1, 2, ..., n-1 in sequence.
        let contacts = (1..n)
            .map(|i| Contact::new(0, i, 10.0 * f64::from(i), 10.0 * f64::from(i) + 5.0))
            .collect();
        ContactTrace::new(n, 1000.0, contacts)
    }

    #[test]
    fn binary_spray_halves_copies() {
        let trace = star_trace(4);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(3), // met last
            size: 1000,
            ttl: 900.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(SprayAndWait::new(8))
        })
        .run();
        // 0 starts with 8: gives 4 to node 1, 2 to node 2, then delivers to 3.
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 3);
    }

    #[test]
    fn wait_phase_blocks_relaying() {
        // λ=1: only direct delivery ever.
        let trace = ContactTrace::new(
            3,
            100.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0),
                Contact::new(1, 2, 30.0, 35.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 90.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(SprayAndWait::new(1))
        })
        .run();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.relayed, 0);
    }

    #[test]
    fn source_spray_gives_one_copy_each() {
        let trace = star_trace(5);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(4),
            size: 1000,
            ttl: 900.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(SprayAndWait::source_spray(8))
        })
        .run();
        // One copy each to 1, 2, 3, then delivery to 4.
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 4);
    }

    #[test]
    fn quota_is_conserved() {
        // After binary spray from 8, total copies across the network stay 8.
        let trace = ContactTrace::new(2, 50.0, vec![Contact::new(0, 1, 10.0, 20.0)]);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(1), // direct delivery case: copies vanish with custody
            size: 1000,
            ttl: 45.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(SprayAndWait::new(8))
        })
        .run();
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    #[should_panic]
    fn zero_lambda_rejected() {
        let _ = SprayAndWait::new(0);
    }
}
