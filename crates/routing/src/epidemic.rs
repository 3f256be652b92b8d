//! Epidemic routing (Vahdat & Becker, 2000): replicate everything to
//! everyone. Delivery-ratio upper bound under infinite resources; the
//! overhead baseline every quota protocol is measured against.

use crate::util::deliver_copy;
use dtn_sim::{ContactCtx, Router, TransferPlan};
use std::any::Any;

/// Epidemic (flooding) router.
#[derive(Debug, Default)]
pub struct Epidemic;

impl Epidemic {
    /// Creates an epidemic router.
    pub fn new() -> Self {
        Epidemic
    }
}

impl Router for Epidemic {
    fn label(&self) -> &'static str {
        "Epidemic"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, _peer: &mut dyn Router) {
        // Summary-vector exchange: one id per buffered message.
        ctx.control_bytes(crate::util::control_size(ctx.buf.len()));
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        if let Some(plan) = deliver_copy(ctx) {
            return Some(plan);
        }
        // Replicate anything the peer misses, oldest first.
        ctx.offers().next().map(|e| TransferPlan::copy(e.msg.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    fn chain_trace() -> ContactTrace {
        // 0-1, then 1-2, then 2-3: epidemic relays along the chain.
        ContactTrace::new(
            4,
            200.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0),
                Contact::new(1, 2, 30.0, 35.0),
                Contact::new(2, 3, 50.0, 55.0),
            ],
        )
    }

    #[test]
    fn floods_along_chain() {
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(3),
            size: 1000,
            ttl: 190.0,
        }];
        let stats = Simulation::new(&chain_trace(), wl, SimConfig::paper(0), |_, _| {
            Box::new(Epidemic::new())
        })
        .run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 3, "relayed at each hop");
        assert!((stats.goodput() - 1.0 / 3.0).abs() < 1e-9);
        assert!(stats.control_bytes > 0, "summary vectors accounted");
    }

    #[test]
    fn sender_keeps_copy_after_replication() {
        let trace = ContactTrace::new(3, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 90.0,
        }];
        let trace2 = trace.clone();
        let sim = Simulation::new(&trace2, wl, SimConfig::paper(0), |_, _| {
            Box::new(Epidemic::new())
        });
        let stats = sim.run();
        assert_eq!(stats.relayed, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn does_not_resend_messages_peer_has() {
        // Two long overlapping contacts of the same pair would trigger
        // re-sends if the peer-buffer check were missing; the engine's
        // validate_plan would panic (debug) on an invalid plan.
        let trace = ContactTrace::new(
            2,
            300.0,
            vec![
                Contact::new(0, 1, 10.0, 100.0),
                Contact::new(0, 1, 150.0, 250.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1000,
            ttl: 290.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(Epidemic::new())
        })
        .run();
        // Delivered during the first contact; the second contact re-delivers
        // once more (destinations do not buffer), counted as duplicate.
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.duplicate_deliveries, 1);
    }
}
