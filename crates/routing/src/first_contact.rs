//! First-contact routing (Jain, Fall & Patra, SIGCOMM'04 family): a single
//! copy is handed to the first node encountered — a random walk over the
//! contact graph. Cheap, rarely effective; a useful sanity baseline.
//!
//! Like the ONE's `FirstContactRouter`, a node never hands a message straight
//! back to the neighbour it received it from, which would otherwise ping-pong
//! the copy inside a single contact.

use crate::util::deliver_forward;
use dtn_sim::{BufferEntry, ContactCtx, MessageId, NodeCtx, NodeId, Router, TransferPlan};
use std::any::Any;
use std::collections::HashMap;

/// First-contact router.
#[derive(Debug, Default)]
pub struct FirstContact {
    /// Who each buffered message was received from (absent for own messages).
    received_from: HashMap<MessageId, NodeId>,
}

impl FirstContact {
    /// Creates a first-contact router.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Router for FirstContact {
    fn label(&self) -> &'static str {
        "FirstContact"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn on_received(&mut self, _ctx: &mut NodeCtx<'_>, entry: &BufferEntry, from: NodeId) {
        self.received_from.insert(entry.msg.id, from);
    }

    fn on_sent(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        msg: &dtn_sim::Message,
        _action: dtn_sim::TransferAction,
        _to: NodeId,
        _delivered: bool,
    ) {
        // Custody moved away (Forward): forget the provenance.
        self.received_from.remove(&msg.id);
    }

    fn on_dropped(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        msg: &dtn_sim::Message,
        _reason: dtn_sim::DropReason,
    ) {
        self.received_from.remove(&msg.id);
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        if let Some(plan) = deliver_forward(ctx) {
            return Some(plan);
        }
        ctx.offers()
            .find(|e| self.received_from.get(&e.msg.id) != Some(&ctx.peer))
            .map(|e| TransferPlan::forward(e.msg.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    #[test]
    fn custody_moves_single_copy() {
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
            Box::new(FirstContact::new())
        })
        .run();
        // 0 hands to 1 (first contact), 1 delivers to 2.
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.relayed, 2);
    }

    /// The copy must not bounce straight back to the node it came from.
    #[test]
    fn no_ping_pong_within_contact() {
        let trace = ContactTrace::new(3, 100.0, vec![Contact::new(0, 1, 10.0, 90.0)]);
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(2),
            size: 1000,
            ttl: 90.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
            Box::new(FirstContact::new())
        })
        .run();
        assert_eq!(stats.relayed, 1, "0→1 once; never back");
    }

    /// Provenance is forgotten once custody moves on, so a later fresh copy
    /// could legally travel back (bookkeeping stays bounded).
    #[test]
    fn provenance_cleared_on_forward() {
        let mut r = FirstContact::new();
        assert!(r.received_from.is_empty());
        // Simulated lifecycle through the engine is covered above; here we
        // check the map directly.
        r.received_from.insert(MessageId(0), NodeId(1));
        let msg = Message {
            id: MessageId(0),
            src: NodeId(1),
            dst: NodeId(2),
            size: 1,
            created: SimTime::ZERO,
            ttl: 10.0,
        };
        let mut purge = vec![];
        let mut stats = SimStats::new(0);
        let buf = Buffer::new(10);
        let mut ctx = NodeCtx {
            now: SimTime::ZERO,
            me: NodeId(0),
            buf: &buf,
            stats: &mut stats,
            purge: &mut purge,
        };
        r.on_sent(&mut ctx, &msg, TransferAction::Forward, NodeId(2), false);
        assert!(r.received_from.is_empty());
    }
}
