//! The routing-protocol interface.
//!
//! Each node runs one [`Router`] instance. The engine drives routers through
//! callbacks; routers never mutate buffers directly — they *propose* transfers
//! ([`TransferPlan`]) and *request* purges (via [`NodeCtx::purge`] or
//! [`ContactCtx::purge`]), and the engine applies them. This keeps every byte
//! of buffer accounting in one place and makes protocol implementations short
//! and auditable. Every callback that takes a context runs on one engine
//! path, which builds the context, runs the callback and then applies its
//! purges, so a purge requested from any callback, `on_dropped` included,
//! is applied the same way: the message leaves the buffer once, counts as a
//! [`DropReason::Protocol`] drop and comes back through
//! [`Router::on_dropped`].
//!
//! Control-plane exchange (summary vectors, delivery predictabilities,
//! meeting-interval matrices, ...) happens in [`Router::on_contact_up`], where
//! a protocol may downcast the peer router to its own concrete type — the
//! in-simulator equivalent of the metadata handshake real DTN nodes perform
//! when a link comes up. Implementations should account for the bytes they
//! exchange through [`ContactCtx::control_bytes`].

use crate::buffer::{Buffer, BufferEntry, DropReason};
use crate::ids::{MessageId, NodeId};
use crate::message::Message;
use crate::stats::SimStats;
use crate::time::SimTime;
use std::any::Any;

/// How a transfer affects the sender's copy count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferAction {
    /// Relinquish custody: all copies move to the peer and the sender deletes
    /// the message (single-copy forwarding).
    Forward,
    /// Quota split: hand `give` copies to the peer, keep the rest.
    Split {
        /// Number of copies transferred (≥ 1 and ≤ the sender's count).
        give: u32,
    },
    /// Replicate: the peer receives one copy, the sender's state is
    /// unchanged (epidemic-family flooding).
    Copy,
}

/// A transfer the router wants to start towards the current peer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferPlan {
    /// Message to send; must be buffered at the sender.
    pub msg: MessageId,
    /// Copy semantics of the transfer.
    pub action: TransferAction,
}

impl TransferPlan {
    /// Single-copy forward.
    pub fn forward(msg: MessageId) -> Self {
        TransferPlan {
            msg,
            action: TransferAction::Forward,
        }
    }

    /// Quota split handing over `give` copies.
    pub fn split(msg: MessageId, give: u32) -> Self {
        TransferPlan {
            msg,
            action: TransferAction::Split { give },
        }
    }

    /// Epidemic-style replication.
    pub fn copy(msg: MessageId) -> Self {
        TransferPlan {
            msg,
            action: TransferAction::Copy,
        }
    }
}

/// Context for node-local callbacks (creation, ticks, contact teardown).
pub struct NodeCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// This node.
    pub me: NodeId,
    /// This node's buffer (read-only; mutations go through plans/purges).
    pub buf: &'a Buffer,
    /// Global statistics (routers may account control bytes).
    pub stats: &'a mut SimStats,
    /// Messages the router wants removed from its own buffer; the engine
    /// applies these with [`DropReason::Protocol`] after the callback.
    pub purge: &'a mut Vec<MessageId>,
}

impl NodeCtx<'_> {
    /// Accounts `bytes` of control-plane traffic.
    #[inline]
    pub fn control_bytes(&mut self, bytes: u64) {
        self.stats.control_bytes += bytes;
    }
}

/// Read view of "messages already sent to the peer during this contact".
///
/// Backed by the engine's epoch-stamped per-direction transfer log: an entry
/// is a member iff its stamp equals the contact's epoch, so membership is one
/// indexed load and the engine never clears the log between contacts.
#[derive(Clone, Copy)]
pub struct SentSet<'a> {
    stamps: &'a [u32],
    epoch: u32,
}

impl<'a> SentSet<'a> {
    /// View over `stamps` valid for the contact identified by `epoch`.
    pub(crate) fn new(stamps: &'a [u32], epoch: u32) -> Self {
        SentSet { stamps, epoch }
    }

    /// A set containing nothing (used during the contact-up handshake,
    /// before any transfer can have happened).
    pub fn empty() -> SentSet<'static> {
        SentSet {
            stamps: &[],
            epoch: 0,
        }
    }

    /// Whether `msg` was already sent during this contact.
    #[inline]
    pub fn contains(&self, msg: &MessageId) -> bool {
        self.stamps.get(msg.idx()).is_some_and(|&s| s == self.epoch)
    }
}

/// Context for callbacks that happen while in contact with a peer.
pub struct ContactCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// This node.
    pub me: NodeId,
    /// The peer node of this contact.
    pub peer: NodeId,
    /// This node's buffer.
    pub buf: &'a Buffer,
    /// The peer's buffer (the "summary vector" a real node would receive).
    pub peer_buf: &'a Buffer,
    /// Global statistics.
    pub stats: &'a mut SimStats,
    /// Messages already sent to this peer during the current contact; the
    /// engine rejects plans that repeat them, and routers should filter on
    /// this set to avoid proposing dead transfers.
    pub sent: SentSet<'a>,
    /// Purge requests, as in [`NodeCtx::purge`].
    pub purge: &'a mut Vec<MessageId>,
}

impl ContactCtx<'_> {
    /// Accounts `bytes` of control-plane traffic.
    #[inline]
    pub fn control_bytes(&mut self, bytes: u64) {
        self.stats.control_bytes += bytes;
    }

    /// Whether `msg` may be offered to the peer: buffered here, not already
    /// buffered there, not yet sent during this contact.
    pub fn can_offer(&self, msg: MessageId) -> bool {
        self.buf.contains(msg) && !self.peer_buf.contains(msg) && !self.sent.contains(&msg)
    }

    /// The entries that may be offered to the peer ([`Self::can_offer`]),
    /// oldest first. Walks this buffer's id column and assembles an entry
    /// only for an id the peer lacks and that was not yet sent during this
    /// contact.
    pub fn offers(&self) -> impl Iterator<Item = BufferEntry> + '_ {
        self.buf
            .iter_where(|id| !self.peer_buf.contains(id) && !self.sent.contains(&id))
    }
}

/// A DTN routing protocol instance, one per node.
///
/// All methods have no-op defaults except [`Router::label`] and
/// [`Router::as_any_mut`], so trivial protocols stay trivial.
pub trait Router: Any {
    /// Short protocol name for reports (e.g. `"EER"`).
    fn label(&self) -> &'static str;

    /// Upcast used for peer-state exchange via downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Number of logical copies a freshly created message starts with
    /// (quota protocols return their λ).
    fn initial_copies(&self, _msg: &Message) -> u32 {
        1
    }

    /// Called once before the simulation starts.
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// Called right after this node generated `msg` (already buffered).
    fn on_message_created(&mut self, _ctx: &mut NodeCtx<'_>, _msg: MessageId) {}

    /// Called when a contact to `ctx.peer` comes up. `peer` is the peer's
    /// router, for control-plane exchange. The engine invokes this once per
    /// direction; implementations must only mutate *their own* routing state
    /// (reading the peer's is fine).
    fn on_contact_up(&mut self, _ctx: &mut ContactCtx<'_>, _peer: &mut dyn Router) {}

    /// Called when the contact to `peer` goes down.
    fn on_contact_down(&mut self, _ctx: &mut NodeCtx<'_>, _peer: NodeId) {}

    /// Asks for the next transfer towards `ctx.peer`, or `None` to idle.
    /// Invoked whenever the link direction is free.
    fn pick_transfer(&mut self, _ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        None
    }

    /// A transfer of `msg` to `to` completed; `delivered` is true when `to`
    /// is the destination. The buffer effect of `action` is already applied.
    fn on_sent(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _msg: &Message,
        _action: TransferAction,
        _to: NodeId,
        _delivered: bool,
    ) {
    }

    /// This node accepted `entry` from `from` (already buffered).
    fn on_received(&mut self, _ctx: &mut NodeCtx<'_>, _entry: &BufferEntry, _from: NodeId) {}

    /// A replica of `msg` arrived at this node as final destination (it is
    /// *not* buffered). `first` is true for the copy that counts as the
    /// delivery.
    fn on_delivery_received(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _msg: &Message,
        _from: NodeId,
        _first: bool,
    ) {
    }

    /// A message left the buffer for `reason` (TTL, eviction, purge).
    fn on_dropped(&mut self, _ctx: &mut NodeCtx<'_>, _msg: &Message, _reason: DropReason) {}

    /// Chooses victims to evict so that `incoming` fits. Returns ids in
    /// eviction order; the engine evicts until there is room (or gives up).
    /// The default drops the oldest-received messages first, which is the
    /// ONE simulator's default policy.
    fn select_drops(&mut self, buf: &Buffer, incoming: &Message, _now: SimTime) -> Vec<MessageId> {
        let mut entries: Vec<(SimTime, MessageId)> = buf
            .iter()
            .filter(|e| e.msg.id != incoming.id)
            .map(|e| (e.received_at, e.msg.id))
            .collect();
        entries.sort();
        entries.into_iter().map(|(_, id)| id).collect()
    }

    /// If `Some(dt)`, the engine calls [`Router::on_tick`] every `dt` seconds.
    fn tick_interval(&self) -> Option<f64> {
        None
    }

    /// Periodic callback (see [`Router::tick_interval`]).
    fn on_tick(&mut self, _ctx: &mut NodeCtx<'_>) {}
}

/// Borrow two distinct elements of a slice mutably.
///
/// # Panics
/// Panics if `i == j` or either index is out of bounds.
pub(crate) fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert!(i != j, "pair_mut needs distinct indices");
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_mut_returns_distinct() {
        let mut v = vec![1, 2, 3, 4];
        let (a, b) = pair_mut(&mut v, 3, 1);
        *a += 10;
        *b += 20;
        assert_eq!(v, vec![1, 22, 3, 14]);
    }

    #[test]
    #[should_panic]
    fn pair_mut_rejects_equal() {
        let mut v = vec![1, 2];
        let _ = pair_mut(&mut v, 1, 1);
    }

    #[test]
    fn plan_constructors() {
        assert_eq!(
            TransferPlan::forward(MessageId(1)).action,
            TransferAction::Forward
        );
        assert_eq!(
            TransferPlan::split(MessageId(1), 3).action,
            TransferAction::Split { give: 3 }
        );
        assert_eq!(
            TransferPlan::copy(MessageId(1)).action,
            TransferAction::Copy
        );
    }

    /// The offer scan yields exactly the entries `can_offer` admits, in
    /// buffer order: not those the peer holds, nor those already sent.
    #[test]
    fn offers_are_the_offerable_entries_in_buffer_order() {
        let entry = |id: u32| BufferEntry {
            msg: Message {
                id: MessageId(id),
                src: NodeId(0),
                dst: NodeId(2),
                size: 10,
                created: SimTime::ZERO,
                ttl: 100.0,
            },
            copies: 1,
            received_at: SimTime::ZERO,
            hops: 0,
        };
        let (mut mine, mut theirs) = (Buffer::new(1_000), Buffer::new(1_000));
        for id in [130, 5, 64, 7, 200] {
            mine.insert(entry(id)).unwrap();
        }
        theirs.insert(entry(64)).unwrap();
        let mut stamps = vec![u32::MAX; 256];
        stamps[7] = 3;
        let (mut stats, mut purge) = (SimStats::new(0), Vec::new());
        let ctx = ContactCtx {
            now: SimTime::ZERO,
            me: NodeId(0),
            peer: NodeId(1),
            buf: &mine,
            peer_buf: &theirs,
            stats: &mut stats,
            sent: SentSet::new(&stamps, 3),
            purge: &mut purge,
        };
        let offered: Vec<MessageId> = ctx.offers().map(|e| e.msg.id).collect();
        assert_eq!(offered, [MessageId(130), MessageId(5), MessageId(200)]);
        let admitted: Vec<MessageId> = mine
            .ids()
            .iter()
            .copied()
            .filter(|&id| ctx.can_offer(id))
            .collect();
        assert_eq!(offered, admitted);
    }

    /// The default drop policy evicts oldest-received first.
    #[test]
    fn default_select_drops_oldest_first() {
        struct Dummy;
        impl Router for Dummy {
            fn label(&self) -> &'static str {
                "dummy"
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut buf = Buffer::new(10_000);
        for (i, t) in [(0u32, 5.0), (1, 2.0), (2, 9.0)] {
            buf.insert(BufferEntry {
                msg: Message {
                    id: MessageId(i),
                    src: NodeId(0),
                    dst: NodeId(1),
                    size: 10,
                    created: SimTime::ZERO,
                    ttl: 100.0,
                },
                copies: 1,
                received_at: SimTime::secs(t),
                hops: 0,
            })
            .unwrap();
        }
        let incoming = Message {
            id: MessageId(7),
            src: NodeId(2),
            dst: NodeId(3),
            size: 10,
            created: SimTime::ZERO,
            ttl: 100.0,
        };
        let mut r = Dummy;
        let order = r.select_drops(&buf, &incoming, SimTime::secs(10.0));
        assert_eq!(order, vec![MessageId(1), MessageId(0), MessageId(2)]);
    }
}
