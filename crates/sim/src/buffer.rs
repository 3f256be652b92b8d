//! Per-node message buffers with byte-capacity accounting.
//!
//! Storage is structure-of-arrays: the fields the hot paths scan — ids,
//! expiry, routing metadata — live in parallel columns, and the full
//! [`Message`] sits in a cold column touched only when a scan has already
//! matched. Each scan reads only the column it tests: the TTL sweep walks
//! the expiry column ([`Buffer::expired`]), deliver-first the message column
//! ([`Buffer::destined_to`]), and a contact's offer scan the id column,
//! assembling an entry view only for an id it keeps.
//!
//! Membership — "does this buffer hold message m?", asked once per entry of
//! every offer scan, the in-simulator summary-vector exchange — is a bitset
//! over the dense message-id space (ids are the workload arena's indices
//! `0..M`): bit m is set on insert and cleared on remove, so
//! [`Buffer::contains`] and the duplicate check of [`Buffer::insert`] are
//! one word test. The bitset grows on insert to ⌈(largest id + 1)/64⌉ words
//! and never shrinks, so a buffer spends at most M/8 bytes on it.
//!
//! Entries keep their insertion order; "oldest first" orderings
//! ([`Buffer::ids`], [`Buffer::iter`], [`Buffer::expired`],
//! [`Buffer::destined_to`]) are part of the semantics, not an implementation
//! accident. A lookup by id that needs the entry's slot walks the id column,
//! after the bitset has said the id is present; buffers hold at most a few
//! tens of messages in the paper's scenarios (1 MB capacity, 25 KB
//! messages).

use crate::ids::{MessageId, NodeId};
use crate::message::Message;
use crate::time::SimTime;

/// A buffered message together with its per-node routing metadata.
///
/// With column storage this is a *view* assembled on access, not the unit of
/// storage; it stays `Copy` and is returned by value.
#[derive(Clone, Copy, Debug)]
pub struct BufferEntry {
    /// The message itself.
    pub msg: Message,
    /// Quota-routing copy count: how many logical replicas this node holds.
    /// Always ≥ 1 while the entry is buffered.
    pub copies: u32,
    /// When this node obtained the message (creation or reception time).
    pub received_at: SimTime,
    /// Number of hops the message has taken to reach this node (0 at source).
    pub hops: u32,
}

/// Why a message left a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// TTL expired.
    Expired,
    /// Evicted to make room for an incoming message.
    BufferFull,
    /// Forwarded away: the node relinquished custody (not counted as a drop
    /// in statistics).
    ForwardedAway,
    /// Removed by the protocol (e.g. MaxProp ack purge).
    Protocol,
}

/// A byte-capacity-bounded message store, laid out as parallel columns
/// indexed by buffer slot (insertion order).
#[derive(Clone, Debug, Default)]
pub struct Buffer {
    capacity: u64,
    used: u64,
    /// Membership bitset: bit `m % 64` of word `m / 64` is set iff message
    /// `m` is buffered. Covers ids up to the largest one ever inserted.
    members: Vec<u64>,
    /// Ids in insertion order: the column offer scans walk.
    ids: Vec<MessageId>,
    /// Absolute expiry instants (`created + ttl`), for TTL sweeps.
    expiry: Vec<SimTime>,
    copies: Vec<u32>,
    received_at: Vec<SimTime>,
    hops: Vec<u32>,
    /// Cold column: full messages, read only after a scan already matched.
    msgs: Vec<Message>,
}

impl Buffer {
    /// Creates an empty buffer with `capacity` bytes of space.
    pub fn new(capacity: u64) -> Self {
        Buffer {
            capacity,
            ..Buffer::default()
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of buffered messages.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the buffer holds no messages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the buffer holds message `id`.
    #[inline]
    pub fn contains(&self, id: MessageId) -> bool {
        let i = id.idx();
        self.members
            .get(i / 64)
            .is_some_and(|&word| word >> (i % 64) & 1 == 1)
    }

    /// Assembles the entry view at slot `k`.
    #[inline]
    fn entry_at(&self, k: usize) -> BufferEntry {
        BufferEntry {
            msg: self.msgs[k],
            copies: self.copies[k],
            received_at: self.received_at[k],
            hops: self.hops[k],
        }
    }

    /// The slot of `id`, if buffered.
    #[inline]
    fn slot(&self, id: MessageId) -> Option<usize> {
        if !self.contains(id) {
            return None;
        }
        self.ids.iter().position(|&i| i == id)
    }

    /// The entry for `id`, if buffered.
    #[inline]
    pub fn get(&self, id: MessageId) -> Option<BufferEntry> {
        self.slot(id).map(|k| self.entry_at(k))
    }

    /// Mutable access to the copy count of `id`, if buffered — the only
    /// per-entry field protocols mutate in place.
    #[inline]
    pub fn copies_mut(&mut self, id: MessageId) -> Option<&mut u32> {
        let k = self.slot(id)?;
        Some(&mut self.copies[k])
    }

    /// Iterates over buffered entries in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = BufferEntry> + '_ {
        (0..self.len()).map(|k| self.entry_at(k))
    }

    /// The entries whose id passes `keep`, in insertion order. Only the id
    /// column is read for an entry `keep` rejects.
    #[inline]
    pub(crate) fn iter_where<'s>(
        &'s self,
        mut keep: impl FnMut(MessageId) -> bool + 's,
    ) -> impl Iterator<Item = BufferEntry> + 's {
        self.ids
            .iter()
            .enumerate()
            .filter(move |&(_, &id)| keep(id))
            .map(move |(k, _)| self.entry_at(k))
    }

    /// The ids of all buffered messages, in insertion order.
    #[inline]
    pub fn ids(&self) -> &[MessageId] {
        &self.ids
    }

    /// Ids of the messages expired at `now`, oldest first. Reads only the id
    /// and expiry columns.
    pub fn expired(&self, now: SimTime) -> impl Iterator<Item = MessageId> + '_ {
        self.ids
            .iter()
            .zip(&self.expiry)
            .filter(move |&(_, &expiry)| now > expiry)
            .map(|(&id, _)| id)
    }

    /// Ids of the messages destined to `dst`, oldest first. Reads only the
    /// message column.
    pub fn destined_to(&self, dst: NodeId) -> impl Iterator<Item = MessageId> + '_ {
        self.msgs.iter().filter(move |m| m.dst == dst).map(|m| m.id)
    }

    /// Whether an entry of `size` bytes would fit right now.
    #[inline]
    pub fn fits(&self, size: u32) -> bool {
        u64::from(size) <= self.free()
    }

    /// Inserts an entry.
    ///
    /// Returns `Err(entry)` without modifying the buffer when there is not
    /// enough free space or the message is already buffered (duplicate
    /// insertion is a protocol error the engine guards against).
    pub fn insert(&mut self, entry: BufferEntry) -> Result<(), BufferEntry> {
        if !self.fits(entry.msg.size) || self.contains(entry.msg.id) {
            return Err(entry);
        }
        debug_assert!(entry.copies >= 1);
        let i = entry.msg.id.idx();
        if self.members.len() <= i / 64 {
            self.members.resize(i / 64 + 1, 0);
        }
        self.members[i / 64] |= 1 << (i % 64);
        self.used += u64::from(entry.msg.size);
        self.ids.push(entry.msg.id);
        self.expiry.push(entry.msg.expiry());
        self.copies.push(entry.copies);
        self.received_at.push(entry.received_at);
        self.hops.push(entry.hops);
        self.msgs.push(entry.msg);
        Ok(())
    }

    /// Removes slot `k` from every column, returning the entry view.
    fn remove_at(&mut self, k: usize) -> BufferEntry {
        let entry = self.entry_at(k);
        let i = entry.msg.id.idx();
        self.members[i / 64] &= !(1 << (i % 64));
        self.ids.remove(k);
        self.expiry.remove(k);
        self.copies.remove(k);
        self.received_at.remove(k);
        self.hops.remove(k);
        self.msgs.remove(k);
        self.used -= u64::from(entry.msg.size);
        entry
    }

    /// Removes and returns the entry for `id`.
    pub fn remove(&mut self, id: MessageId) -> Option<BufferEntry> {
        let k = self.slot(id)?;
        Some(self.remove_at(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn msg(id: u32, size: u32, created: f64, ttl: f64) -> Message {
        Message {
            id: MessageId(id),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            created: SimTime::secs(created),
            ttl,
        }
    }

    fn entry(id: u32, size: u32) -> BufferEntry {
        BufferEntry {
            msg: msg(id, size, 0.0, 100.0),
            copies: 1,
            received_at: SimTime::ZERO,
            hops: 0,
        }
    }

    #[test]
    fn insert_and_capacity_accounting() {
        let mut b = Buffer::new(100);
        assert!(b.insert(entry(0, 60)).is_ok());
        assert_eq!(b.used(), 60);
        assert_eq!(b.free(), 40);
        assert!(b.insert(entry(1, 50)).is_err(), "over capacity");
        assert!(b.insert(entry(1, 40)).is_ok());
        assert_eq!(b.free(), 0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut b = Buffer::new(1000);
        assert!(b.insert(entry(3, 10)).is_ok());
        assert!(b.insert(entry(3, 10)).is_err());
        assert_eq!(b.len(), 1);
        assert_eq!(b.used(), 10);
    }

    #[test]
    fn remove_restores_space() {
        let mut b = Buffer::new(100);
        b.insert(entry(0, 70)).unwrap();
        assert!(b.remove(MessageId(9)).is_none());
        let e = b.remove(MessageId(0)).unwrap();
        assert_eq!(e.msg.id, MessageId(0));
        assert_eq!(b.used(), 0);
        assert!(b.is_empty());
    }

    /// The engine's TTL sweep: the expiry-column scan lists exactly the
    /// expired ids (expiry is strict), and removing them leaves the rest.
    #[test]
    fn sweep_drops_only_expired() {
        let mut b = Buffer::new(1000);
        b.insert(BufferEntry {
            msg: msg(0, 10, 0.0, 50.0),
            copies: 1,
            received_at: SimTime::ZERO,
            hops: 0,
        })
        .unwrap();
        b.insert(BufferEntry {
            msg: msg(1, 10, 0.0, 500.0),
            copies: 1,
            received_at: SimTime::ZERO,
            hops: 0,
        })
        .unwrap();
        assert_eq!(b.expired(SimTime::secs(50.0)).count(), 0);
        let dropped: Vec<MessageId> = b.expired(SimTime::secs(100.0)).collect();
        assert_eq!(dropped, vec![MessageId(0)]);
        for id in dropped {
            b.remove(id).unwrap();
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.used(), 10);
        assert!(b.contains(MessageId(1)));
        assert!(!b.contains(MessageId(0)));
    }

    #[test]
    fn destined_to_filters() {
        let mut b = Buffer::new(1000);
        let mut e = entry(0, 10);
        e.msg.dst = NodeId(5);
        b.insert(e).unwrap();
        b.insert(entry(1, 10)).unwrap();
        assert_eq!(
            b.destined_to(NodeId(5)).collect::<Vec<_>>(),
            vec![MessageId(0)]
        );
        assert_eq!(
            b.destined_to(NodeId(1)).collect::<Vec<_>>(),
            vec![MessageId(1)]
        );
    }

    /// Columns stay aligned through mixed insert/mutate/remove traffic, and
    /// the entry views reassemble every field.
    #[test]
    fn copies_mut_and_views_stay_consistent() {
        let mut b = Buffer::new(1000);
        for id in 0..4 {
            let mut e = entry(id, 10);
            e.copies = 8;
            e.hops = id;
            b.insert(e).unwrap();
        }
        *b.copies_mut(MessageId(2)).unwrap() = 3;
        assert!(b.copies_mut(MessageId(9)).is_none());
        b.remove(MessageId(1)).unwrap();
        assert_eq!(b.ids(), [MessageId(0), MessageId(2), MessageId(3)]);
        let got: Vec<(MessageId, u32, u32)> =
            b.iter().map(|e| (e.msg.id, e.copies, e.hops)).collect();
        assert_eq!(
            got,
            vec![
                (MessageId(0), 8, 0),
                (MessageId(2), 3, 2),
                (MessageId(3), 8, 3)
            ]
        );
        assert_eq!(b.get(MessageId(3)).unwrap().hops, 3);
        assert_eq!(b.used(), 30);
    }
}
