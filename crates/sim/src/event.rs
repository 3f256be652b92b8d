//! The deterministic discrete-event queue.
//!
//! Events are ordered by time, with a monotone sequence number breaking ties
//! so that equal-time events pop in scheduling (FIFO) order. This makes runs
//! bit-for-bit reproducible regardless of queue internals or platform.
//! [`EventQueue`] keeps them in a binary heap, so push and pop cost
//! O(log n) in the pending events; the engine queues contacts at most one
//! supply window ahead of the clock.
//!
//! ## Sequence bands
//!
//! Contact events scheduled through [`EventQueue::push_contact`] draw
//! sequence numbers from 0 upward, while every other event counts from a
//! disjoint upper band. At equal times, contacts therefore pop before
//! non-contact events, and among themselves in supply order — exactly the
//! order the engine produced historically, when it pushed the whole contact
//! trace into the queue before any workload event. Keeping the bands apart
//! is what makes the streaming contact supply
//! ([`crate::source::ContactSource`]) bit-compatible with bulk loading.

use crate::ids::{MessageId, NodeId, NodePair};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What can happen in the simulated world.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A contact between two nodes begins.
    ContactUp {
        /// The node pair coming into contact.
        pair: NodePair,
    },
    /// The contact between two nodes ends.
    ContactDown {
        /// The node pair losing contact.
        pair: NodePair,
    },
    /// The workload creates message number `spec_idx`.
    MessageCreate {
        /// Index into the workload's spec list (also the message id).
        spec_idx: u32,
    },
    /// An in-flight transfer completes. `epoch` guards against the link
    /// having gone down (and its slot possibly been recycled) in the
    /// meantime.
    TransferDone {
        /// Slab index of the link slot carrying the transfer.
        link: u32,
        /// Sender of the transfer.
        from: NodeId,
        /// The message in flight.
        msg: MessageId,
        /// Link epoch at transfer start.
        epoch: u32,
    },
    /// Periodic buffer sweep removing expired messages.
    TtlSweep,
    /// Periodic per-node router tick (e.g. EBR's window update).
    RouterTick {
        /// The node whose router ticks.
        node: NodeId,
    },
    /// Periodic observer sample: the engine snapshots global buffer
    /// occupancy and broadcasts a [`SimEvent::Tick`] to every observer.
    /// Pure observation — processing it never mutates simulation state, so
    /// attaching probes cannot change a run's statistics.
    ///
    /// [`SimEvent::Tick`]: crate::observe::SimEvent::Tick
    ProbeSample {
        /// Index into the engine's table of distinct sampling intervals
        /// (each interval keeps its own event chain).
        interval: u32,
    },
    /// End of simulation.
    End,
}

/// First sequence number of the non-contact band (see module docs). The
/// contact band below it never catches up: exhausting 2^62 contact events
/// is unreachable within a run.
const OTHER_SEQ_BASE: u64 = 1 << 62;

#[derive(Clone, Copy, Debug)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A time-ordered, FIFO-tie-broken event queue: a binary heap over
/// `(time, seq)`.
///
/// Pops come in nondecreasing time order and, at equal times, in scheduling
/// order within each sequence band — contacts ([`EventQueue::push_contact`])
/// before everything else ([`EventQueue::push`]).
#[derive(Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_contact_seq: u64,
    next_other_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_contact_seq: 0,
            next_other_seq: OTHER_SEQ_BASE,
        }
    }

    /// Schedules `kind` at `time` in the non-contact band.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_other_seq;
        self.next_other_seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, kind }));
    }

    /// Schedules a contact event at `time` in the contact band: at equal
    /// times, contact events pop before any event scheduled with
    /// [`EventQueue::push`], in `push_contact` call order. The engine's
    /// contact supply is the only intended caller.
    pub fn push_contact(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(
            matches!(
                kind,
                EventKind::ContactUp { .. } | EventKind::ContactDown { .. }
            ),
            "contact band is reserved for contact events"
        );
        let seq = self.next_contact_seq;
        self.next_contact_seq += 1;
        debug_assert!(seq < OTHER_SEQ_BASE, "contact sequence band exhausted");
        self.heap.push(Reverse(Scheduled { time, seq, kind }));
    }

    /// Pops the earliest event; FIFO among equal times (per band).
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.heap.pop().map(|Reverse(s)| (s.time, s.kind))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(5.0), EventKind::TtlSweep);
        q.push(SimTime::secs(1.0), EventKind::End);
        q.push(SimTime::secs(3.0), EventKind::MessageCreate { spec_idx: 0 });
        assert_eq!(q.pop().unwrap().0, SimTime::secs(1.0));
        assert_eq!(q.pop().unwrap().0, SimTime::secs(3.0));
        assert_eq!(q.pop().unwrap().0, SimTime::secs(5.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::secs(7.0), EventKind::MessageCreate { spec_idx: i });
        }
        for i in 0..100u32 {
            match q.pop().unwrap().1 {
                EventKind::MessageCreate { spec_idx } => assert_eq!(spec_idx, i),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(2.0), EventKind::End);
        assert_eq!(q.peek_time(), Some(SimTime::secs(2.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn contact_band_pops_before_other_band_at_equal_time() {
        let pair = NodePair::new(NodeId(0), NodeId(1));
        let mut q = EventQueue::new();
        // Non-contact events scheduled *first* still lose the tie.
        q.push(SimTime::secs(4.0), EventKind::TtlSweep);
        q.push(SimTime::secs(4.0), EventKind::End);
        q.push_contact(SimTime::secs(4.0), EventKind::ContactDown { pair });
        q.push_contact(SimTime::secs(4.0), EventKind::ContactUp { pair });
        assert_eq!(q.pop().unwrap().1, EventKind::ContactDown { pair });
        assert_eq!(q.pop().unwrap().1, EventKind::ContactUp { pair });
        assert_eq!(q.pop().unwrap().1, EventKind::TtlSweep);
        assert_eq!(q.pop().unwrap().1, EventKind::End);
    }

    /// An event scheduled before the last popped time (never done by the
    /// engine, but allowed by the API) must still pop first.
    #[test]
    fn past_schedule_still_pops_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(100.0), EventKind::End);
        q.push(SimTime::secs(50.0), EventKind::TtlSweep);
        assert_eq!(q.pop().unwrap().0, SimTime::secs(50.0));
        q.push(SimTime::secs(10.0), EventKind::TtlSweep);
        assert_eq!(q.pop().unwrap().0, SimTime::secs(10.0));
        assert_eq!(q.pop().unwrap().0, SimTime::secs(100.0));
    }

    /// A sparse far-future tail pops in time order.
    #[test]
    fn sparse_far_future_events_pop_correctly() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(0.5), EventKind::TtlSweep);
        q.push(SimTime::secs(1.0e6), EventKind::End);
        q.push(SimTime::secs(2.5e5), EventKind::TtlSweep);
        assert_eq!(q.pop().unwrap().0, SimTime::secs(0.5));
        assert_eq!(q.pop().unwrap().0, SimTime::secs(2.5e5));
        assert_eq!(q.pop().unwrap().0, SimTime::secs(1.0e6));
        assert!(q.pop().is_none());
    }
}
