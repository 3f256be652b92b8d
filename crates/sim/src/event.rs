//! The deterministic discrete-event queue.
//!
//! Events are ordered by time; ties break by scheduling order, so runs are
//! bit-for-bit reproducible regardless of queue internals or platform.
//! [`EventQueue`] keeps two lanes:
//!
//! * **the contact lane**, a FIFO of the contact events pushed through
//!   [`EventQueue::push_contact`]. Every [`crate::source::ContactSource`]
//!   emits in time order, so the lane stays sorted by itself: a push and a
//!   pop cost O(1) and carry no sequence number. A push earlier than the
//!   last one panics, naming both times;
//! * **a binary heap** over `(time, seq)` for every other event (message
//!   creation, transfer completion, sweeps, ticks, probe samples and the
//!   end), where push and pop cost O(log n) in those few pending events.
//!
//! At equal times the contact lane pops first, and within each lane events
//! pop in push order. That is the order the engine produced historically,
//! when it pushed the whole contact trace into the queue before any
//! workload event, so the streaming contact supply is bit-compatible with
//! bulk loading.

use crate::ids::{MessageId, NodeId, NodePair};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// A time-ordered, FIFO-tie-broken event queue: a FIFO lane of contact
/// events beside a binary heap over `(time, seq)` for the rest.
///
/// Pops come in nondecreasing time order and, at equal times, contacts
/// ([`EventQueue::push_contact`]) before everything else
/// ([`EventQueue::push`]), each lane in push order.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Contact events in push order, which is nondecreasing time order.
    contacts: VecDeque<(SimTime, EventKind)>,
    /// The time of the last contact push; later pushes may not precede it.
    last_contact: SimTime,
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a non-contact event `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, kind }));
    }

    /// Appends a contact event at `time` to the contact lane: at equal
    /// times, contact events pop before any event scheduled with
    /// [`EventQueue::push`], in `push_contact` call order. The engine's
    /// contact supply is the only intended caller.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the previous contact push.
    pub fn push_contact(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(
            matches!(
                kind,
                EventKind::ContactUp { .. } | EventKind::ContactDown { .. }
            ),
            "the contact lane is reserved for contact events"
        );
        assert!(
            time >= self.last_contact,
            "contact event at {} s pushed after one at {} s: contact events \
             must come in time order",
            time.as_secs(),
            self.last_contact.as_secs()
        );
        self.last_contact = time;
        self.contacts.push_back((time, kind));
    }

    /// Whether the next pop comes from the contact lane.
    #[inline]
    fn contact_first(&self) -> bool {
        match (self.contacts.front(), self.heap.peek()) {
            (Some(&(t, _)), Some(Reverse(s))) => t <= s.time,
            (front, _) => front.is_some(),
        }
    }

    /// Pops the earliest event; contacts first at equal times, each lane in
    /// push order.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        if self.contact_first() {
            self.contacts.pop_front()
        } else {
            self.heap.pop().map(|Reverse(s)| (s.time, s.kind))
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.contact_first() {
            self.contacts.front().map(|&(t, _)| t)
        } else {
            self.heap.peek().map(|Reverse(s)| s.time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.contacts.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty() && self.heap.is_empty()
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

    /// A contact lane that stays sorted by itself needs its pushes in time
    /// order; a late one is a supply bug and must not pass silently.
    #[test]
    #[should_panic(expected = "contact event at 3.5 s pushed after one at 4 s")]
    fn late_contact_push_panics() {
        let pair = NodePair::new(NodeId(0), NodeId(1));
        let mut q = EventQueue::new();
        q.push_contact(SimTime::secs(4.0), EventKind::ContactUp { pair });
        q.pop();
        q.push_contact(SimTime::secs(3.5), EventKind::ContactDown { pair });
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
