//! Model-based property tests of [`EventQueue`]: under arbitrary
//! push/peek/pop interleavings it must pop exactly what a model pops — a
//! `Vec` scanned for the minimum `(time, band, push index)`, with the
//! contact lane (`push_contact`, fed in time order as every contact source
//! emits) before every other event (`push`) at equal times and FIFO push
//! order within each. And a [`TraceReplaySource`] drained through the queue
//! as the engine drains it must pop what the historic bulk loader did.

use dtn_sim::event::{EventKind, EventQueue};
use dtn_sim::prelude::*;
use dtn_sim::{Contact, ContactEvent, ContactSource, ContactTrace, TraceReplaySource};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference: pending events in push order, popped by a linear scan.
#[derive(Default)]
struct Model {
    /// `(time, band, push index, kind)`; band 0 holds the contact events.
    pending: Vec<(SimTime, u8, usize, EventKind)>,
    pushed: usize,
}

impl Model {
    fn push(&mut self, time: SimTime, contact: bool, kind: EventKind) {
        self.pending
            .push((time, u8::from(!contact), self.pushed, kind));
        self.pushed += 1;
    }

    fn min_index(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| {
            let (time, band, idx, _) = self.pending[i];
            (time, band, idx)
        })
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.min_index().map(|i| self.pending[i].0)
    }

    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.min_index().map(|i| {
            let (time, _, _, kind) = self.pending.remove(i);
            (time, kind)
        })
    }
}

proptest! {
    /// Arbitrary interleavings of band pushes, peeks, and pops agree with
    /// the model, then both drain identically.
    #[test]
    fn queue_matches_min_scan_model(
        ops in proptest::collection::vec((0u32..4, 0u32..100), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut i = 0u32;
        let mut last_contact = SimTime::ZERO;
        for (op, t) in ops {
            // Non-integral, clustered times make equal-time ties common.
            let time = SimTime::secs(f64::from(t) * 0.31);
            match op {
                0 => {
                    let kind = EventKind::MessageCreate { spec_idx: i };
                    q.push(time, kind);
                    model.push(time, false, kind);
                    i += 1;
                }
                1 => {
                    // Contact events come in time order.
                    let time = time.max(last_contact);
                    last_contact = time;
                    let pair = NodePair::new(NodeId(0), NodeId(1 + (i % 7)));
                    let kind = EventKind::ContactUp { pair };
                    q.push_contact(time, kind);
                    model.push(time, true, kind);
                    i += 1;
                }
                2 => prop_assert_eq!(q.peek_time(), model.peek_time()),
                _ => prop_assert_eq!(q.pop(), model.pop()),
            }
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.is_empty(), model.pending.is_empty());
        }
        loop {
            let a = q.pop();
            let b = model.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// At one shared timestamp, the queue and the model pop the contact
    /// lane first, each lane in FIFO push order, regardless of push
    /// interleaving.
    #[test]
    fn equal_time_bands_pop_fifo(
        contact_first in proptest::collection::vec(any::<bool>(), 1..40)
    ) {
        let t = SimTime::secs(42.5);
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut contacts = Vec::new();
        let mut others = Vec::new();
        for (i, is_contact) in contact_first.iter().enumerate() {
            let i = i as u32;
            if *is_contact {
                let kind = EventKind::ContactUp {
                    pair: NodePair::new(NodeId(0), NodeId(i + 1)),
                };
                q.push_contact(t, kind);
                model.push(t, true, kind);
                contacts.push(kind);
            } else {
                let kind = EventKind::MessageCreate { spec_idx: i };
                q.push(t, kind);
                model.push(t, false, kind);
                others.push(kind);
            }
        }
        for expect in contacts.into_iter().chain(others) {
            prop_assert_eq!(q.pop(), Some((t, expect)));
            prop_assert_eq!(model.pop(), Some((t, expect)));
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(model.pop().is_none());
    }

    /// Replaying a trace through the queue, pumped window by window as the
    /// engine pumps it, pops exactly what the historic bulk loader popped:
    /// each contact's `Up` and `Down` pushed back to back, in trace order,
    /// into one `(time, seq)` heap whose contact sequence numbers sit below
    /// every other event's. The traces have many equal starts (runs of them
    /// reversed in half the cases, so trace order is not pair order), pairs
    /// that reconnect at the instant they disconnected, and contacts cut by
    /// the horizon; the windows are of any length.
    #[test]
    fn replay_through_the_lane_pops_the_bulk_load_order(
        n in 2u32..6,
        meetings in proptest::collection::vec(
            proptest::collection::vec((0u32..3, 1u32..7), 0..9),
            15..16,
        ),
        reverse_ties in any::<bool>(),
        creates in proptest::collection::vec(0u32..31, 0..10),
        window in 0.1f64..12.0,
    ) {
        const HORIZON: u32 = 30;
        let at = |k: u32| f64::from(k) * 0.25;
        let mut contacts = Vec::new();
        let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
        for ((a, b), meets) in pairs.zip(&meetings) {
            let mut t = 0;
            for &(gap, len) in meets {
                let start = t + gap;
                if start >= HORIZON {
                    break;
                }
                t = (start + len).min(HORIZON);
                contacts.push(Contact::new(a, b, at(start), at(t)));
            }
        }
        let mut trace = ContactTrace::new(n, at(HORIZON), contacts);
        if reverse_ties {
            trace.contacts.reverse();
            trace.contacts.sort_by_key(|c| c.start);
        }
        prop_assert!(trace.validate().is_ok());

        // The reference: the historic bulk load into one heap.
        let mut kinds = Vec::new();
        let mut heap = BinaryHeap::new();
        let mut schedule = |heap: &mut BinaryHeap<_>, time: SimTime, seq: u64, kind| {
            heap.push(Reverse((time, seq, kinds.len())));
            kinds.push(kind);
        };
        for (i, c) in trace.contacts.iter().enumerate() {
            let seq = 2 * i as u64;
            schedule(&mut heap, c.start, seq, EventKind::ContactUp { pair: c.pair });
            schedule(&mut heap, c.end, seq + 1, EventKind::ContactDown { pair: c.pair });
        }
        let mut q = EventQueue::new();
        for (i, &k) in creates.iter().enumerate() {
            let kind = EventKind::MessageCreate { spec_idx: i as u32 };
            schedule(&mut heap, SimTime::secs(at(k)), (1 << 62) + i as u64, kind);
            q.push(SimTime::secs(at(k)), kind);
        }
        let mut want = Vec::new();
        while let Some(Reverse((time, _, k))) = heap.pop() {
            want.push((time, kinds[k]));
        }

        // The engine's pump: before every pop, draw windows until the
        // earliest pending event lies inside loaded territory.
        let mut src = TraceReplaySource::new(&trace);
        let (mut loaded, duration) = (0.0, src.duration());
        let mut window_out = Vec::new();
        let mut got = Vec::new();
        loop {
            while loaded < duration {
                if matches!(q.peek_time(), Some(t) if t.as_secs() < loaded) {
                    break;
                }
                let until = (loaded + window).min(duration);
                window_out.clear();
                src.next_window(until, &mut window_out);
                for ev in &window_out {
                    match *ev {
                        ContactEvent::Up { pair, at } => {
                            q.push_contact(at, EventKind::ContactUp { pair })
                        }
                        ContactEvent::Down { pair, at } => {
                            q.push_contact(at, EventKind::ContactDown { pair })
                        }
                    }
                }
                loaded = until;
            }
            let Some(event) = q.pop() else { break };
            got.push(event);
        }
        prop_assert_eq!(got, want);
    }
}
