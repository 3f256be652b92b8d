//! Model-based property tests of [`EventQueue`]: under arbitrary
//! push/peek/pop interleavings it must pop exactly what a model pops — a
//! `Vec` scanned for the minimum `(time, band, push index)`, with the
//! contact band (`push_contact`) before every other event (`push`) at equal
//! times and FIFO push order within a band.

use dtn_sim::event::{EventKind, EventQueue};
use dtn_sim::prelude::*;
use proptest::prelude::*;

/// The reference: pending events in push order, popped by a linear scan.
#[derive(Default)]
struct Model {
    /// `(time, band, push index, kind)`; band 0 is the contact band.
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
    /// band first, each band in FIFO push order, regardless of push
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
}
