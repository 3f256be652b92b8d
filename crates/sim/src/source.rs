//! Streaming contact supply: contact events pulled on demand.
//!
//! A [`ContactSource`] yields contact up/down events in windows of simulated
//! time as the engine advances, so a run never has to materialize its whole
//! contact process up front. [`crate::Simulation::from_source`] pulls one
//! window ahead of the event clock; [`TraceReplaySource`] adapts a
//! pre-recorded [`ContactTrace`] to the interface, which is how
//! [`crate::Simulation::new`] loads traces — same events, same order,
//! bounded queue instead of a whole-horizon bulk load.
//!
//! ## Ordering contract
//!
//! A source emits its events in nondecreasing time order, across windows as
//! well as within one: the engine appends them to the event queue's FIFO
//! contact lane ([`crate::event::EventQueue::push_contact`]), which pops
//! them in emission order and rejects an event earlier than the one before.
//! At any single timestamp all `Down` events precede all `Up` events,
//! `Down`s are sorted by their contact's `(start, pair)` and `Up`s by
//! `pair`. This is exactly the tie order of a trace sorted by
//! `(start, pair)` — the order [`crate::trace::ContactTrace::new`] produces —
//! so a streaming source and a materialized trace drive bit-identical
//! simulations.

use crate::ids::NodePair;
use crate::time::SimTime;
use crate::trace::{Contact, ContactTrace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One contact edge event produced by a [`ContactSource`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ContactEvent {
    /// A contact begins at `at`.
    Up {
        /// The node pair coming into contact.
        pair: NodePair,
        /// Contact start time.
        at: SimTime,
    },
    /// A contact ends at `at`.
    Down {
        /// The node pair losing contact.
        pair: NodePair,
        /// Contact end time.
        at: SimTime,
    },
}

impl ContactEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            ContactEvent::Up { at, .. } | ContactEvent::Down { at, .. } => at,
        }
    }
}

/// A demand-driven supply of contact events for one scenario.
///
/// The engine calls [`ContactSource::next_window`] with a monotonically
/// increasing `until`; each call must append every not-yet-emitted event
/// timed before `until`, and no later one: a `Down` beyond `until` waits
/// for the window that contains it. When `until` reaches
/// [`ContactSource::duration`], the source finalizes: it emits everything
/// left, and contacts still open at the horizon emit their `Down` at
/// `duration`. See the module docs for the ordering contract.
pub trait ContactSource: Send {
    /// Number of nodes in the scenario.
    fn n_nodes(&self) -> u32;

    /// Scenario horizon in seconds.
    fn duration(&self) -> f64;

    /// Appends to `out` every pending event timed in
    /// `[previous until, until)`, in the documented order. Called with
    /// nondecreasing `until`; `until == duration` finalizes the source.
    fn next_window(&mut self, until: f64, out: &mut Vec<ContactEvent>);

    /// Preferred window length in simulated seconds: the engine stays about
    /// this far ahead of the event clock. The contact lane pops in O(1)
    /// whatever it holds, so a longer window only holds more events in
    /// memory and a shorter one costs more calls; correctness does not
    /// depend on it.
    fn window_hint(&self) -> f64 {
        2.0
    }
}

/// Replays a recorded [`ContactTrace`] as a [`ContactSource`].
///
/// Merges the trace's starts, in index order, with a heap of the open
/// contacts' `(end, index)`, a `Down` first at a tie: the same event order
/// the engine's historic bulk loader produced by queueing each contact's
/// `Up` and `Down` back to back, so replay runs are bit-identical to
/// pre-streaming builds.
#[derive(Debug)]
pub struct TraceReplaySource {
    n_nodes: u32,
    duration: f64,
    contacts: Vec<Contact>,
    /// Index of the first contact whose `Up` is not yet emitted.
    next: usize,
    /// `(end, index)` of every contact whose `Up` is emitted and `Down` is
    /// not.
    open: BinaryHeap<Reverse<(SimTime, usize)>>,
}

impl TraceReplaySource {
    /// Builds a replay source from a validated trace.
    ///
    /// # Panics
    /// Panics if the trace fails validation, naming the offending contact
    /// index and the contact itself.
    pub fn new(trace: &ContactTrace) -> Self {
        if let Err(e) = trace.validate() {
            let idx = e.contact_idx();
            panic!(
                "invalid contact trace: {e:?} (contact #{idx}: {:?})",
                trace.contacts.get(idx)
            );
        }
        TraceReplaySource {
            n_nodes: trace.n_nodes,
            duration: trace.duration,
            contacts: trace.contacts.clone(),
            next: 0,
            open: BinaryHeap::new(),
        }
    }
}

impl ContactSource for TraceReplaySource {
    fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn next_window(&mut self, until: f64, out: &mut Vec<ContactEvent>) {
        let last = until >= self.duration;
        loop {
            let up = self.contacts.get(self.next);
            let event = match (self.open.peek(), up) {
                // At a tie the Down goes first: it ends an earlier contact.
                (Some(&Reverse((end, i))), _) if up.is_none_or(|c| end <= c.start) => {
                    ContactEvent::Down {
                        pair: self.contacts[i].pair,
                        at: end,
                    }
                }
                (_, Some(c)) => ContactEvent::Up {
                    pair: c.pair,
                    at: c.start,
                },
                (_, None) => break,
            };
            if !last && event.at().as_secs() >= until {
                break;
            }
            match event {
                ContactEvent::Up { .. } => {
                    self.open
                        .push(Reverse((self.contacts[self.next].end, self.next)));
                    self.next += 1;
                }
                ContactEvent::Down { .. } => {
                    self.open.pop();
                }
            }
            out.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn trace() -> ContactTrace {
        ContactTrace::new(
            4,
            100.0,
            vec![
                Contact::new(0, 1, 10.0, 20.0),
                Contact::new(2, 3, 10.0, 90.0),
                Contact::new(1, 2, 55.0, 100.0),
            ],
        )
    }

    /// Events come in time order, window by window: a `Down` waits for the
    /// window that holds its end, and an event at `until` for the next one.
    #[test]
    fn replay_emits_in_trace_order_per_window() {
        let mut src = TraceReplaySource::new(&trace());
        assert_eq!(src.n_nodes(), 4);
        assert_eq!(src.duration(), 100.0);
        let pair = |a, b| NodePair::new(NodeId(a), NodeId(b));
        let up = |a, b, t| ContactEvent::Up {
            pair: pair(a, b),
            at: SimTime::secs(t),
        };
        let down = |a, b, t| ContactEvent::Down {
            pair: pair(a, b),
            at: SimTime::secs(t),
        };
        let mut out = Vec::new();
        src.next_window(50.0, &mut out);
        assert_eq!(out, [up(0, 1, 10.0), up(2, 3, 10.0), down(0, 1, 20.0)]);
        out.clear();
        src.next_window(55.0, &mut out);
        assert!(out.is_empty(), "an Up at `until` waits for the next window");
        src.next_window(100.0, &mut out);
        assert_eq!(out, [up(1, 2, 55.0), down(2, 3, 90.0), down(1, 2, 100.0)]);
        out.clear();
        src.next_window(100.0, &mut out);
        assert!(out.is_empty(), "source is exhausted");
    }

    #[test]
    fn final_window_emits_everything() {
        let mut src = TraceReplaySource::new(&trace());
        let mut out = Vec::new();
        src.next_window(100.0, &mut out);
        assert_eq!(out.len(), 6);
    }

    #[test]
    #[should_panic(expected = "invalid contact trace")]
    fn replay_rejects_invalid_trace() {
        let bad = ContactTrace::new(1, 100.0, vec![Contact::new(0, 5, 1.0, 2.0)]);
        let _ = TraceReplaySource::new(&bad);
    }
}
