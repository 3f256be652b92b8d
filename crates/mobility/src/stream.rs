//! Streaming contact supply from mobility: trajectories → engine, no trace.
//!
//! [`MobilityContactSource`] plugs a [`ContactStepper`] into the engine's
//! [`ContactSource`] interface: each `next_window(until)` call advances the
//! sampling loop only as far as `until`, emitting per step the contacts that
//! closed (sorted by `(start, pair)`) followed by the pairs that opened
//! (sorted by pair), all at the step's time. Steps come in time order, so
//! the events do too, as the engine's contact lane requires, with exactly
//! the tie order a materialized
//! [`generate_trace`](crate::contacts::generate_trace) +
//! [`dtn_sim::TraceReplaySource`] pair produces: streaming and materialized
//! runs are bit-identical, while peak memory stays bounded by the neighbour
//! list and one window's events, not the horizon.

use crate::contacts::{ContactGenConfig, ContactStepper};
use crate::trajectory::Trajectory;
use dtn_sim::{Contact, ContactEvent, ContactSource, NodePair, SimTime};

/// A [`ContactSource`] that detects contacts on the fly from trajectories.
#[derive(Debug)]
pub struct MobilityContactSource {
    trajs: Vec<Trajectory>,
    stepper: ContactStepper,
    duration: f64,
    /// Scratch reused across steps.
    downs: Vec<Contact>,
    ups: Vec<NodePair>,
}

impl MobilityContactSource {
    /// Builds a source that samples `trajs` over `[0, duration)` with `cfg`.
    ///
    /// # Panics
    /// Panics if `range` or `dt` is not positive.
    pub fn new(trajs: Vec<Trajectory>, duration: f64, cfg: ContactGenConfig) -> Self {
        let stepper = ContactStepper::new(&trajs, duration, cfg);
        MobilityContactSource {
            trajs,
            stepper,
            duration,
            downs: Vec::new(),
            ups: Vec::new(),
        }
    }
}

impl ContactSource for MobilityContactSource {
    fn n_nodes(&self) -> u32 {
        self.trajs.len() as u32
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn next_window(&mut self, until: f64, out: &mut Vec<ContactEvent>) {
        while let Some(t) = self.stepper.next_time() {
            if t >= until && until < self.duration {
                break;
            }
            self.downs.clear();
            self.ups.clear();
            self.stepper
                .step(&self.trajs, &mut self.downs, &mut self.ups)
                .expect("next_time returned Some, step must advance");
            out.extend(self.downs.iter().map(|c| ContactEvent::Down {
                pair: c.pair,
                at: c.end,
            }));
            out.extend(self.ups.iter().map(|&pair| ContactEvent::Up {
                pair,
                at: SimTime::secs(t),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contacts::generate_trace;
    use crate::scenario::ScenarioConfig;
    use dtn_sim::TraceReplaySource;

    /// Pumps a source dry with the given window length, returning all events.
    fn drain(src: &mut dyn ContactSource, window: f64) -> Vec<ContactEvent> {
        let mut out = Vec::new();
        let mut until = 0.0;
        while until < src.duration() {
            until = (until + window).min(src.duration());
            src.next_window(until, &mut out);
        }
        out
    }

    /// Streaming and trace replay emit the same events in the same order,
    /// which is the engine's pop order: the contact lane pops in emission
    /// order.
    #[test]
    fn stream_matches_trace_replay_order() {
        let cfg = ScenarioConfig::small(10, 400.0);
        let sc = cfg.build(7);
        let trace = generate_trace(&sc.trajectories, cfg.duration, cfg.contact);
        assert!(
            trace.contacts.len() >= 3,
            "scenario too sparse to be a meaningful test"
        );

        let mut replay = TraceReplaySource::new(&trace);
        let replayed = drain(&mut replay, 50.0);
        assert!(replayed.is_sorted_by_key(|e| e.at()));

        for window in [13.0, 60.0, 400.0] {
            let mut stream =
                MobilityContactSource::new(sc.trajectories.clone(), cfg.duration, cfg.contact);
            assert_eq!(stream.n_nodes(), 10);
            let streamed = drain(&mut stream, window);
            assert_eq!(streamed, replayed, "window {window}");
        }
    }

    /// Contacts still open at the horizon are closed by the final window.
    #[test]
    fn horizon_close_is_emitted() {
        use crate::geometry::Point;
        let trajs = vec![
            Trajectory::stationary(Point::new(0.0, 0.0)),
            Trajectory::stationary(Point::new(5.0, 0.0)),
        ];
        let mut src = MobilityContactSource::new(trajs, 30.0, ContactGenConfig::default());
        let events = drain(&mut src, 10.0);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], ContactEvent::Up { .. }));
        let ContactEvent::Down { at, .. } = events[1] else {
            panic!("expected a horizon close");
        };
        assert_eq!(at, SimTime::secs(30.0));
    }
}
