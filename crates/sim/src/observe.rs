//! The observation layer: simulation events, observers and probes.
//!
//! The engine no longer hard-codes what gets measured. Every observable
//! occurrence — a message generated, forwarded, delivered, dropped, a
//! contact starting or ending, a periodic occupancy sample — is a
//! [`SimEvent`], and anything that wants to measure a run implements
//! [`SimObserver`] and is attached with
//! [`Simulation::add_observer`](crate::Simulation::add_observer). The
//! default observer is [`SimStats`](crate::SimStats) itself: the engine
//! folds every event into its stats through the exact same
//! [`SimStats::apply`](crate::SimStats::apply) the observer impl uses, so an
//! external `SimStats` replica fed from the event stream is bitwise
//! identical to the engine's own (a property test pins this).
//!
//! Observers receive events in **batches**: the engine accumulates events in
//! a reused scratch buffer and dispatches a slice once it fills (and at run
//! end), so adding observers costs a slice iteration, not a virtual call per
//! event. Each event carries its own timestamp, which makes batch timing
//! invisible to observers — a probe's output is a pure function of the event
//! stream, and therefore exactly as deterministic as the simulation.
//!
//! Two probes ship with the crate:
//!
//! * [`TimeSeriesProbe`] — samples cumulative delivery / relay / drop
//!   counters and global buffer occupancy at a configurable cadence,
//!   yielding the delivery-ratio-over-time and overhead-over-time curves the
//!   paper plots, from a *single* run;
//! * [`LatencyHistogramProbe`] — collects per-delivery end-to-end latencies
//!   into a log₂-bucketed histogram with exact p50/p95/p99 (percentiles are
//!   computed from the stored values, the buckets are the compact view).
//!
//! ```
//! use dtn_sim::observe::{TimeSeriesProbe, TimeSeries};
//! use dtn_sim::prelude::*;
//!
//! struct Direct;
//! impl Router for Direct {
//!     fn label(&self) -> &'static str { "direct" }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//!     fn pick_transfer(&mut self, ctx: &mut ContactCtx) -> Option<TransferPlan> {
//!         ctx.buf.iter()
//!             .find(|e| e.msg.dst == ctx.peer && !ctx.sent.contains(&e.msg.id))
//!             .map(|e| TransferPlan::forward(e.msg.id))
//!     }
//! }
//!
//! let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
//! let workload = vec![MessageSpec {
//!     create_at: SimTime::secs(1.0), src: NodeId(0), dst: NodeId(1),
//!     size: 1000, ttl: 50.0,
//! }];
//! let mut sim = Simulation::new(&trace, workload, SimConfig::paper(0), |_, _| Box::new(Direct));
//! sim.add_observer(Box::new(TimeSeriesProbe::new(20.0)));
//! let (stats, observers) = sim.run_observed();
//! assert_eq!(stats.delivered, 1);
//! let ts: &TimeSeries = observers[0]
//!     .as_any()
//!     .downcast_ref::<TimeSeriesProbe>()
//!     .unwrap()
//!     .series();
//! // The curve ends at the horizon with the full delivery count.
//! assert_eq!(ts.samples.last().unwrap().delivered, 1);
//! ```

use crate::buffer::DropReason;
use crate::ids::{MessageId, NodeId, NodePair};
use crate::time::SimTime;
use std::any::Any;

/// One observable simulation occurrence, stamped with its time.
///
/// The event stream is *complete* with respect to [`SimStats`]: folding every
/// event through [`SimStats::apply`] reproduces the run's statistics exactly
/// (only router-side control-byte accounting bypasses the stream, because it
/// is the routers', not the engine's, bookkeeping).
///
/// [`SimStats`]: crate::SimStats
/// [`SimStats::apply`]: crate::SimStats::apply
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimEvent {
    /// The workload generated `msg` at `src`. Emitted before the source
    /// buffers it, so a full source buffer follows up with a
    /// [`SimEvent::Dropped`] for the newborn message.
    Generated {
        /// When the message was created.
        at: SimTime,
        /// The generated message.
        msg: MessageId,
        /// The originating node.
        src: NodeId,
    },
    /// A transfer of `msg` to a non-destination node completed (a relay).
    /// `duplicate` marks a wasted relay: the receiver obtained the message
    /// from a third party while this transfer was in flight and discards it.
    Forwarded {
        /// Completion time of the transfer.
        at: SimTime,
        /// The relayed message.
        msg: MessageId,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Whether the receiver already held the message (wasted relay).
        duplicate: bool,
    },
    /// A completed transfer was refused: the receiver could not make room.
    /// Counts as a relay (the bytes crossed the link) *and* a refusal.
    Refused {
        /// Completion time of the transfer.
        at: SimTime,
        /// The refused message.
        msg: MessageId,
        /// Sending node.
        from: NodeId,
        /// Receiving (refusing) node.
        to: NodeId,
    },
    /// A replica of `msg` arrived at its destination. `first` is true for
    /// the arrival that counts as *the* delivery; later replicas are
    /// duplicates. Counts as a relay.
    Delivered {
        /// Arrival time.
        at: SimTime,
        /// The delivered message.
        msg: MessageId,
        /// The last-hop sender.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// When the message was created (so observers can derive latency).
        created: SimTime,
        /// Hop count of the delivering replica.
        hops: u32,
        /// Whether this is the first arrival (the delivery).
        first: bool,
    },
    /// A message left a buffer (or, for a newborn at a full source, never
    /// entered it) for `reason`.
    Dropped {
        /// Drop time.
        at: SimTime,
        /// The dropped message.
        msg: MessageId,
        /// The node dropping it.
        node: NodeId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// An in-flight transfer was wasted: the carrying contact ended
    /// mid-flight, or the sender lost (or let expire) the message while it
    /// was on the air.
    Aborted {
        /// Abort time.
        at: SimTime,
        /// The message that was in flight.
        msg: MessageId,
        /// Sending node of the aborted transfer.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// A contact between `pair` came up.
    ContactStart {
        /// Contact start time.
        at: SimTime,
        /// The node pair in contact.
        pair: NodePair,
    },
    /// The contact between `pair` went down.
    ContactEnd {
        /// Contact end time.
        at: SimTime,
        /// The node pair losing contact.
        pair: NodePair,
    },
    /// A periodic probe sample carrying global buffer occupancy, scheduled
    /// by the engine at the cadence observers request via
    /// [`SimObserver::sample_interval`] (plus one final tick at the
    /// horizon). Pure observation: ticks never mutate simulation state, so
    /// attaching probes cannot change a run's [`SimStats`].
    ///
    /// [`SimStats`]: crate::SimStats
    Tick {
        /// Sample time.
        at: SimTime,
        /// Total bytes buffered across all nodes.
        buffered_bytes: u64,
        /// Total messages buffered across all nodes.
        buffered_msgs: u64,
    },
}

impl SimEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            SimEvent::Generated { at, .. }
            | SimEvent::Forwarded { at, .. }
            | SimEvent::Refused { at, .. }
            | SimEvent::Delivered { at, .. }
            | SimEvent::Dropped { at, .. }
            | SimEvent::Aborted { at, .. }
            | SimEvent::ContactStart { at, .. }
            | SimEvent::ContactEnd { at, .. }
            | SimEvent::Tick { at, .. } => at,
        }
    }
}

/// A consumer of the simulation event stream.
///
/// Observers are attached before the run starts
/// ([`Simulation::add_observer`](crate::Simulation::add_observer)) and
/// receive the full event stream in order, delivered as batches from a
/// reused scratch buffer. Because every event is timestamped, batch
/// boundaries carry no information: an observer's output must be (and, for
/// the in-tree probes, is) a pure function of the stream.
pub trait SimObserver: Any {
    /// Receives the next slice of the event stream, in occurrence order.
    fn on_events(&mut self, batch: &[SimEvent]);

    /// Called exactly once when the run ends, after the final batch (and a
    /// final [`SimEvent::Tick`]) has been delivered. `final_stats` is the
    /// engine's end-of-run counters; it exists for the one statistic the
    /// event stream cannot carry — router-side control accounting
    /// (`control_bytes`), which routers write straight into
    /// [`SimStats`](crate::stats::SimStats)
    /// via their contexts. Everything else in it is derivable from the
    /// stream.
    fn on_end(&mut self, _now: SimTime, _final_stats: &crate::stats::StatsSnapshot) {}

    /// If `Some(dt)`, the engine schedules [`SimEvent::Tick`] samples every
    /// `dt` seconds for this observer (ticks are broadcast, so observers
    /// must filter by their own cadence — see [`TimeSeriesProbe`]).
    fn sample_interval(&self) -> Option<f64> {
        None
    }

    /// Upcast for post-run result extraction by downcasting.
    fn as_any(&self) -> &dyn Any;
}

/// One sample of a [`TimeSeries`]: the cumulative counters at time `t` plus
/// the instantaneous global buffer occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TsSample {
    /// Sample time in seconds.
    pub t: f64,
    /// Messages generated by time `t`.
    pub created: u64,
    /// Messages delivered (first arrivals) by time `t`.
    pub delivered: u64,
    /// Completed transfers (relays, including delivery hops) by time `t`.
    pub relayed: u64,
    /// Messages dropped (buffer, TTL or protocol) by time `t`.
    pub dropped: u64,
    /// Total bytes buffered across all nodes at time `t`.
    pub buffered_bytes: u64,
    /// Total messages buffered across all nodes at time `t`.
    pub buffered_msgs: u64,
}

impl TsSample {
    /// Delivery ratio at this sample; `0` when nothing was created yet.
    pub fn delivery_ratio(&self) -> f64 {
        if self.created == 0 {
            0.0
        } else {
            self.delivered as f64 / self.created as f64
        }
    }

    /// ONE-style overhead ratio at this sample; `0` before any delivery.
    pub fn overhead_ratio(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            (self.relayed.saturating_sub(self.delivered)) as f64 / self.delivered as f64
        }
    }
}

/// The output of a [`TimeSeriesProbe`]: delivery / overhead / occupancy
/// curves sampled at cadence `dt` (plus a final sample at the horizon).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    /// Requested sampling cadence in seconds.
    pub dt: f64,
    /// Samples in time order, starting at `t = 0`.
    pub samples: Vec<TsSample>,
}

impl TimeSeries {
    /// Largest global buffer occupancy seen at any sample, in bytes.
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.buffered_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Comparison tolerance for sample-boundary crossing, absorbing float noise
/// in repeated `now + dt` event scheduling.
const SAMPLE_EPS: f64 = 1e-9;

/// Samples delivery-ratio / overhead / buffer-occupancy curves at a fixed
/// cadence from the event stream — the probe behind every
/// delivery-over-time figure, replacing N re-runs with one.
///
/// The probe folds cumulative counters from the stream and snapshots them at
/// every [`SimEvent::Tick`] that crosses its own `dt` boundary (ticks are
/// broadcast to all observers, so cadences of different probes coexist), plus
/// one final sample at the horizon. Output is a pure function of the event
/// stream: bitwise deterministic whatever the thread count or batch size.
#[derive(Debug)]
pub struct TimeSeriesProbe {
    next: f64,
    acc: TsSample,
    series: TimeSeries,
}

impl TimeSeriesProbe {
    /// A probe sampling every `dt` seconds.
    ///
    /// # Panics
    /// Panics unless `dt` is finite and positive.
    pub fn new(dt: f64) -> Self {
        assert!(
            dt.is_finite() && dt > 0.0,
            "time-series cadence must be a positive number of seconds, got {dt}"
        );
        TimeSeriesProbe {
            next: dt,
            acc: TsSample::default(),
            series: TimeSeries {
                dt,
                // The curve starts at the origin: nothing has happened at t=0.
                samples: vec![TsSample::default()],
            },
        }
    }

    /// The samples collected so far.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

impl SimObserver for TimeSeriesProbe {
    fn on_events(&mut self, batch: &[SimEvent]) {
        for ev in batch {
            match *ev {
                SimEvent::Generated { .. } => self.acc.created += 1,
                SimEvent::Forwarded { .. } | SimEvent::Refused { .. } => self.acc.relayed += 1,
                SimEvent::Delivered { first, .. } => {
                    self.acc.relayed += 1;
                    if first {
                        self.acc.delivered += 1;
                    }
                }
                SimEvent::Dropped { .. } => self.acc.dropped += 1,
                SimEvent::Tick {
                    at,
                    buffered_bytes,
                    buffered_msgs,
                } => {
                    self.acc.buffered_bytes = buffered_bytes;
                    self.acc.buffered_msgs = buffered_msgs;
                    let t = at.as_secs();
                    if t + SAMPLE_EPS >= self.next {
                        self.series.samples.push(TsSample { t, ..self.acc });
                        // The next boundary is one cadence past the sample
                        // just taken. On this probe's own engine tick chain
                        // (which accumulates `+ dt` identically) this equals
                        // stepping the grid; when ticks arrive late or
                        // sparsely (another probe's cadence, the end-of-run
                        // tick) it jumps past the skipped boundaries in
                        // O(1) instead of looping over them.
                        self.next = t + self.series.dt;
                    }
                }
                SimEvent::Aborted { .. }
                | SimEvent::ContactStart { .. }
                | SimEvent::ContactEnd { .. } => {}
            }
        }
    }

    fn on_end(&mut self, now: SimTime, _final_stats: &crate::stats::StatsSnapshot) {
        // Close the curve at the horizon if the last cadence boundary fell
        // short of it (the engine emits a final Tick before calling this, so
        // occupancy in `acc` is current).
        let t = now.as_secs();
        if self
            .series
            .samples
            .last()
            .is_none_or(|s| s.t + SAMPLE_EPS < t)
        {
            self.series.samples.push(TsSample { t, ..self.acc });
        }
    }

    fn sample_interval(&self) -> Option<f64> {
        Some(self.series.dt)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The output of a [`LatencyHistogramProbe`]: a log₂-bucketed latency
/// histogram with exact percentiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Number of deliveries observed (duplicates excluded).
    pub count: u64,
    /// Exact median latency in seconds (`0` when nothing was delivered).
    pub p50: f64,
    /// Exact 95th-percentile latency in seconds.
    pub p95: f64,
    /// Exact 99th-percentile latency in seconds.
    pub p99: f64,
    /// Largest observed latency in seconds.
    pub max: f64,
    /// Log₂ buckets: `buckets[i]` counts deliveries with latency in
    /// `[2^i − 1, 2^{i+1} − 1)` seconds (bucket 0 is `[0, 1)`). The vector
    /// ends at the last non-empty bucket; counts sum to `count`.
    pub buckets: Vec<u64>,
}

impl LatencyHistogram {
    /// The exact nearest-rank percentile `p` (in `[0, 100]`) of `sorted`
    /// ascending latencies — delegates to the crate's single rank rule,
    /// [`report::percentile_sorted`](crate::report::percentile_sorted), so
    /// the probe and the post-run helpers can never disagree.
    fn rank(sorted: &[f64], p: f64) -> f64 {
        crate::report::percentile_sorted(sorted, p).unwrap_or(0.0)
    }
}

/// Collects end-to-end latencies of first deliveries into a
/// [`LatencyHistogram`].
///
/// Latencies are stored exactly (the delivered count is bounded by the
/// workload size), so the percentiles are *exact*, not bucket
/// interpolations; the log₂ buckets are the compact distribution view the
/// report layer serializes.
#[derive(Debug, Default)]
pub struct LatencyHistogramProbe {
    latencies: Vec<f64>,
    summary: LatencyHistogram,
}

impl LatencyHistogramProbe {
    /// An empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The summary; complete once the run has ended.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.summary
    }

    /// The log₂ bucket index of a latency in seconds.
    fn bucket(latency: f64) -> usize {
        // +1 keeps sub-second latencies in bucket 0 without a log of zero.
        (latency.max(0.0) + 1.0).log2().floor() as usize
    }
}

impl SimObserver for LatencyHistogramProbe {
    fn on_events(&mut self, batch: &[SimEvent]) {
        for ev in batch {
            if let SimEvent::Delivered {
                at,
                created,
                first: true,
                ..
            } = *ev
            {
                self.latencies.push(at - created);
            }
        }
    }

    fn on_end(&mut self, _now: SimTime, _final_stats: &crate::stats::StatsSnapshot) {
        self.latencies.sort_by(f64::total_cmp);
        let lats = &self.latencies;
        let mut buckets = Vec::new();
        for &l in lats {
            let idx = Self::bucket(l);
            if idx >= buckets.len() {
                buckets.resize(idx + 1, 0u64);
            }
            buckets[idx] += 1;
        }
        self.summary = LatencyHistogram {
            count: lats.len() as u64,
            p50: LatencyHistogram::rank(lats, 50.0),
            p95: LatencyHistogram::rank(lats, 95.0),
            p99: LatencyHistogram::rank(lats, 99.0),
            max: lats.last().copied().unwrap_or(0.0),
            buckets,
        };
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An observer retaining the raw event stream — test and debugging aid.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Every event received, in order.
    pub events: Vec<SimEvent>,
}

impl SimObserver for EventLog {
    fn on_events(&mut self, batch: &[SimEvent]) {
        self.events.extend_from_slice(batch);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t: f64, bytes: u64, msgs: u64) -> SimEvent {
        SimEvent::Tick {
            at: SimTime::secs(t),
            buffered_bytes: bytes,
            buffered_msgs: msgs,
        }
    }

    fn delivered(t: f64, created: f64, first: bool) -> SimEvent {
        SimEvent::Delivered {
            at: SimTime::secs(t),
            msg: MessageId(0),
            from: NodeId(0),
            to: NodeId(1),
            created: SimTime::secs(created),
            hops: 1,
            first,
        }
    }

    #[test]
    fn timeseries_samples_at_cadence_and_closes_at_end() {
        let mut p = TimeSeriesProbe::new(10.0);
        p.on_events(&[
            SimEvent::Generated {
                at: SimTime::secs(1.0),
                msg: MessageId(0),
                src: NodeId(0),
            },
            tick(10.0, 500, 1),
            delivered(12.0, 1.0, true),
            tick(20.0, 0, 0),
        ]);
        p.on_end(SimTime::secs(25.0), &crate::stats::StatsSnapshot::default());
        let s = p.series();
        assert_eq!(s.samples.len(), 4, "origin, 10, 20, final 25");
        assert_eq!(s.samples[0].t, 0.0);
        assert_eq!(s.samples[1].t, 10.0);
        assert_eq!(s.samples[1].created, 1);
        assert_eq!(s.samples[1].delivered, 0);
        assert_eq!(s.samples[1].buffered_bytes, 500);
        assert_eq!(s.samples[2].delivered, 1);
        assert_eq!(s.samples[2].delivery_ratio(), 1.0);
        assert_eq!(s.samples[3].t, 25.0, "forced final sample at the horizon");
        assert_eq!(s.peak_buffered_bytes(), 500);
    }

    #[test]
    fn timeseries_ignores_offcadence_ticks_and_batch_boundaries() {
        // Feeding the same events in one batch or many must not change the
        // output, and ticks between boundaries only refresh occupancy.
        let events = [
            tick(4.0, 100, 1),
            tick(10.0, 200, 2),
            tick(14.0, 300, 3),
            tick(20.0, 400, 4),
        ];
        let mut one = TimeSeriesProbe::new(10.0);
        one.on_events(&events);
        one.on_end(SimTime::secs(20.0), &crate::stats::StatsSnapshot::default());
        let mut many = TimeSeriesProbe::new(10.0);
        for ev in events {
            many.on_events(&[ev]);
        }
        many.on_end(SimTime::secs(20.0), &crate::stats::StatsSnapshot::default());
        assert_eq!(one.series(), many.series());
        let ts: Vec<f64> = one.series().samples.iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![0.0, 10.0, 20.0]);
        assert_eq!(one.series().samples[2].buffered_bytes, 400);
    }

    #[test]
    fn timeseries_catches_up_after_sparse_ticks() {
        let mut p = TimeSeriesProbe::new(10.0);
        // A single late tick crosses several boundaries: one sample, and the
        // boundary cursor jumps one cadence past it (to 45), so the tick at
        // 40 only refreshes occupancy.
        p.on_events(&[tick(35.0, 7, 1), tick(40.0, 8, 2), tick(45.0, 9, 3)]);
        let ts: Vec<f64> = p.series().samples.iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![0.0, 35.0, 45.0]);
    }

    #[test]
    #[should_panic]
    fn timeseries_rejects_zero_cadence() {
        let _ = TimeSeriesProbe::new(0.0);
    }

    /// A cadence far below the tick spacing degrades to sampling every tick
    /// in O(1) per tick — the boundary cursor jumps, it never loops over
    /// skipped boundaries (the engine additionally refuses to schedule
    /// sub-millisecond tick chains).
    #[test]
    fn timeseries_survives_subresolution_cadence() {
        let mut p = TimeSeriesProbe::new(1e-300);
        p.on_events(&[tick(1.0, 10, 1), tick(2.0, 20, 2)]);
        p.on_end(SimTime::secs(3.0), &crate::stats::StatsSnapshot::default());
        let s = p.series();
        // Origin, both ticks, and the forced final sample.
        let ts: Vec<f64> = s.samples.iter().map(|x| x.t).collect();
        assert_eq!(ts, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut p = LatencyHistogramProbe::new();
        // Latencies 1..=100 s via create_at = 0.
        for i in 1..=100 {
            p.on_events(&[delivered(f64::from(i), 0.0, true)]);
        }
        // Duplicates are excluded.
        p.on_events(&[delivered(1000.0, 0.0, false)]);
        p.on_end(
            SimTime::secs(1000.0),
            &crate::stats::StatsSnapshot::default(),
        );
        let h = p.histogram();
        assert_eq!(h.count, 100);
        // Nearest-rank on 1..=100: rank(50) = round(0.5 · 99) = 50 → 51.
        assert_eq!(h.p50, 51.0);
        assert_eq!(h.p95, 95.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogramProbe::bucket(0.0), 0);
        assert_eq!(LatencyHistogramProbe::bucket(0.99), 0);
        assert_eq!(LatencyHistogramProbe::bucket(1.0), 1);
        assert_eq!(LatencyHistogramProbe::bucket(2.9), 1);
        assert_eq!(LatencyHistogramProbe::bucket(3.0), 2);
        assert_eq!(LatencyHistogramProbe::bucket(7.0), 3);
        assert_eq!(LatencyHistogramProbe::bucket(-1.0), 0, "clamped at zero");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let mut p = LatencyHistogramProbe::new();
        p.on_end(SimTime::secs(10.0), &crate::stats::StatsSnapshot::default());
        let h = p.histogram();
        assert_eq!(h.count, 0);
        assert_eq!(h.p50, 0.0);
        assert!(h.buckets.is_empty());
    }
}
