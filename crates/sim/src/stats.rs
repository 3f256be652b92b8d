//! Simulation metrics.
//!
//! The three headline metrics follow the paper's §V-A definitions:
//!
//! * **delivery ratio** — delivered messages / generated messages;
//! * **latency** — mean end-to-end delay of *delivered* messages;
//! * **goodput** — delivered messages / total relayed messages (every
//!   completed message transfer counts as a relay, including the final
//!   delivery hop).

use crate::buffer::DropReason;
use crate::ids::MessageId;
use crate::observe::{SimEvent, SimObserver};
use crate::time::SimTime;

/// Counters and accumulators collected during one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Messages generated by the workload.
    pub created: u64,
    /// Messages whose first replica reached the destination in time.
    pub delivered: u64,
    /// Replica arrivals at a destination after the first (not counted as
    /// deliveries).
    pub duplicate_deliveries: u64,
    /// Completed message transfers (relays), including delivery hops.
    pub relayed: u64,
    /// Transfers aborted by the contact ending mid-flight.
    pub aborted: u64,
    /// Messages dropped because a buffer had to make room.
    pub drops_buffer: u64,
    /// Messages dropped on TTL expiry.
    pub drops_ttl: u64,
    /// Messages removed by protocol decisions (e.g. ack purges).
    pub drops_protocol: u64,
    /// Incoming messages refused because room could not be made.
    pub refused: u64,
    /// Control-plane bytes exchanged by routers (metadata, matrices, ...).
    pub control_bytes: u64,
    /// Sum of end-to-end delays of delivered messages, in seconds.
    pub latency_sum: f64,
    /// Sum of hop counts of delivered messages.
    pub hops_sum: u64,
    /// Delivery time of each message by id index (`None` = not delivered).
    pub delivered_at: Vec<Option<SimTime>>,
}

impl SimStats {
    /// Creates a stats collector sized for `n_messages` workload messages.
    pub fn new(n_messages: usize) -> Self {
        SimStats {
            delivered_at: vec![None; n_messages],
            ..Default::default()
        }
    }

    /// The plain-scalar view of this run: every counter and accumulator,
    /// without the per-message delivery times. This is the serializable
    /// face of the stats — two runs with equal snapshots have identical
    /// aggregate metrics.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            created: self.created,
            delivered: self.delivered,
            duplicate_deliveries: self.duplicate_deliveries,
            relayed: self.relayed,
            aborted: self.aborted,
            drops_buffer: self.drops_buffer,
            drops_ttl: self.drops_ttl,
            drops_protocol: self.drops_protocol,
            refused: self.refused,
            control_bytes: self.control_bytes,
            latency_sum: self.latency_sum,
            hops_sum: self.hops_sum,
        }
    }

    /// Folds one simulation event into the counters. This is the *only*
    /// write path the engine uses — [`SimStats`] is the default
    /// [`SimObserver`], and the engine applies the identical function
    /// inline, so an external replica fed from the event stream is bitwise
    /// identical to the engine's own stats (property-tested).
    ///
    /// Control-plane bytes are the routers' own accounting
    /// ([`ContactCtx::control_bytes`](crate::ContactCtx::control_bytes))
    /// and do not travel the event stream.
    pub fn apply(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::Generated { .. } => self.created += 1,
            SimEvent::Delivered {
                at,
                msg,
                created,
                hops,
                first,
                ..
            } => {
                self.relayed += 1;
                let was_first = self.record_arrival(msg, created, at, hops);
                debug_assert_eq!(
                    was_first, first,
                    "Delivered.first disagrees with delivery log"
                );
            }
            SimEvent::Forwarded { .. } => self.relayed += 1,
            SimEvent::Refused { .. } => {
                self.relayed += 1;
                self.refused += 1;
            }
            SimEvent::Aborted { .. } => self.aborted += 1,
            SimEvent::Dropped { reason, .. } => match reason {
                DropReason::Expired => self.drops_ttl += 1,
                DropReason::BufferFull => self.drops_buffer += 1,
                DropReason::Protocol => self.drops_protocol += 1,
                // Forwarding away is custody transfer, not loss.
                DropReason::ForwardedAway => {}
            },
            SimEvent::ContactStart { .. } | SimEvent::ContactEnd { .. } | SimEvent::Tick { .. } => {
            }
        }
    }

    /// Records the arrival of a replica of `msg` (created at `created`) at
    /// its destination at time `now`. Returns `true` if this was the first
    /// arrival (a delivery).
    pub fn record_arrival(
        &mut self,
        msg: MessageId,
        created: SimTime,
        now: SimTime,
        hops: u32,
    ) -> bool {
        let slot = &mut self.delivered_at[msg.idx()];
        if slot.is_some() {
            self.duplicate_deliveries += 1;
            return false;
        }
        *slot = Some(now);
        self.delivered += 1;
        self.latency_sum += now - created;
        self.hops_sum += u64::from(hops);
        true
    }

    /// Whether `msg` has already been delivered.
    #[inline]
    pub fn is_delivered(&self, msg: MessageId) -> bool {
        self.delivered_at
            .get(msg.idx())
            .is_some_and(|s| s.is_some())
    }

    /// Delivery ratio in `[0, 1]`; `0` when nothing was created.
    pub fn delivery_ratio(&self) -> f64 {
        self.snapshot().delivery_ratio()
    }

    /// Mean latency of delivered messages in seconds; `0` when none.
    pub fn avg_latency(&self) -> f64 {
        self.snapshot().avg_latency()
    }

    /// Goodput: delivered / relayed, in `[0, 1]`; `0` when nothing relayed.
    pub fn goodput(&self) -> f64 {
        self.snapshot().goodput()
    }

    /// Mean hop count of delivered messages.
    pub fn avg_hops(&self) -> f64 {
        self.snapshot().avg_hops()
    }

    /// ONE-style overhead ratio: `(relayed - delivered) / delivered`.
    pub fn overhead_ratio(&self) -> f64 {
        self.snapshot().overhead_ratio()
    }
}

/// [`SimStats`] is the default observer: fed the event stream, it
/// reproduces the engine's own statistics exactly (the engine applies the
/// same [`SimStats::apply`] inline; `control_bytes` — the one counter that
/// never travels the stream — is adopted from the engine's final snapshot
/// at `on_end`). Create the replica with [`SimStats::new`] sized for the
/// workload so delivery times can be recorded.
impl SimObserver for SimStats {
    fn on_events(&mut self, batch: &[SimEvent]) {
        for ev in batch {
            self.apply(ev);
        }
    }

    fn on_end(&mut self, _now: crate::time::SimTime, final_stats: &StatsSnapshot) {
        // Control accounting is the one counter routers write straight into
        // the engine's stats, bypassing the event stream; adopt the final
        // total so a stream-fed replica reproduces the run bitwise.
        self.control_bytes = final_stats.control_bytes;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The scalar counters of one run — [`SimStats`] minus the per-message
/// delivery times. `Copy`, field-for-field comparable, and the payload the
/// experiment-report layer serializes (a round-trip through an emitter can
/// reproduce a snapshot exactly; it cannot reproduce `delivered_at`).
///
/// The derived metrics (ratios, means) live here; [`SimStats`] delegates to
/// its [`snapshot`](SimStats::snapshot) so the two views can never diverge.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Messages generated by the workload.
    pub created: u64,
    /// Messages whose first replica reached the destination in time.
    pub delivered: u64,
    /// Replica arrivals at a destination after the first.
    pub duplicate_deliveries: u64,
    /// Completed message transfers (relays), including delivery hops.
    pub relayed: u64,
    /// Transfers aborted by the contact ending mid-flight.
    pub aborted: u64,
    /// Messages dropped because a buffer had to make room.
    pub drops_buffer: u64,
    /// Messages dropped on TTL expiry.
    pub drops_ttl: u64,
    /// Messages removed by protocol decisions (e.g. ack purges).
    pub drops_protocol: u64,
    /// Incoming messages refused because room could not be made.
    pub refused: u64,
    /// Control-plane bytes exchanged by routers.
    pub control_bytes: u64,
    /// Sum of end-to-end delays of delivered messages, in seconds.
    pub latency_sum: f64,
    /// Sum of hop counts of delivered messages.
    pub hops_sum: u64,
}

impl StatsSnapshot {
    /// Delivery ratio in `[0, 1]`; `0` when nothing was created.
    pub fn delivery_ratio(&self) -> f64 {
        if self.created == 0 {
            0.0
        } else {
            self.delivered as f64 / self.created as f64
        }
    }

    /// Mean latency of delivered messages in seconds; `0` when none.
    pub fn avg_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum / self.delivered as f64
        }
    }

    /// Goodput: delivered / relayed, in `[0, 1]`; `0` when nothing relayed.
    pub fn goodput(&self) -> f64 {
        if self.relayed == 0 {
            0.0
        } else {
            self.delivered as f64 / self.relayed as f64
        }
    }

    /// Mean hop count of delivered messages.
    pub fn avg_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered as f64
        }
    }

    /// ONE-style overhead ratio: `(relayed - delivered) / delivered`.
    pub fn overhead_ratio(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            (self.relayed.saturating_sub(self.delivered)) as f64 / self.delivered as f64
        }
    }

    /// Total messages dropped for any reason (buffer, TTL, protocol).
    pub fn drops_total(&self) -> u64 {
        self.drops_buffer + self.drops_ttl + self.drops_protocol
    }

    /// Control-plane traffic in megabytes.
    pub fn control_mb(&self) -> f64 {
        self.control_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_counts_once() {
        let mut s = SimStats::new(2);
        s.created = 2;
        assert!(s.record_arrival(MessageId(0), SimTime::ZERO, SimTime::secs(10.0), 3));
        assert!(!s.record_arrival(MessageId(0), SimTime::ZERO, SimTime::secs(20.0), 1));
        assert_eq!(s.delivered, 1);
        assert_eq!(s.duplicate_deliveries, 1);
        assert!(s.is_delivered(MessageId(0)));
        assert!(!s.is_delivered(MessageId(1)));
        assert_eq!(s.delivery_ratio(), 0.5);
        assert_eq!(s.avg_latency(), 10.0);
        assert_eq!(s.avg_hops(), 3.0);
    }

    #[test]
    fn ratios_guard_division_by_zero() {
        let s = SimStats::new(0);
        assert_eq!(s.delivery_ratio(), 0.0);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.goodput(), 0.0);
        assert_eq!(s.overhead_ratio(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
    }

    #[test]
    fn goodput_and_overhead() {
        let mut s = SimStats::new(4);
        s.created = 4;
        s.relayed = 10;
        s.record_arrival(MessageId(0), SimTime::ZERO, SimTime::secs(1.0), 1);
        s.record_arrival(MessageId(1), SimTime::ZERO, SimTime::secs(2.0), 1);
        assert_eq!(s.goodput(), 0.2);
        assert_eq!(s.overhead_ratio(), 4.0);
    }
}
