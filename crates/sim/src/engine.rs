//! The discrete-event protocol engine.
//!
//! A [`Simulation`] replays a contact process against a routing protocol:
//! contacts come up and down, routers exchange control state and propose
//! transfers, the engine models link bandwidth, buffer occupancy, TTL expiry
//! and transfer aborts, and a [`SimStats`] is produced at the end.
//!
//! Contacts are *pulled*, not preloaded: the engine draws windows of
//! up/down events from a [`ContactSource`] as simulated time advances
//! ([`Simulation::from_source`]), so the event queue holds only the near
//! future regardless of horizon or node count. [`Simulation::new`] wraps a
//! materialized [`ContactTrace`] in a [`TraceReplaySource`] — byte-for-byte
//! the same runs as the historic bulk loader, with a bounded queue.
//!
//! The engine is deterministic: all randomness lives in the trace/workload
//! generators and in router-private RNGs seeded from [`SimConfig::seed`].
//!
//! ## Observation
//!
//! The loop never mutates [`SimStats`] field-by-field: every observable
//! occurrence is emitted as a [`SimEvent`] and folded into the stats through
//! [`SimStats::apply`] — the same function any attached [`SimObserver`]
//! (time-series probes, latency histograms, event logs; see
//! [`crate::observe`]) sees the stream through. Observers receive events in
//! batches from one reused scratch buffer ([`Simulation::add_observer`]); with no
//! observers attached the stream costs nothing beyond the inline fold, and
//! because probe sampling is read-only, attaching observers can never change
//! a run's statistics.
//!
//! ## Hot-path layout
//!
//! Link state lives in a slab of `LinkSlot`s recycled across contacts, not
//! in a hash map: a contact gets a slot plus a globally unique *epoch*, and
//! events carry the slot index, so the per-transfer path never hashes. The
//! per-direction "already sent during this contact" set is an epoch-stamped
//! array indexed by the dense [`MessageId`] space (`stamps[m] == epoch` means
//! sent), so membership tests are O(1) and recycling a slot needs no clearing
//! — bumping the epoch invalidates every old stamp at once. Scratch buffers
//! (purge lists, TTL sweeps, per-node link snapshots) are reused across
//! callbacks, keeping the steady-state event loop allocation-free.

use crate::buffer::{Buffer, BufferEntry, DropReason};
use crate::event::{EventKind, EventQueue};
use crate::ids::{MessageId, NodeId, NodePair};
use crate::message::{Message, MessageArena, MessageSpec};
use crate::observe::{SimEvent, SimObserver};
use crate::router::{pair_mut, ContactCtx, NodeCtx, Router, SentSet, TransferAction, TransferPlan};
use crate::source::{ContactEvent, ContactSource, TraceReplaySource};
use crate::stats::SimStats;
use crate::time::SimTime;
use crate::trace::ContactTrace;

/// Static configuration of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Link bandwidth in bytes per second (paper: 2 Mbit/s = 250 000 B/s).
    pub bandwidth_bps: f64,
    /// Fixed per-transfer setup latency in seconds (0 in the paper's model).
    pub link_setup: f64,
    /// Buffer capacity per node in bytes (paper: 1 MB).
    pub buffer_capacity: u64,
    /// Interval between TTL sweeps in seconds.
    pub ttl_sweep: f64,
    /// Seed available to routers needing private randomness.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper(0)
    }
}

impl SimConfig {
    /// The ICPP'11 settings: 2 Mbit/s links, 1 MB buffers.
    pub fn paper(seed: u64) -> Self {
        SimConfig {
            bandwidth_bps: 2_000_000.0 / 8.0,
            link_setup: 0.0,
            buffer_capacity: 1024 * 1024,
            ttl_sweep: 5.0,
            seed,
        }
    }
}

/// Direction index within a link: 0 = `pair.a → pair.b`, 1 = `pair.b → pair.a`.
#[inline]
fn dir_index(pair: NodePair, from: NodeId) -> usize {
    usize::from(from != pair.a)
}

/// Slab slot holding the state of one active contact. Slots are recycled;
/// the `epoch` distinguishes occupancies (see module docs).
struct LinkSlot {
    pair: NodePair,
    /// Epoch of the contact currently (or, when inactive, last) using this
    /// slot. Epochs are globally unique across the run.
    epoch: u32,
    active: bool,
    /// Message and action in flight per direction, if any.
    in_flight: [Option<(MessageId, TransferAction)>; 2],
    /// Epoch-stamped per-direction transfer log over the dense message-id
    /// space: `sent[d][m] == epoch` iff `m` was sent in direction `d` during
    /// the current contact. Never cleared — recycling bumps the epoch.
    sent: [Vec<u32>; 2],
}

/// Stamp value no real epoch ever takes: allocating the 2^32-th contact
/// epoch panics first (`checked_add` + `expect`, in every build profile).
const NO_EPOCH: u32 = u32::MAX;

/// Events accumulated before a batch is dispatched to observers. The batch
/// buffer is allocated once and reused (`clear`, never shrink), so observer
/// delivery performs no per-event allocation.
const OBSERVER_BATCH: usize = 256;

/// Smallest accepted observer sampling cadence, in simulated seconds. A
/// cadence below this floods the event queue (and, below the float
/// resolution of the clock, could not even advance it); sampling finer than
/// a millisecond of simulated time is a configuration error.
pub const MIN_SAMPLE_INTERVAL: f64 = 1e-3;

/// A full simulation run over one trace, workload and protocol.
pub struct Simulation {
    cfg: SimConfig,
    n_nodes: u32,
    duration: f64,
    /// The immutable workload in structure-of-arrays form (id = spec index).
    arena: MessageArena,
    buffers: Vec<Buffer>,
    routers: Vec<Box<dyn Router>>,
    /// Slab of link slots; indices are stable while a contact is active.
    links: Vec<LinkSlot>,
    /// Indices of inactive slots available for reuse.
    free_links: Vec<u32>,
    /// Active links per node as `(pair, slot)` (small vectors; membership
    /// scanned linearly — node degree is tiny in DTN contact processes).
    active: Vec<Vec<(NodePair, u32)>>,
    /// The demand-driven contact supply.
    source: Box<dyn ContactSource>,
    /// Contacts starting before this time have been drawn from the source.
    loaded_until: f64,
    /// Reused scratch buffer for source windows.
    source_scratch: Vec<ContactEvent>,
    events: EventQueue,
    stats: SimStats,
    now: SimTime,
    next_epoch: u32,
    /// Scratch for purge requests, reused across callbacks.
    purge_scratch: Vec<MessageId>,
    /// Scratch snapshot of a node's active links, reused by [`Self::kick_node`].
    kick_scratch: Vec<(NodePair, u32)>,
    /// Scratch for expired message ids, reused by TTL sweeps.
    expired_scratch: Vec<MessageId>,
    /// Attached observers; the engine's own `stats` is always folded inline
    /// and is not in this list.
    observers: Vec<Box<dyn SimObserver>>,
    /// Reused scratch batch of pending events for observer dispatch (empty
    /// while no observers are attached).
    batch: Vec<SimEvent>,
    /// Distinct sampling cadences requested by observers; each entry owns a
    /// [`EventKind::ProbeSample`] chain.
    probe_intervals: Vec<f64>,
    finished: bool,
    started: bool,
}

impl Simulation {
    /// Builds a simulation. `factory` creates the router for each node and
    /// receives `(node, n_nodes)`.
    ///
    /// # Panics
    /// Panics if the trace fails validation, naming the offending contact
    /// index and the contact itself.
    pub fn new(
        trace: &ContactTrace,
        workload: Vec<MessageSpec>,
        cfg: SimConfig,
        factory: impl FnMut(NodeId, u32) -> Box<dyn Router>,
    ) -> Self {
        // Validation (and its panic) lives in the replay source.
        Self::from_source(
            Box::new(TraceReplaySource::new(trace)),
            workload,
            cfg,
            factory,
        )
    }

    /// Builds a simulation over a streaming contact supply. Contacts are
    /// drawn from `source` in windows as simulated time advances, so the
    /// event queue never holds more than roughly one window of the contact
    /// process — this is the constructor that scales to city-sized node
    /// counts. Runs are bit-identical to a materialized-trace run of the
    /// same contact process (see [`crate::source`] for the ordering
    /// contract that guarantees it).
    pub fn from_source(
        source: Box<dyn ContactSource>,
        workload: Vec<MessageSpec>,
        cfg: SimConfig,
        mut factory: impl FnMut(NodeId, u32) -> Box<dyn Router>,
    ) -> Self {
        let n = source.n_nodes();
        let duration = source.duration();
        let mut events = EventQueue::new();
        for (i, spec) in workload.iter().enumerate() {
            debug_assert!(spec.src.0 < n && spec.dst.0 < n && spec.src != spec.dst);
            events.push(
                spec.create_at,
                EventKind::MessageCreate { spec_idx: i as u32 },
            );
        }
        if cfg.ttl_sweep > 0.0 {
            events.push(SimTime::secs(cfg.ttl_sweep), EventKind::TtlSweep);
        }
        events.push(SimTime::secs(duration), EventKind::End);

        let buffers = (0..n).map(|_| Buffer::new(cfg.buffer_capacity)).collect();
        let routers: Vec<Box<dyn Router>> = (0..n).map(|i| factory(NodeId(i), n)).collect();
        for (i, r) in routers.iter().enumerate() {
            if let Some(dt) = r.tick_interval() {
                assert!(dt > 0.0, "tick interval must be positive");
                events.push(
                    SimTime::secs(dt),
                    EventKind::RouterTick {
                        node: NodeId(i as u32),
                    },
                );
            }
        }

        let stats = SimStats::new(workload.len());
        Simulation {
            cfg,
            n_nodes: n,
            duration,
            arena: MessageArena::from_specs(&workload),
            buffers,
            routers,
            links: Vec::new(),
            free_links: Vec::new(),
            active: vec![Vec::new(); n as usize],
            source,
            loaded_until: 0.0,
            source_scratch: Vec::new(),
            events,
            stats,
            now: SimTime::ZERO,
            next_epoch: 0,
            purge_scratch: Vec::new(),
            kick_scratch: Vec::new(),
            expired_scratch: Vec::new(),
            observers: Vec::new(),
            batch: Vec::new(),
            probe_intervals: Vec::new(),
            finished: false,
            started: false,
        }
    }

    /// Attaches an observer to the run. If the observer requests a sampling
    /// cadence ([`SimObserver::sample_interval`]), the engine schedules
    /// periodic [`SimEvent::Tick`] samples carrying global buffer occupancy
    /// (one chain per distinct cadence; ticks are broadcast).
    ///
    /// Probe processing is read-only, so attaching observers never changes
    /// the run's [`SimStats`].
    ///
    /// # Panics
    /// Panics if the run has already started, or if the requested sampling
    /// interval is not finite and at least [`MIN_SAMPLE_INTERVAL`].
    pub fn add_observer(&mut self, observer: Box<dyn SimObserver>) {
        assert!(
            !self.started,
            "observers must be attached before the simulation starts"
        );
        if let Some(dt) = observer.sample_interval() {
            assert!(
                dt.is_finite() && dt >= MIN_SAMPLE_INTERVAL,
                "observer sample interval must be at least {MIN_SAMPLE_INTERVAL} s of \
                 simulated time, got {dt}"
            );
            if !self.probe_intervals.contains(&dt) {
                self.probe_intervals.push(dt);
                let interval = (self.probe_intervals.len() - 1) as u32;
                if dt < self.duration {
                    self.events
                        .push(SimTime::secs(dt), EventKind::ProbeSample { interval });
                }
            }
        }
        if self.batch.capacity() == 0 {
            self.batch.reserve(OBSERVER_BATCH);
        }
        self.observers.push(observer);
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Read access to a node's buffer (for tests and inspection).
    pub fn buffer(&self, node: NodeId) -> &Buffer {
        &self.buffers[node.idx()]
    }

    /// Read access to a node's router (for tests and inspection).
    pub fn router(&self, node: NodeId) -> &dyn Router {
        self.routers[node.idx()].as_ref()
    }

    /// Runs to completion and returns the collected statistics.
    pub fn run(mut self) -> SimStats {
        self.run_to_end();
        self.stats
    }

    /// Runs to completion and returns the statistics together with the
    /// attached observers, for post-run result extraction (downcast through
    /// [`SimObserver::as_any`]). Observers come back in attachment order.
    pub fn run_observed(mut self) -> (SimStats, Vec<Box<dyn SimObserver>>) {
        self.run_to_end();
        (self.stats, self.observers)
    }

    /// Read access to the attached observers (for inspection after
    /// [`Self::run_to_end`]).
    pub fn observers(&self) -> &[Box<dyn SimObserver>] {
        &self.observers
    }

    /// Runs to completion in place, so routers and buffers remain
    /// inspectable afterwards (used by tests and examples).
    pub fn run_to_end(&mut self) -> &SimStats {
        if !self.started {
            self.start();
            self.started = true;
        }
        while self.step() {}
        &self.stats
    }

    /// Invokes `on_start` on every router.
    fn start(&mut self) {
        for i in 0..self.n_nodes as usize {
            let mut purge = std::mem::take(&mut self.purge_scratch);
            {
                let mut ctx = NodeCtx {
                    now: self.now,
                    me: NodeId(i as u32),
                    buf: &self.buffers[i],
                    stats: &mut self.stats,
                    purge: &mut purge,
                };
                self.routers[i].on_start(&mut ctx);
            }
            self.apply_purges(NodeId(i as u32), &mut purge);
            self.purge_scratch = purge;
        }
    }

    /// Draws contact windows from the source until the earliest queued
    /// event lies strictly inside loaded territory (or the source is
    /// exhausted). Called before every pop, so an event at time `t` is only
    /// processed once every contact starting at or before `t` is queued —
    /// the streaming run pops the exact event sequence of a bulk load.
    fn pump_source(&mut self) {
        while self.loaded_until < self.duration {
            match self.events.peek_time() {
                Some(t) if t.as_secs() < self.loaded_until => break,
                _ => {}
            }
            let hint = self.source.window_hint();
            debug_assert!(hint > 0.0, "window hint must be positive");
            let until = (self.loaded_until + hint).min(self.duration);
            let mut scratch = std::mem::take(&mut self.source_scratch);
            scratch.clear();
            self.source.next_window(until, &mut scratch);
            for ev in &scratch {
                match *ev {
                    ContactEvent::Up { pair, at } => {
                        self.events.push_contact(at, EventKind::ContactUp { pair });
                    }
                    ContactEvent::Down { pair, at } => {
                        self.events
                            .push_contact(at, EventKind::ContactDown { pair });
                    }
                }
            }
            self.source_scratch = scratch;
            self.loaded_until = until;
        }
    }

    /// Processes one event; returns `false` once the simulation ended.
    fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        self.pump_source();
        let Some((t, kind)) = self.events.pop() else {
            self.finish();
            return false;
        };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        match kind {
            EventKind::ContactUp { pair } => self.handle_contact_up(pair),
            EventKind::ContactDown { pair } => self.handle_contact_down(pair),
            EventKind::MessageCreate { spec_idx } => self.handle_create(spec_idx),
            EventKind::TransferDone {
                link,
                from,
                msg,
                epoch,
            } => self.handle_transfer_done(link, from, msg, epoch),
            EventKind::TtlSweep => self.handle_ttl_sweep(),
            EventKind::RouterTick { node } => self.handle_tick(node),
            EventKind::ProbeSample { interval } => self.handle_probe_sample(interval),
            EventKind::End => {
                self.finish();
                return false;
            }
        }
        true
    }

    /// Ends the run: a final occupancy sample, the last observer batch and
    /// the end-of-run callback. Idempotent (guarded by `finished`).
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if !self.observers.is_empty() {
            let (buffered_bytes, buffered_msgs) = self.occupancy();
            self.emit(SimEvent::Tick {
                at: self.now,
                buffered_bytes,
                buffered_msgs,
            });
            self.flush();
            let final_stats = self.stats.snapshot();
            for obs in &mut self.observers {
                obs.on_end(self.now, &final_stats);
            }
        }
    }

    /// Folds `ev` into the run's statistics and queues it for observer
    /// dispatch. The fold uses [`SimStats::apply`] — the same function the
    /// [`SimObserver`] impl of [`SimStats`] uses — so an external replica
    /// fed from the stream reproduces the engine's stats bitwise.
    #[inline]
    fn emit(&mut self, ev: SimEvent) {
        self.stats.apply(&ev);
        if !self.observers.is_empty() {
            self.batch.push(ev);
            if self.batch.len() >= OBSERVER_BATCH {
                self.flush();
            }
        }
    }

    /// Delivers the pending batch to every observer from the reused scratch
    /// buffer and clears it (capacity retained, no allocation).
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        for obs in &mut self.observers {
            obs.on_events(&self.batch);
        }
        self.batch.clear();
    }

    /// Global buffer occupancy: `(total bytes, total messages)` across all
    /// nodes. Linear in the node count; only computed at probe cadence.
    fn occupancy(&self) -> (u64, u64) {
        let mut bytes = 0u64;
        let mut msgs = 0u64;
        for buf in &self.buffers {
            bytes += buf.used();
            msgs += buf.len() as u64;
        }
        (bytes, msgs)
    }

    /// Emits an occupancy [`SimEvent::Tick`] and reschedules this cadence's
    /// chain. Read-only with respect to simulation state.
    fn handle_probe_sample(&mut self, interval: u32) {
        let (buffered_bytes, buffered_msgs) = self.occupancy();
        self.emit(SimEvent::Tick {
            at: self.now,
            buffered_bytes,
            buffered_msgs,
        });
        let dt = self.probe_intervals[interval as usize];
        let next = self.now + dt;
        // Strictly before the horizon: the final sample is the Tick that
        // `finish` emits at `End` (which pops first on an exact tie). The
        // `next > now` guard stops the chain when the cadence falls below
        // the float resolution of the current time — rescheduling an
        // instant that cannot advance would loop forever.
        if next > self.now && next.as_secs() < self.duration {
            self.events.push(next, EventKind::ProbeSample { interval });
        }
    }

    /// Slot of the active link between `pair`, if any (linear scan of the
    /// smaller endpoint's link list — node degrees are tiny).
    fn slot_of(&self, pair: NodePair) -> Option<u32> {
        self.active[pair.a.idx()]
            .iter()
            .find(|(p, _)| *p == pair)
            .map(|&(_, s)| s)
    }

    fn handle_contact_up(&mut self, pair: NodePair) {
        if self.slot_of(pair).is_some() {
            debug_assert!(false, "duplicate ContactUp for {pair:?}");
            return;
        }
        let epoch = self.next_epoch;
        self.next_epoch = self
            .next_epoch
            .checked_add(1)
            .expect("contact epoch space exhausted");
        let n_msgs = self.arena.len();
        let slot = match self.free_links.pop() {
            Some(s) => {
                let link = &mut self.links[s as usize];
                link.pair = pair;
                link.epoch = epoch;
                link.active = true;
                link.in_flight = [None, None];
                // `sent` stamps stay as-is: the fresh epoch invalidates them.
                s
            }
            None => {
                self.links.push(LinkSlot {
                    pair,
                    epoch,
                    active: true,
                    in_flight: [None, None],
                    sent: [vec![NO_EPOCH; n_msgs], vec![NO_EPOCH; n_msgs]],
                });
                (self.links.len() - 1) as u32
            }
        };
        self.active[pair.a.idx()].push((pair, slot));
        self.active[pair.b.idx()].push((pair, slot));
        self.emit(SimEvent::ContactStart { at: self.now, pair });

        // Control-plane handshake, both directions.
        for (me, peer) in [(pair.a, pair.b), (pair.b, pair.a)] {
            let mut purge = std::mem::take(&mut self.purge_scratch);
            {
                let (me_r, peer_r) = pair_mut(&mut self.routers, me.idx(), peer.idx());
                let mut ctx = ContactCtx {
                    now: self.now,
                    me,
                    peer,
                    buf: &self.buffers[me.idx()],
                    peer_buf: &self.buffers[peer.idx()],
                    stats: &mut self.stats,
                    sent: SentSet::empty(),
                    purge: &mut purge,
                };
                me_r.on_contact_up(&mut ctx, peer_r.as_mut());
            }
            self.apply_purges(me, &mut purge);
            self.purge_scratch = purge;
        }

        self.try_fill(slot, pair.a);
        self.try_fill(slot, pair.b);
    }

    fn handle_contact_down(&mut self, pair: NodePair) {
        let Some(slot) = self.slot_of(pair) else {
            return;
        };
        let link = &mut self.links[slot as usize];
        link.active = false;
        let in_flight = [link.in_flight[0].take(), link.in_flight[1].take()];
        for (di, flight) in in_flight.into_iter().enumerate() {
            if let Some((msg, _)) = flight {
                // Direction 0 is `pair.a → pair.b`.
                let (from, to) = if di == 0 {
                    (pair.a, pair.b)
                } else {
                    (pair.b, pair.a)
                };
                self.emit(SimEvent::Aborted {
                    at: self.now,
                    msg,
                    from,
                    to,
                });
            }
        }
        self.free_links.push(slot);
        self.active[pair.a.idx()].retain(|(p, _)| *p != pair);
        self.active[pair.b.idx()].retain(|(p, _)| *p != pair);
        self.emit(SimEvent::ContactEnd { at: self.now, pair });
        for (me, peer) in [(pair.a, pair.b), (pair.b, pair.a)] {
            let mut purge = std::mem::take(&mut self.purge_scratch);
            {
                let mut ctx = NodeCtx {
                    now: self.now,
                    me,
                    buf: &self.buffers[me.idx()],
                    stats: &mut self.stats,
                    purge: &mut purge,
                };
                self.routers[me.idx()].on_contact_down(&mut ctx, peer);
            }
            self.apply_purges(me, &mut purge);
            self.purge_scratch = purge;
        }
    }

    fn handle_create(&mut self, spec_idx: u32) {
        let msg = self.arena.message(MessageId(spec_idx));
        self.emit(SimEvent::Generated {
            at: self.now,
            msg: msg.id,
            src: msg.src,
        });
        let src = msg.src.idx();
        let copies = self.routers[src].initial_copies(&msg).max(1);
        if !self.make_room(msg.src, &msg) {
            // The newborn never entered a buffer; no router is notified.
            self.emit(SimEvent::Dropped {
                at: self.now,
                msg: msg.id,
                node: msg.src,
                reason: DropReason::BufferFull,
            });
            return;
        }
        let entry = BufferEntry {
            msg,
            copies,
            received_at: self.now,
            hops: 0,
        };
        self.buffers[src].insert(entry).expect("room was just made");
        let mut purge = std::mem::take(&mut self.purge_scratch);
        {
            let mut ctx = NodeCtx {
                now: self.now,
                me: msg.src,
                buf: &self.buffers[src],
                stats: &mut self.stats,
                purge: &mut purge,
            };
            self.routers[src].on_message_created(&mut ctx, msg.id);
        }
        self.apply_purges(msg.src, &mut purge);
        self.purge_scratch = purge;
        self.kick_node(msg.src);
    }

    fn handle_transfer_done(&mut self, slot: u32, from: NodeId, msg_id: MessageId, epoch: u32) {
        let link = &mut self.links[slot as usize];
        if !link.active || link.epoch != epoch {
            return; // link went down (abort already counted) or slot recycled
        }
        let pair = link.pair;
        let di = dir_index(pair, from);
        let Some((in_msg, action)) = link.in_flight[di].take() else {
            debug_assert!(false, "TransferDone with no in-flight transfer");
            return;
        };
        debug_assert_eq!(in_msg, msg_id);
        let to = pair.other(from);

        // The sender may have lost the message mid-flight (TTL sweep), or it
        // may have expired while on the air: the transfer is wasted.
        let Some(entry) = self.buffers[from.idx()]
            .get(msg_id)
            .filter(|e| !e.msg.expired(self.now))
        else {
            self.emit(SimEvent::Aborted {
                at: self.now,
                msg: msg_id,
                from,
                to,
            });
            self.try_fill(slot, from);
            return;
        };
        let msg = entry.msg;

        if to == msg.dst {
            let first = !self.stats.is_delivered(msg.id);
            self.emit(SimEvent::Delivered {
                at: self.now,
                msg: msg.id,
                from,
                to,
                created: msg.created,
                hops: entry.hops + 1,
                first,
            });
            self.apply_sender_action(from, msg_id, action);
            self.notify_sent(from, &msg, action, to, true);
            let mut purge = std::mem::take(&mut self.purge_scratch);
            {
                let mut ctx = NodeCtx {
                    now: self.now,
                    me: to,
                    buf: &self.buffers[to.idx()],
                    stats: &mut self.stats,
                    purge: &mut purge,
                };
                self.routers[to.idx()].on_delivery_received(&mut ctx, &msg, from, first);
            }
            self.apply_purges(to, &mut purge);
            self.purge_scratch = purge;
        } else if self.buffers[to.idx()].contains(msg_id) {
            // The receiver obtained the message from a third party while this
            // transfer was in flight; treat as a wasted relay.
            self.emit(SimEvent::Forwarded {
                at: self.now,
                msg: msg_id,
                from,
                to,
                duplicate: true,
            });
        } else if !self.make_room(to, &msg) {
            self.emit(SimEvent::Refused {
                at: self.now,
                msg: msg_id,
                from,
                to,
            });
        } else {
            self.emit(SimEvent::Forwarded {
                at: self.now,
                msg: msg_id,
                from,
                to,
                duplicate: false,
            });
            let give = match action {
                TransferAction::Forward => entry.copies,
                // The plan was validated against the copy count at
                // plan-application time (`validate_plan` rejects out-of-range
                // gives loudly), but a concurrent transfer on another link
                // can legitimately shrink the sender's copies while this one
                // was in flight — clamp to what is actually left.
                TransferAction::Split { give } => give.min(entry.copies).max(1),
                TransferAction::Copy => 1,
            };
            let new_entry = BufferEntry {
                msg,
                copies: give,
                received_at: self.now,
                hops: entry.hops + 1,
            };
            self.buffers[to.idx()]
                .insert(new_entry)
                .expect("room was just made");
            self.apply_sender_action(from, msg_id, action);
            self.notify_sent(from, &msg, action, to, false);
            let mut purge = std::mem::take(&mut self.purge_scratch);
            {
                let mut ctx = NodeCtx {
                    now: self.now,
                    me: to,
                    buf: &self.buffers[to.idx()],
                    stats: &mut self.stats,
                    purge: &mut purge,
                };
                self.routers[to.idx()].on_received(&mut ctx, &new_entry, from);
            }
            self.apply_purges(to, &mut purge);
            self.purge_scratch = purge;
            self.kick_node(to);
        }

        self.try_fill(slot, from);
    }

    fn handle_ttl_sweep(&mut self) {
        let mut expired = std::mem::take(&mut self.expired_scratch);
        for i in 0..self.n_nodes as usize {
            let node = NodeId(i as u32);
            expired.clear();
            expired.extend(self.buffers[i].expired(self.now));
            for &id in &expired {
                if let Some(entry) = self.buffers[i].remove(id) {
                    self.emit(SimEvent::Dropped {
                        at: self.now,
                        msg: id,
                        node,
                        reason: DropReason::Expired,
                    });
                    self.notify_dropped(node, &entry.msg, DropReason::Expired);
                }
            }
        }
        self.expired_scratch = expired;
        let next = self.now + self.cfg.ttl_sweep;
        if next.as_secs() < self.duration {
            self.events.push(next, EventKind::TtlSweep);
        }
    }

    fn handle_tick(&mut self, node: NodeId) {
        let i = node.idx();
        let mut purge = std::mem::take(&mut self.purge_scratch);
        {
            let mut ctx = NodeCtx {
                now: self.now,
                me: node,
                buf: &self.buffers[i],
                stats: &mut self.stats,
                purge: &mut purge,
            };
            self.routers[i].on_tick(&mut ctx);
        }
        self.apply_purges(node, &mut purge);
        self.purge_scratch = purge;
        if let Some(dt) = self.routers[i].tick_interval() {
            let next = self.now + dt;
            if next.as_secs() < self.duration {
                self.events.push(next, EventKind::RouterTick { node });
            }
        }
        self.kick_node(node);
    }

    /// Applies the sender-side effect of a completed transfer.
    fn apply_sender_action(&mut self, from: NodeId, msg: MessageId, action: TransferAction) {
        let buf = &mut self.buffers[from.idx()];
        match action {
            TransferAction::Forward => {
                buf.remove(msg);
            }
            TransferAction::Split { give } => {
                let remove = {
                    let copies = buf.copies_mut(msg).expect("sender entry present");
                    *copies = copies.saturating_sub(give);
                    *copies == 0
                };
                if remove {
                    buf.remove(msg);
                }
            }
            TransferAction::Copy => {}
        }
    }

    fn notify_sent(
        &mut self,
        from: NodeId,
        msg: &Message,
        action: TransferAction,
        to: NodeId,
        delivered: bool,
    ) {
        let mut purge = std::mem::take(&mut self.purge_scratch);
        {
            let mut ctx = NodeCtx {
                now: self.now,
                me: from,
                buf: &self.buffers[from.idx()],
                stats: &mut self.stats,
                purge: &mut purge,
            };
            self.routers[from.idx()].on_sent(&mut ctx, msg, action, to, delivered);
        }
        self.apply_purges(from, &mut purge);
        self.purge_scratch = purge;
    }

    fn notify_dropped(&mut self, node: NodeId, msg: &Message, reason: DropReason) {
        let mut purge = std::mem::take(&mut self.purge_scratch);
        {
            let mut ctx = NodeCtx {
                now: self.now,
                me: node,
                buf: &self.buffers[node.idx()],
                stats: &mut self.stats,
                purge: &mut purge,
            };
            self.routers[node.idx()].on_dropped(&mut ctx, msg, reason);
        }
        self.apply_purges(node, &mut purge);
        self.purge_scratch = purge;
    }

    /// Applies router purge requests against `node`'s buffer.
    fn apply_purges(&mut self, node: NodeId, purge: &mut Vec<MessageId>) {
        while let Some(id) = purge.pop() {
            if let Some(entry) = self.buffers[node.idx()].remove(id) {
                self.emit(SimEvent::Dropped {
                    at: self.now,
                    msg: id,
                    node,
                    reason: DropReason::Protocol,
                });
                self.notify_dropped(node, &entry.msg, DropReason::Protocol);
            }
        }
    }

    /// Evicts messages (per the router's policy) until `incoming` fits at
    /// `node`. Returns `false` if room cannot be made.
    fn make_room(&mut self, node: NodeId, incoming: &Message) -> bool {
        let i = node.idx();
        if u64::from(incoming.size) > self.buffers[i].capacity() {
            return false;
        }
        if self.buffers[i].fits(incoming.size) {
            return true;
        }
        let victims = self.routers[i].select_drops(&self.buffers[i], incoming, self.now);
        for v in victims {
            if self.buffers[i].fits(incoming.size) {
                break;
            }
            if let Some(entry) = self.buffers[i].remove(v) {
                self.emit(SimEvent::Dropped {
                    at: self.now,
                    msg: v,
                    node,
                    reason: DropReason::BufferFull,
                });
                self.notify_dropped(node, &entry.msg, DropReason::BufferFull);
            }
        }
        self.buffers[i].fits(incoming.size)
    }

    /// Re-offers work on every active link of `node`.
    fn kick_node(&mut self, node: NodeId) {
        let mut snapshot = std::mem::take(&mut self.kick_scratch);
        snapshot.clear();
        snapshot.extend_from_slice(&self.active[node.idx()]);
        for &(_, slot) in &snapshot {
            self.try_fill(slot, node);
        }
        self.kick_scratch = snapshot;
    }

    /// If direction `from → other(from)` of the link in `slot` is idle, asks
    /// the router for a plan and starts the transfer.
    fn try_fill(&mut self, slot: u32, from: NodeId) {
        let link = &self.links[slot as usize];
        if !link.active {
            return;
        }
        let pair = link.pair;
        let di = dir_index(pair, from);
        if link.in_flight[di].is_some() {
            return;
        }
        let to = pair.other(from);
        let epoch = link.epoch;

        let plan = {
            let mut purge = std::mem::take(&mut self.purge_scratch);
            let plan = {
                let link = &self.links[slot as usize];
                let mut ctx = ContactCtx {
                    now: self.now,
                    me: from,
                    peer: to,
                    buf: &self.buffers[from.idx()],
                    peer_buf: &self.buffers[to.idx()],
                    stats: &mut self.stats,
                    sent: SentSet::new(&link.sent[di], epoch),
                    purge: &mut purge,
                };
                self.routers[from.idx()].pick_transfer(&mut ctx)
            };
            self.apply_purges(from, &mut purge);
            self.purge_scratch = purge;
            plan
        };
        let Some(plan) = plan else {
            return;
        };
        if !self.validate_plan(slot, from, to, &plan) {
            debug_assert!(
                false,
                "router {} proposed invalid plan {plan:?}",
                self.routers[from.idx()].label()
            );
            return;
        }
        let size = self.buffers[from.idx()]
            .get(plan.msg)
            .expect("validated")
            .msg
            .size;
        let duration = self.cfg.link_setup + f64::from(size) / self.cfg.bandwidth_bps;
        let link = &mut self.links[slot as usize];
        link.in_flight[di] = Some((plan.msg, plan.action));
        link.sent[di][plan.msg.idx()] = epoch;
        self.events.push(
            self.now + duration,
            EventKind::TransferDone {
                link: slot,
                from,
                msg: plan.msg,
                epoch,
            },
        );
    }

    fn validate_plan(&self, slot: u32, from: NodeId, to: NodeId, plan: &TransferPlan) -> bool {
        let Some(entry) = self.buffers[from.idx()].get(plan.msg) else {
            return false;
        };
        let link = &self.links[slot as usize];
        let di = dir_index(link.pair, from);
        if link.sent[di][plan.msg.idx()] == link.epoch {
            return false;
        }
        // Offering a message the peer already buffers is useless (delivery to
        // the destination is always allowed: destinations do not buffer).
        if to != entry.msg.dst && self.buffers[to.idx()].contains(plan.msg) {
            return false;
        }
        // Out-of-bounds splits are router bugs, not transient staleness: the
        // plan was produced against this exact buffer state. Silently
        // accepting them would corrupt copy conservation (a zero give would
        // be bumped to 1 at completion; an oversized give would drain the
        // sender to zero while minting copies at the receiver), so they fail
        // loudly here, at plan-application time.
        if let TransferAction::Split { give } = plan.action {
            assert!(
                give >= 1,
                "router {} proposed Split {{ give: 0 }} for message {:?} at node {from:?}: \
                 a split must hand over at least one copy (use Copy or drop the plan)",
                self.routers[from.idx()].label(),
                plan.msg,
            );
            assert!(
                give <= entry.copies,
                "router {} proposed Split {{ give: {give} }} for message {:?} at node {from:?}, \
                 which holds only {} copies: a split cannot hand over more copies than the \
                 sender owns",
                self.routers[from.idx()].label(),
                plan.msg,
                entry.copies,
            );
        }
        true
    }
}
