//! Outside-in tracing: coarse spans around the calls into each layer, and
//! timing decorators for the engine's three plug-in points — [`Router`],
//! [`ContactSource`] and [`SimObserver`].
//!
//! Spans (build, construct, run, publish, serve, emit, …) are recorded per
//! cell with the cell key and the id of the span that caused them. Per-call
//! hooks are aggregated in memory as count, total and max. Nothing is
//! written until [`Tracer::to_json`] is called at the end of the run.

use ce_core::{ContactHistory, Cr, Eer, MiMatrix, PairHistory};
use dtn_bench::report::json::Json;
use dtn_sim::{
    Buffer, BufferEntry, ContactCtx, ContactEvent, ContactSource, DropReason, Message, MessageId,
    NodeCtx, NodeId, Router, SimEvent, SimObserver, SimTime, StatsSnapshot, TransferAction,
    TransferPlan,
};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Count, total and maximum duration of one kind of call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Number of calls.
    pub count: u64,
    /// Summed duration.
    pub total: Duration,
    /// Longest single call.
    pub max: Duration,
}

impl Agg {
    /// Adds one call of duration `d`.
    pub fn add(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Summed duration in seconds.
    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// One coarse span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the tracer (≥ 1).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root span.
    pub parent: u64,
    /// Phase name.
    pub name: &'static str,
    /// Cell (or scenario) key the span worked on.
    pub cell: String,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
}

#[derive(Default)]
struct TraceData {
    next_id: u64,
    spans: Vec<Span>,
    hooks: BTreeMap<String, Agg>,
    values: BTreeMap<String, f64>,
}

/// Collects the spans, hook aggregates and counters of one traced pass.
/// Shared by reference across sweep workers.
pub struct Tracer {
    epoch: Instant,
    data: Mutex<TraceData>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            data: Mutex::new(TraceData::default()),
        }
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, TraceData> {
        self.data
            .lock()
            .expect("tracer lock poisoned: a panic interrupted a tracer update")
    }

    /// Runs `f` inside a span `name` over `cell`, caused by span `parent`
    /// (0 for none). `f` receives the new span's id to parent its children.
    /// The span's duration also aggregates into hook `span.<name>`.
    pub fn span<T>(
        &self,
        name: &'static str,
        cell: &str,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = {
            let mut d = self.lock();
            d.next_id += 1;
            d.next_id
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let mut d = self.lock();
        d.spans.push(Span {
            id,
            parent,
            name,
            cell: cell.to_string(),
            start_s: (start - self.epoch).as_secs_f64(),
            end_s: (end - self.epoch).as_secs_f64(),
        });
        d.hooks
            .entry(format!("span.{name}"))
            .or_default()
            .add(end - start);
        out
    }

    /// Folds a per-call aggregate into hook `key`.
    pub fn hook(&self, key: &str, agg: &Agg) {
        self.lock()
            .hooks
            .entry(key.to_string())
            .or_default()
            .merge(agg);
    }

    /// Adds `v` to counter `key`.
    pub fn add(&self, key: &str, v: f64) {
        *self.lock().values.entry(key.to_string()).or_default() += v;
    }

    /// Raises gauge `key` to at least `v`.
    pub fn max(&self, key: &str, v: f64) {
        let mut d = self.lock();
        let slot = d.values.entry(key.to_string()).or_insert(v);
        *slot = slot.max(v);
    }

    /// Hook aggregate `key` (empty if never recorded).
    pub fn agg(&self, key: &str) -> Agg {
        self.lock().hooks.get(key).copied().unwrap_or_default()
    }

    /// Sum of every hook aggregate whose key starts with `prefix` and ends
    /// with `suffix`.
    pub fn agg_matching(&self, prefix: &str, suffix: &str) -> Agg {
        let mut out = Agg::default();
        for (k, a) in &self.lock().hooks {
            if k.starts_with(prefix) && k.ends_with(suffix) {
                out.merge(a);
            }
        }
        out
    }

    /// Counter or gauge `key` (0 if never recorded).
    pub fn value(&self, key: &str) -> f64 {
        self.lock().values.get(key).copied().unwrap_or(0.0)
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Every span, hook aggregate and counter as one JSON document, spans
    /// in start order.
    pub fn to_json(&self) -> String {
        let d = self.lock();
        let mut spans = d.spans.clone();
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
        let spans = spans.iter().map(|s| {
            Json::obj([
                ("id", Json::uint(s.id)),
                ("parent", Json::uint(s.parent)),
                ("name", Json::str(s.name)),
                ("cell", Json::str(&s.cell)),
                ("start_s", Json::num(s.start_s)),
                ("end_s", Json::num(s.end_s)),
            ])
        });
        let hooks = d.hooks.iter().map(|(k, a)| {
            Json::obj([
                ("hook", Json::str(k)),
                ("count", Json::uint(a.count)),
                ("total_s", Json::num(a.total.as_secs_f64())),
                ("max_s", Json::num(a.max.as_secs_f64())),
            ])
        });
        let counters = d.values.iter().map(|(k, v)| (k.clone(), Json::num(*v)));
        Json::obj([
            ("spans", Json::arr(spans.collect())),
            ("hooks", Json::arr(hooks.collect())),
            ("counters", Json::obj(counters)),
        ])
        .render()
    }
}

/// Per-cell aggregate of router calls, shared by the decorators of every
/// node of one cell.
#[derive(Debug, Default)]
pub struct RouterHooks {
    /// `ProtocolSpec::make_router` calls (router construction).
    pub make: Agg,
    /// `on_contact_up` calls.
    pub contact_up: Agg,
    /// `pick_transfer` calls.
    pub pick_transfer: Agg,
    /// Every other hook.
    pub other: Agg,
    /// `on_tick` calls (also counted in `other`).
    pub ticks: u64,
    /// Contact-expectation state of the cell's EER/CR routers at the end of
    /// the run, in bytes ([`state_bytes`]).
    pub state_bytes: u64,
}

/// The handle each decorated router of a cell holds.
pub type SharedHooks = Rc<RefCell<RouterHooks>>;

/// Times every call into one node's router.
///
/// EER, CR, EBR, MaxProp, PRoPHET and Spray-and-Focus downcast their peer
/// to their own type in `on_contact_up`, so the decorator hands the peer's
/// *inner* router through. Every router of a traced simulation must
/// therefore be decorated.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    hooks: SharedHooks,
}

impl TimedRouter {
    /// Decorates `inner`, aggregating into `hooks`.
    pub fn new(inner: Box<dyn Router>, hooks: SharedHooks) -> Self {
        TimedRouter { inner, hooks }
    }

    fn other<T>(&mut self, f: impl FnOnce(&mut dyn Router) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        self.hooks.borrow_mut().other.add(t.elapsed());
        out
    }
}

impl Router for TimedRouter {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn initial_copies(&self, msg: &Message) -> u32 {
        let t = Instant::now();
        let out = self.inner.initial_copies(msg);
        self.hooks.borrow_mut().other.add(t.elapsed());
        out
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.other(|r| r.on_start(ctx));
    }

    fn on_message_created(&mut self, ctx: &mut NodeCtx<'_>, msg: MessageId) {
        self.other(|r| r.on_message_created(ctx, msg));
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer = peer
            .as_any_mut()
            .downcast_mut::<TimedRouter>()
            .expect("every router of a traced simulation is decorated");
        let t = Instant::now();
        self.inner.on_contact_up(ctx, peer.inner.as_mut());
        self.hooks.borrow_mut().contact_up.add(t.elapsed());
    }

    fn on_contact_down(&mut self, ctx: &mut NodeCtx<'_>, peer: NodeId) {
        self.other(|r| r.on_contact_down(ctx, peer));
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        let t = Instant::now();
        let out = self.inner.pick_transfer(ctx);
        self.hooks.borrow_mut().pick_transfer.add(t.elapsed());
        out
    }

    fn on_sent(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        msg: &Message,
        action: TransferAction,
        to: NodeId,
        delivered: bool,
    ) {
        self.other(|r| r.on_sent(ctx, msg, action, to, delivered));
    }

    fn on_received(&mut self, ctx: &mut NodeCtx<'_>, entry: &BufferEntry, from: NodeId) {
        self.other(|r| r.on_received(ctx, entry, from));
    }

    fn on_delivery_received(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        msg: &Message,
        from: NodeId,
        first: bool,
    ) {
        self.other(|r| r.on_delivery_received(ctx, msg, from, first));
    }

    fn on_dropped(&mut self, ctx: &mut NodeCtx<'_>, msg: &Message, reason: DropReason) {
        self.other(|r| r.on_dropped(ctx, msg, reason));
    }

    fn select_drops(&mut self, buf: &Buffer, incoming: &Message, now: SimTime) -> Vec<MessageId> {
        self.other(|r| r.select_drops(buf, incoming, now))
    }

    fn tick_interval(&self) -> Option<f64> {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        self.hooks.borrow_mut().ticks += 1;
        self.other(|r| r.on_tick(ctx));
    }
}

impl Drop for TimedRouter {
    /// Records the router's end-of-run state size: routers are dropped with
    /// the simulation, after the last hook ran.
    fn drop(&mut self) {
        let any = self.inner.as_any_mut();
        let bytes = if let Some(r) = any.downcast_ref::<Eer>() {
            state_bytes(r.mi(), r.history())
        } else if let Some(r) = any.downcast_ref::<Cr>() {
            state_bytes(r.intra_mi(), r.history())
        } else {
            0
        };
        if let Ok(mut h) = self.hooks.try_borrow_mut() {
            h.state_bytes += bytes;
        }
    }
}

/// Bytes of one node's contact-expectation state as seen through the public
/// accessors, sized as the dense layout stores it: the n×n MI matrix with
/// its row stamps, plus every pair history (window samples kept three ways:
/// arrival order, sorted, prefix sums).
pub fn state_bytes(mi: &MiMatrix, history: &ContactHistory) -> u64 {
    let n = mi.n() as u64;
    let mut bytes = n * n * 8 + n * 8;
    for peer in 0..history.n_nodes() {
        let len = history.pair(NodeId(peer as u32)).len() as u64;
        bytes += std::mem::size_of::<PairHistory>() as u64 + (3 * len + 1) * 8;
    }
    bytes
}

/// Where a run's contacts come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupplyKind {
    /// A `dtn_mobility` stream: the contact stepper runs inside the engine.
    Stream,
    /// `dtn_sim::TraceReplaySource` over a materialized trace.
    Replay,
}

/// What a [`TimedSource`] saw.
#[derive(Debug, Default)]
pub struct Supply {
    /// `next_window` calls.
    pub windows: Agg,
    /// Contact events (Up and Down) handed to the engine.
    pub events: u64,
}

/// Times every window a contact source supplies.
pub struct TimedSource {
    inner: Box<dyn ContactSource>,
    supply: Arc<Mutex<Supply>>,
}

impl TimedSource {
    /// Decorates `inner`, aggregating into `supply`.
    pub fn new(inner: Box<dyn ContactSource>, supply: Arc<Mutex<Supply>>) -> Self {
        TimedSource { inner, supply }
    }
}

impl ContactSource for TimedSource {
    fn n_nodes(&self) -> u32 {
        self.inner.n_nodes()
    }

    fn duration(&self) -> f64 {
        self.inner.duration()
    }

    fn next_window(&mut self, until: f64, out: &mut Vec<ContactEvent>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.next_window(until, out);
        let d = t.elapsed();
        let mut s = self
            .supply
            .lock()
            .expect("supply lock poisoned: a panic interrupted a supply update");
        s.windows.add(d);
        s.events += (out.len() - before) as u64;
    }

    fn window_hint(&self) -> f64 {
        self.inner.window_hint()
    }
}

/// Times every batch an observer folds.
pub struct TimedObserver {
    inner: Box<dyn SimObserver>,
    /// `on_events` calls.
    pub batches: Agg,
    /// Time spent in `on_end`.
    pub end: Duration,
}

impl TimedObserver {
    /// Decorates `inner`.
    pub fn new(inner: Box<dyn SimObserver>) -> Self {
        TimedObserver {
            inner,
            batches: Agg::default(),
            end: Duration::ZERO,
        }
    }

    /// The decorated observer, for result extraction after the run.
    pub fn inner(&self) -> &dyn SimObserver {
        self.inner.as_ref()
    }
}

impl SimObserver for TimedObserver {
    fn on_events(&mut self, batch: &[SimEvent]) {
        let t = Instant::now();
        self.inner.on_events(batch);
        self.batches.add(t.elapsed());
    }

    fn on_end(&mut self, now: SimTime, final_stats: &StatsSnapshot) {
        let t = Instant::now();
        self.inner.on_end(now, final_stats);
        self.end += t.elapsed();
    }

    fn sample_interval(&self) -> Option<f64> {
        self.inner.sample_interval()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
