//! Engine edge cases: aborted transfers, refused receptions, mid-flight
//! expiry, zero-capacity corners, tick scheduling and bandwidth accounting.

use dtn_sim::prelude::*;
use std::any::Any;

/// A router that floods everything (epidemic semantics) — test fixture.
struct Flood;
impl Router for Flood {
    fn label(&self) -> &'static str {
        "flood"
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        ctx.buf
            .iter()
            .find(|e| e.msg.dst == ctx.peer && !ctx.sent.contains(&e.msg.id))
            .map(|e| TransferPlan::copy(e.msg.id))
            .or_else(|| {
                ctx.buf
                    .iter()
                    .find(|e| ctx.can_offer(e.msg.id))
                    .map(|e| TransferPlan::copy(e.msg.id))
            })
    }
}

fn flood_factory(_: NodeId, _: u32) -> Box<dyn Router> {
    Box::new(Flood)
}

fn msg(src: u32, dst: u32, create: f64, size: u32, ttl: f64) -> MessageSpec {
    MessageSpec {
        create_at: SimTime::secs(create),
        src: NodeId(src),
        dst: NodeId(dst),
        size,
        ttl,
    }
}

/// A contact too short for the transfer aborts it; a later long contact
/// succeeds.
#[test]
fn short_contact_aborts_transfer() {
    // 1 MB message at 250 KB/s needs 4 s; first contact lasts 1 s.
    let trace = ContactTrace::new(
        2,
        100.0,
        vec![
            Contact::new(0, 1, 10.0, 11.0),
            Contact::new(0, 1, 50.0, 60.0),
        ],
    );
    let wl = vec![msg(0, 1, 1.0, 1_000_000, 95.0)];
    let mut cfg = SimConfig::paper(0);
    cfg.buffer_capacity = 2_000_000;
    let stats = Simulation::new(&trace, wl, cfg, flood_factory).run();
    assert_eq!(stats.aborted, 1, "first attempt must abort");
    assert_eq!(stats.delivered, 1, "second contact is long enough");
    assert_eq!(stats.relayed, 1);
    // Delivery lands at 50 + 4 s; created at 1.
    assert!((stats.avg_latency() - 53.0).abs() < 1e-6);
}

/// A message that never fits the receiver's buffer is refused, not lost at
/// the sender.
#[test]
fn oversized_message_is_refused_by_receiver() {
    let trace = ContactTrace::new(3, 100.0, vec![Contact::new(0, 1, 10.0, 50.0)]);
    // Message destined to node 2 (so it must be *stored*, not delivered,
    // at node 1) and bigger than node 1's whole buffer.
    let wl = vec![msg(0, 2, 1.0, 900_000, 95.0)];
    let mut cfg = SimConfig::paper(0);
    cfg.buffer_capacity = 500_000;
    // Give the source room via a custom arrangement: source buffers are the
    // same size, so the creation itself must fail too. Verify that path:
    let stats = Simulation::new(&trace, wl.clone(), cfg, flood_factory).run();
    assert_eq!(stats.created, 1);
    assert_eq!(stats.drops_buffer, 1, "creation over capacity is dropped");
    assert_eq!(stats.relayed, 0);

    // Now with a buffer that fits exactly one copy at the source: the relay
    // to node 1 succeeds (same capacity) — refusal needs asymmetry, which
    // the engine models per-node via make_room failing only when the
    // incoming exceeds *capacity*; equal capacities accept here.
    let mut cfg2 = SimConfig::paper(0);
    cfg2.buffer_capacity = 1_000_000;
    let stats2 = Simulation::new(&trace, wl, cfg2, flood_factory).run();
    assert_eq!(stats2.drops_buffer, 0);
    assert_eq!(stats2.relayed, 1);
}

/// TTL expires while the message is in flight: the transfer is wasted, the
/// receiver gets nothing.
#[test]
fn expiry_mid_flight_wastes_transfer() {
    // Transfer takes 4 s; the message expires 1 s into it.
    let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 20.0)]);
    let wl = vec![msg(0, 1, 1.0, 1_000_000, 10.0)]; // expires at t=11
    let mut cfg = SimConfig::paper(0);
    cfg.buffer_capacity = 2_000_000;
    cfg.ttl_sweep = 0.5;
    let stats = Simulation::new(&trace, wl, cfg, flood_factory).run();
    assert_eq!(stats.delivered, 0);
    assert_eq!(stats.drops_ttl, 1, "swept at the source");
    assert_eq!(stats.aborted, 1, "in-flight transfer voided");
}

/// Link setup latency delays deliveries accordingly.
#[test]
fn link_setup_adds_latency() {
    let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 20.0)]);
    let wl = vec![msg(0, 1, 1.0, 25_000, 90.0)];
    let mut cfg = SimConfig::paper(0);
    cfg.link_setup = 2.0;
    let stats = Simulation::new(&trace, wl, cfg, flood_factory).run();
    assert_eq!(stats.delivered, 1);
    // 10 (contact) + 2 (setup) + 0.1 (25 KB at 250 KB/s) − 1 (created).
    assert!(
        (stats.avg_latency() - 11.1).abs() < 1e-6,
        "{}",
        stats.avg_latency()
    );
}

/// Messages created before any contact are delivered through later contacts
/// of the same pair (link epochs don't leak across contacts).
#[test]
fn link_epochs_do_not_leak_across_contacts() {
    let trace = ContactTrace::new(
        2,
        300.0,
        vec![
            Contact::new(0, 1, 10.0, 12.0),
            Contact::new(0, 1, 100.0, 102.0),
            Contact::new(0, 1, 200.0, 202.0),
        ],
    );
    // Three messages created between contacts.
    let wl = vec![
        msg(0, 1, 5.0, 25_000, 290.0),
        msg(0, 1, 50.0, 25_000, 240.0),
        msg(0, 1, 150.0, 25_000, 140.0),
    ];
    let stats = Simulation::new(&trace, wl, SimConfig::paper(0), flood_factory).run();
    assert_eq!(stats.delivered, 3);
    assert_eq!(stats.aborted, 0);
}

/// Router ticks fire at the configured cadence.
#[test]
fn router_ticks_fire() {
    struct Ticker {
        count: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl Router for Ticker {
        fn label(&self) -> &'static str {
            "ticker"
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn tick_interval(&self) -> Option<f64> {
            Some(10.0)
        }
        fn on_tick(&mut self, _ctx: &mut NodeCtx<'_>) {
            self.count.set(self.count.get() + 1);
        }
    }
    let count = std::rc::Rc::new(std::cell::Cell::new(0));
    let trace = ContactTrace::new(2, 100.0, vec![]);
    let c2 = std::rc::Rc::clone(&count);
    let mut sim = Simulation::new(&trace, vec![], SimConfig::paper(0), move |id, _| {
        if id == NodeId(0) {
            Box::new(Ticker {
                count: std::rc::Rc::clone(&c2),
            })
        } else {
            Box::new(Flood)
        }
    });
    sim.run_to_end();
    // Ticks at 10, 20, ..., 90 (no tick at or after the 100 s horizon).
    assert_eq!(count.get(), 9);
}

/// Bandwidth serialises transfers: three messages over one 2 s contact at
/// 250 KB/s move at most 500 KB.
#[test]
fn bandwidth_limits_throughput() {
    let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 12.0)]);
    let wl = vec![
        msg(0, 1, 1.0, 200_000, 90.0),
        msg(0, 1, 2.0, 200_000, 90.0),
        msg(0, 1, 3.0, 200_000, 90.0),
    ];
    let stats = Simulation::new(&trace, wl, SimConfig::paper(0), flood_factory).run();
    // 200 KB needs 0.8 s; the 2 s window fits two completions, the third
    // aborts at contact end.
    assert_eq!(stats.delivered, 2);
    assert_eq!(stats.aborted, 1);
}

/// A trace failing validation panics with the offending contact's index,
/// so bad inputs are diagnosable.
#[test]
#[should_panic(expected = "contact #1")]
fn invalid_trace_panic_names_contact_index() {
    // Second contact extends past the 20 s horizon.
    let trace = ContactTrace::new(
        2,
        20.0,
        vec![Contact::new(0, 1, 1.0, 2.0), Contact::new(0, 1, 5.0, 30.0)],
    );
    let _ = Simulation::new(&trace, vec![], SimConfig::paper(0), flood_factory);
}

/// Concurrently active links each get their own slot, and slots recycled by
/// later contacts don't inherit the previous contact's sent-set.
#[test]
fn concurrent_links_and_slot_recycling() {
    let trace = ContactTrace::new(
        4,
        100.0,
        vec![
            Contact::new(0, 1, 10.0, 20.0),
            Contact::new(2, 3, 12.0, 22.0), // concurrent with (0,1)
            Contact::new(1, 2, 30.0, 40.0), // reuses a freed slot
            Contact::new(0, 1, 35.0, 45.0), // concurrent again, different epoch
        ],
    );
    // 0 → 2 must travel 0 → 1 (first contact) then 1 → 2 (recycled slot).
    let wl = vec![msg(0, 2, 1.0, 25_000, 90.0)];
    let stats = Simulation::new(&trace, wl, SimConfig::paper(0), flood_factory).run();
    assert_eq!(stats.delivered, 1);
    assert_eq!(stats.relayed, 2, "two hops: 0→1 and 1→2");
    assert_eq!(stats.aborted, 0);
}

/// An empty trace (no contacts at all) runs to completion with zero
/// deliveries and proper TTL accounting.
#[test]
fn no_contacts_no_deliveries() {
    let trace = ContactTrace::new(4, 2_000.0, vec![]);
    let wl = vec![msg(0, 1, 1.0, 25_000, 100.0), msg(2, 3, 5.0, 25_000, 100.0)];
    let stats = Simulation::new(&trace, wl, SimConfig::paper(0), flood_factory).run();
    assert_eq!(stats.created, 2);
    assert_eq!(stats.delivered, 0);
    assert_eq!(stats.relayed, 0);
    assert_eq!(stats.drops_ttl, 2, "both messages expire unserved");
}

/// A router that proposes a fixed, possibly out-of-bounds `Split { give }`
/// for whatever it holds — the fixture for the plan-validation panics.
struct BadSplitter {
    give: u32,
}
impl Router for BadSplitter {
    fn label(&self) -> &'static str {
        "bad-splitter"
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn initial_copies(&self, _msg: &Message) -> u32 {
        4
    }
    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        ctx.buf
            .iter()
            .find(|e| ctx.can_offer(e.msg.id))
            .map(|e| TransferPlan::split(e.msg.id, self.give))
    }
}

fn bad_split_sim(give: u32) -> SimStats {
    let trace = ContactTrace::new(3, 100.0, vec![Contact::new(0, 1, 10.0, 50.0)]);
    // Destination 2 is never met, so the split to node 1 is a real relay,
    // not a delivery short-circuit.
    let wl = vec![msg(0, 2, 1.0, 25_000, 90.0)];
    Simulation::new(&trace, wl, SimConfig::paper(0), |_, _| {
        Box::new(BadSplitter { give })
    })
    .run()
}

/// `Split { give: 0 }` is a router bug and must fail loudly instead of being
/// silently bumped to one copy.
#[test]
#[should_panic(expected = "Split { give: 0 }")]
fn zero_copy_split_panics() {
    let _ = bad_split_sim(0);
}

/// A split handing over more copies than the sender holds must fail loudly
/// instead of silently corrupting copy conservation.
#[test]
#[should_panic(expected = "holds only 4 copies")]
fn oversized_split_panics() {
    let _ = bad_split_sim(9);
}

/// The boundary case stays valid: giving exactly the held copy count is a
/// legal (forward-everything) split — no panic, and the copies move.
#[test]
fn full_split_is_legal() {
    let stats = bad_split_sim(4);
    assert!(stats.relayed >= 1, "the full split must transfer");
    assert_eq!(stats.delivered, 0, "destination is never met");
}

/// The router hooks that get a context, as a purge script names them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Hook {
    Created,
    ContactUp,
    Pick,
    Sent,
    Received,
    DeliveryReceived,
    ContactDown,
    Tick,
    Dropped,
}

/// What the purge script saw: the purges each hook requested and every
/// `on_dropped` call.
#[derive(Default)]
struct PurgeLog {
    requested: Vec<(Hook, MessageId)>,
    dropped: Vec<(NodeId, MessageId, DropReason)>,
}

/// A router that, from each hook of its script, asks to purge the message
/// the script names while it holds it, and sends a scripted list of plans.
struct Purger {
    script: Vec<(Hook, MessageId)>,
    sends: std::collections::VecDeque<TransferPlan>,
    log: std::rc::Rc<std::cell::RefCell<PurgeLog>>,
}

impl Purger {
    fn purge(&self, hook: Hook, buf: &Buffer, purge: &mut Vec<MessageId>) {
        for &(h, m) in &self.script {
            if h == hook && buf.contains(m) {
                purge.push(m);
                self.log.borrow_mut().requested.push((h, m));
            }
        }
    }
}

impl Router for Purger {
    fn label(&self) -> &'static str {
        "purger"
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn on_message_created(&mut self, ctx: &mut NodeCtx<'_>, msg: MessageId) {
        // A message purged by this hook is purged at a later creation.
        if !self.script.contains(&(Hook::Created, msg)) {
            self.purge(Hook::Created, ctx.buf, ctx.purge);
        }
    }
    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, _peer: &mut dyn Router) {
        self.purge(Hook::ContactUp, ctx.buf, ctx.purge);
    }
    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        self.purge(Hook::Pick, ctx.buf, ctx.purge);
        self.sends.pop_front()
    }
    fn on_sent(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        _msg: &Message,
        _action: TransferAction,
        _to: NodeId,
        _delivered: bool,
    ) {
        self.purge(Hook::Sent, ctx.buf, ctx.purge);
    }
    fn on_received(&mut self, ctx: &mut NodeCtx<'_>, _entry: &BufferEntry, _from: NodeId) {
        self.purge(Hook::Received, ctx.buf, ctx.purge);
    }
    fn on_delivery_received(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        _msg: &Message,
        _from: NodeId,
        _first: bool,
    ) {
        self.purge(Hook::DeliveryReceived, ctx.buf, ctx.purge);
    }
    fn on_contact_down(&mut self, ctx: &mut NodeCtx<'_>, _peer: NodeId) {
        self.purge(Hook::ContactDown, ctx.buf, ctx.purge);
    }
    fn tick_interval(&self) -> Option<f64> {
        Some(30.0)
    }
    fn on_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        self.purge(Hook::Tick, ctx.buf, ctx.purge);
    }
    fn on_dropped(&mut self, ctx: &mut NodeCtx<'_>, msg: &Message, reason: DropReason) {
        self.log.borrow_mut().dropped.push((ctx.me, msg.id, reason));
        self.purge(Hook::Dropped, ctx.buf, ctx.purge);
    }
}

/// Every hook that gets a context can purge: the engine applies each
/// request once, counts it once as a protocol drop and reports it back
/// through `on_dropped`, including a purge requested from `on_dropped`
/// while another purge is applied.
#[test]
fn purges_apply_from_every_hook() {
    // Node 0 holds a..g plus x (copied to node 1) and y (delivered to it);
    // node 1 holds h and i. Node 3, the destination, is never met.
    let (a, b, c, d, e, f, g, x, y, h, i) = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10);
    let mut wl: Vec<MessageSpec> = (1..=8)
        .map(|t| msg(0, 3, f64::from(t), 25_000, 900.0))
        .collect();
    wl.push(msg(0, 1, 9.0, 25_000, 900.0));
    wl.extend((1..=2).map(|t| msg(1, 3, f64::from(t), 25_000, 900.0)));
    let node0 = [
        (Hook::Created, a),
        (Hook::Dropped, b),
        (Hook::ContactUp, c),
        (Hook::Pick, d),
        (Hook::Sent, e),
        (Hook::ContactDown, f),
        (Hook::Tick, g),
    ];
    let node1 = [(Hook::Received, h), (Hook::DeliveryReceived, i)];
    let trace = ContactTrace::new(4, 100.0, vec![Contact::new(0, 1, 10.0, 20.0)]);
    let log = std::rc::Rc::new(std::cell::RefCell::new(PurgeLog::default()));
    let shared = std::rc::Rc::clone(&log);
    let mut sim = Simulation::new(&trace, wl, SimConfig::paper(0), move |id, _| {
        let (script, sends): (&[(Hook, u32)], Vec<TransferPlan>) = match id.0 {
            0 => (
                &node0,
                vec![
                    TransferPlan::copy(MessageId(x)),
                    TransferPlan::forward(MessageId(y)),
                ],
            ),
            1 => (&node1, vec![]),
            _ => (&[], vec![]),
        };
        Box::new(Purger {
            script: script.iter().map(|&(h, m)| (h, MessageId(m))).collect(),
            sends: sends.into(),
            log: std::rc::Rc::clone(&shared),
        })
    });
    let stats = sim.run_to_end().clone();

    let purged: Vec<(NodeId, u32)> = node0
        .iter()
        .map(|&(_, m)| (NodeId(0), m))
        .chain(node1.iter().map(|&(_, m)| (NodeId(1), m)))
        .collect();
    let log = log.borrow();
    let mut hooks: Vec<Hook> = log.requested.iter().map(|&(h, _)| h).collect();
    hooks.sort();
    assert_eq!(
        hooks,
        [
            Hook::Created,
            Hook::ContactUp,
            Hook::Pick,
            Hook::Sent,
            Hook::Received,
            Hook::DeliveryReceived,
            Hook::ContactDown,
            Hook::Tick,
            Hook::Dropped,
        ],
        "each hook asks for its purge once: {:?}",
        log.requested
    );
    let mut dropped = log.dropped.clone();
    dropped.sort_by_key(|&(node, m, _)| (node, m));
    let want: Vec<(NodeId, MessageId, DropReason)> = purged
        .iter()
        .map(|&(node, m)| (node, MessageId(m), DropReason::Protocol))
        .collect();
    assert_eq!(
        dropped, want,
        "each purge comes back once through on_dropped"
    );
    assert_eq!(stats.drops_protocol, purged.len() as u64);
    assert_eq!((stats.drops_buffer, stats.drops_ttl), (0, 0));
    for &(node, m) in &purged {
        assert!(
            !sim.buffer(node).contains(MessageId(m)),
            "{m} left {node:?}"
        );
    }
    assert!(sim.buffer(NodeId(1)).contains(MessageId(x)), "x was copied");
    assert_eq!(stats.delivered, 1, "y was delivered");
}
