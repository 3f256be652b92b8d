//! The per-layer metrics of a traced pass, derived from its [`Tracer`].
//!
//! Times are summed over cells (and over sweep workers), so a layer's share
//! of a run is its time over the run span. Engine self time is the run span
//! minus the router, contact-supply and observer time inside it.

use crate::trace::{Agg, Tracer};
use crate::workload::Pass;
use std::collections::BTreeMap;

const MB: f64 = 1024.0 * 1024.0;

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("mobility.build_s", "s"),
    ("mobility.supply_s", "s"),
    ("mobility.supply_windows", "count"),
    ("mobility.contact_events", "count"),
    ("sim.construct_s", "s"),
    ("sim.construct_rss_mb", "MB"),
    ("sim.self_s", "s"),
    ("sim.replay_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.observer_s", "s"),
    ("sim.observer_batches", "count"),
    ("sim.relayed", "count"),
    ("sim.aborted", "count"),
    ("sim.abort_ratio", "ratio"),
    ("core.eer.contact_up_s", "s"),
    ("core.cr.contact_up_s", "s"),
    ("core.contact_up_calls", "count"),
    ("core.contact_up_max_ms", "ms"),
    ("core.pick_transfer_s", "s"),
    ("core.pick_transfer_calls", "count"),
    ("core.other_s", "s"),
    ("core.control_mb", "MB"),
    ("core.eer.state_mb", "MB"),
    ("core.cr.state_mb", "MB"),
    ("routing.contact_up_s", "s"),
    ("routing.contact_up_calls", "count"),
    ("routing.pick_transfer_s", "s"),
    ("routing.pick_transfer_calls", "count"),
    ("routing.other_s", "s"),
    ("routing.control_mb", "MB"),
    ("scenario.builds", "count"),
    ("scenario.build_s", "s"),
    ("fabric.workers", "count"),
    ("fabric.cell_s_sum", "s"),
    ("fabric.cell_s_max", "s"),
    ("fabric.utilization", "ratio"),
    ("store.publishes", "count"),
    ("store.publish_s", "s"),
    ("store.bytes", "B"),
    ("store.serves", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.serve_s", "s"),
    ("store.read_s", "s"),
    ("store.admit_s", "s"),
    ("report.parse_s", "s"),
    ("report.validate_s", "s"),
    ("report.emit_s", "s"),
    ("rss.setup_mb", "MB"),
    ("rss.peak_mb", "MB"),
    ("trace.run_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// What the traced run cannot measure from outside the program, and why.
/// Printed with every traced run.
pub const NOT_MEASURED: [&str; 6] = [
    "engine events by kind: the queue is private; sim.events counts what enters and \
     leaves it (messages, contact events, ended transfers, router ticks) and misses \
     TTL sweeps, probe samples and stale transfer events",
    "MI rows copied and MEMD solves: EER/CR expose no counters; core.control_mb is \
     the outside proxy for gossip volume",
    "contact stepper phases (grid prepare, scan, commit): only ContactSource::next_window \
     is visible, as mobility.supply_s",
    "buffer operations: the engine applies them internally; they are part of sim.self_s",
    "allocated EER/CR state: core.*.state_mb sizes the state reachable through public \
     accessors as the dense layout stores it",
    "fabric steals and queue waits: run_indexed has no hooks; fabric.utilization is \
     the outside view",
];

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of one traced pass. `rss.peak_mb` and
/// `trace.overhead` are whole-run figures the caller adds.
pub fn layer_metrics(tr: &Tracer, traced: &Pass) -> BTreeMap<&'static str, f64> {
    let router = |family: &str, hook: &str| tr.agg(&format!("router.{family}.{hook}"));
    let core = |hook: &str| {
        let mut a = router("core.eer", hook);
        a.merge(&router("core.cr", hook));
        a
    };
    let routing = |hook: &str| router("routing", hook);
    let all_hooks = {
        let mut a = Agg::default();
        for hook in ["contact_up", "pick_transfer", "other"] {
            a.merge(&tr.agg_matching("router.", &format!(".{hook}")));
        }
        a
    };
    let stream = tr.agg("supply.stream");
    let replay = tr.agg("supply.replay");
    let batches = tr.agg("observer.batches");
    let observer_s = batches.secs() + tr.agg("observer.end").secs();
    let run = tr.agg("span.run");
    let cells = tr.agg("span.cell");
    let fabric = tr.agg("span.fabric");
    let relayed = tr.value("sim.relayed");
    let aborted = tr.value("sim.aborted");
    let events = tr.value("messages")
        + tr.value("contact_events")
        + relayed
        + aborted
        + tr.value("router.ticks");
    let admit = tr.agg("span.admit").secs();
    let parse = tr.agg("span.parse").secs();
    let workers = tr.value("fabric.workers");

    let mut m = BTreeMap::new();
    m.insert("mobility.build_s", tr.agg("span.build").secs());
    m.insert("mobility.supply_s", stream.secs());
    m.insert(
        "mobility.supply_windows",
        (stream.count + replay.count) as f64,
    );
    m.insert("mobility.contact_events", tr.value("contact_events"));
    m.insert(
        "sim.construct_s",
        tr.agg("span.construct").secs() - tr.agg_matching("router.", ".make").secs(),
    );
    m.insert("sim.construct_rss_mb", tr.value("sim.construct_rss_mb"));
    m.insert(
        "sim.self_s",
        run.secs() - all_hooks.secs() - stream.secs() - replay.secs() - observer_s,
    );
    m.insert("sim.replay_s", replay.secs());
    m.insert("sim.events", events);
    m.insert("sim.events_per_s", ratio(events, run.secs()));
    m.insert("sim.observer_s", observer_s);
    m.insert("sim.observer_batches", batches.count as f64);
    m.insert("sim.relayed", relayed);
    m.insert("sim.aborted", aborted);
    m.insert("sim.abort_ratio", ratio(aborted, relayed + aborted));
    m.insert(
        "core.eer.contact_up_s",
        router("core.eer", "contact_up").secs(),
    );
    m.insert(
        "core.cr.contact_up_s",
        router("core.cr", "contact_up").secs(),
    );
    m.insert("core.contact_up_calls", core("contact_up").count as f64);
    m.insert(
        "core.contact_up_max_ms",
        core("contact_up").max.as_secs_f64() * 1e3,
    );
    m.insert("core.pick_transfer_s", core("pick_transfer").secs());
    m.insert(
        "core.pick_transfer_calls",
        core("pick_transfer").count as f64,
    );
    m.insert("core.other_s", core("other").secs() + core("make").secs());
    m.insert(
        "core.control_mb",
        (tr.value("control_bytes.core.eer") + tr.value("control_bytes.core.cr")) / MB,
    );
    m.insert("core.eer.state_mb", tr.value("state_bytes.core.eer") / MB);
    m.insert("core.cr.state_mb", tr.value("state_bytes.core.cr") / MB);
    m.insert("routing.contact_up_s", routing("contact_up").secs());
    m.insert(
        "routing.contact_up_calls",
        routing("contact_up").count as f64,
    );
    m.insert("routing.pick_transfer_s", routing("pick_transfer").secs());
    m.insert(
        "routing.pick_transfer_calls",
        routing("pick_transfer").count as f64,
    );
    m.insert(
        "routing.other_s",
        routing("other").secs() + routing("make").secs(),
    );
    m.insert("routing.control_mb", tr.value("control_bytes.routing") / MB);
    m.insert("scenario.builds", traced.scenario_builds as f64);
    m.insert(
        "scenario.build_s",
        if traced.scenario_builds > 0 {
            traced.setup_s.iter().sum()
        } else {
            0.0
        },
    );
    m.insert("fabric.workers", workers);
    let (cell_sum, cell_max) = if fabric.count > 0 {
        (cells.secs(), cells.max.as_secs_f64())
    } else {
        (0.0, 0.0)
    };
    m.insert("fabric.cell_s_sum", cell_sum);
    m.insert("fabric.cell_s_max", cell_max);
    m.insert(
        "fabric.utilization",
        ratio(cell_sum, workers * fabric.secs()),
    );
    m.insert("store.publishes", tr.agg("span.publish").count as f64);
    m.insert("store.publish_s", tr.agg("span.publish").secs());
    m.insert("store.bytes", tr.value("store.bytes"));
    m.insert("store.serves", tr.value("store.serves"));
    m.insert(
        "store.hit_ratio",
        ratio(tr.value("store.serves"), tr.value("store.warm_cells")),
    );
    m.insert("store.serve_s", traced.warm_s.iter().sum());
    m.insert("store.read_s", tr.agg("span.read").secs());
    m.insert("store.admit_s", admit);
    m.insert("report.parse_s", parse);
    m.insert("report.validate_s", admit - parse);
    m.insert("report.emit_s", tr.agg("span.emit").secs());
    m.insert("rss.setup_mb", tr.value("rss.setup_mb"));
    m.insert("trace.run_s", crate::mean(&traced.run_s));
    m.insert("trace.spans", tr.span_count() as f64);
    m
}
