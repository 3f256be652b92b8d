//! # dtn-testutil — shared generators for the differential test suites
//!
//! The bench-layer property tests (`protocol_spec.rs`, `record_replay.rs`,
//! `scenario_families.rs`, `fabric_equivalence.rs`) all need the same raw
//! material: "an arbitrary but valid protocol spec", "an arbitrary sweep
//! cell", "a small scenario-family matrix with real forwarding work". Until
//! this crate, each test file grew its own copy; this crate is the one
//! canonical source, so every differential test draws specs from the same
//! distribution and a generator fix propagates everywhere at once.
//!
//! Three layers:
//!
//! * deterministic **builders** ([`build_protocol_spec`], [`run_spec_cell`],
//!   [`specs_for`]) — pure functions from raw strategy draws to spec
//!   values, usable without proptest;
//! * proptest **strategies** ([`arb_protocol_spec`], [`arb_run_spec`],
//!   [`arb_spec_matrix`]) — the builders wired to the canonical draw
//!   ranges;
//! * **fixtures** ([`replay_trace`], [`family_matrix`], [`temp_trace`]) —
//!   shared synthetic scenarios and artifact paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ce_core::{BufferPolicy, EmdMode};
use dtn_bench::{
    ProbeSpec, ProtocolKind, ProtocolParams, ProtocolSpec, RunSpec, ScenarioSpec, WorkloadSpec,
};
use dtn_sim::{Contact, ContactTrace};
use proptest::collection;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Protocols drawn by the cell generators: a quota family, pure flooding
/// and a history-based one, so generated runs exercise different event
/// mixes (splits, refusals, protocol drops).
pub const PROTOCOLS: &[&str] = &[
    "eer:lambda=4",
    "epidemic",
    "eer:lambda=2,alpha=0.35",
    "prophet",
];

/// Workloads drawn by the cell generators.
pub const WORKLOADS: &[&str] = &["paper", "hotspot"];

/// Deterministically builds a valid protocol spec from raw strategy draws:
/// a family index plus enough scalars to perturb every tunable the CLI
/// grammar exposes.
///
/// Draw ranges (enforced by [`arb_protocol_spec`], assumed here): `frac` in
/// `[0, 1)`, `secs` a positive seconds-scale value, `sel_a`/`sel_b` 3-way
/// selectors, `small` a small positive integer.
#[allow(clippy::too_many_arguments)]
pub fn build_protocol_spec(
    kind_i: u32,
    lambda: u32,
    window: usize,
    frac: f64,
    secs: f64,
    sel_a: u8,
    sel_b: u8,
    small: u32,
) -> ProtocolSpec {
    let kind = ProtocolKind::ALL[kind_i as usize % ProtocolKind::ALL.len()];
    let mut spec = ProtocolSpec::paper(kind);
    match &mut spec.params {
        ProtocolParams::Eer(c) => {
            c.lambda = lambda;
            c.alpha = 0.05 + frac * 0.95;
            c.window = window;
            c.forward_hysteresis = secs;
            c.refresh = secs * 0.5;
            if sel_a == 1 {
                c.emd_mode = EmdMode::MeanInterval;
            }
            if sel_b == 1 {
                c.buffer_policy = BufferPolicy::LeastRemainingValue;
            }
            if sel_a == 2 {
                c.adaptive_lambda = Some((small, small + 7));
            }
        }
        ProtocolParams::Cr(c) => {
            c.lambda = lambda;
            c.alpha = 0.05 + frac * 0.95;
            c.window = window;
            c.forward_hysteresis = secs;
            c.probability_hysteresis = frac;
            c.refresh = secs * 2.0;
            if sel_b == 1 {
                c.buffer_policy = BufferPolicy::LeastRemainingValue;
            }
        }
        ProtocolParams::Ebr(c) => {
            c.lambda = lambda;
            c.alpha = frac;
            c.window = secs;
        }
        ProtocolParams::MaxProp(c) => {
            c.hop_threshold = small;
            c.cost_refresh = secs;
        }
        ProtocolParams::SprayAndWait { lambda: l, binary } => {
            *l = lambda;
            *binary = sel_a != 1;
        }
        ProtocolParams::SprayAndFocus(c) => {
            c.lambda = lambda;
            c.utility_threshold = secs;
            c.transitivity_penalty = secs * 3.0;
        }
        ProtocolParams::Prophet(c) => {
            c.p_init = 0.05 + frac * 0.9;
            c.beta = frac;
            c.gamma = 0.5 + frac * 0.49;
            c.time_unit = secs;
        }
        ProtocolParams::Epidemic | ProtocolParams::Direct | ProtocolParams::FirstContact => {}
    }
    if sel_a == 0 {
        spec.buffer = Some(u64::from(small) * 4096);
    }
    if sel_b == 2 {
        spec.ttl = Some(secs * 10.0);
    }
    spec
}

/// The canonical strategy over the whole tuned-protocol space: every
/// family, every tunable perturbed, always grammatically round-trippable.
pub fn arb_protocol_spec() -> impl Strategy<Value = ProtocolSpec> {
    (
        (0u32..10, 1u32..64, 1usize..128),
        (0.0f64..1.0, 0.25f64..5000.0),
        (0u8..3, 0u8..3, 1u32..32),
    )
        .prop_map(
            |((kind_i, lambda, window), (frac, secs), (sel_a, sel_b, small))| {
                build_protocol_spec(kind_i, lambda, window, frac, secs, sel_a, sel_b, small)
            },
        )
}

/// Deterministically builds one sweep cell from raw strategy draws: a
/// paper/rwp scenario (by `family % 2`), a protocol from [`PROTOCOLS`], a
/// workload from [`WORKLOADS`] and a probe set selected by
/// `probe_sel % 4` (none / time series / time series + latency / latency).
///
/// This is the one canonical arbitrary-`RunSpec` source: keep the draw
/// small (n in the low tens, duration a few hundred seconds) so
/// property suites that *run* the cells stay fast.
pub fn run_spec_cell(
    family: usize,
    n: u32,
    duration: f64,
    protocol: usize,
    workload: usize,
    probe_sel: u8,
) -> RunSpec {
    let scenario = match family % 2 {
        0 => ScenarioSpec::parse("paper", n).expect("paper family"),
        _ => ScenarioSpec::parse("rwp", n).expect("rwp family"),
    };
    let protocol = PROTOCOLS[protocol % PROTOCOLS.len()];
    let workload = WorkloadSpec::parse(WORKLOADS[workload % WORKLOADS.len()]).expect("workload");
    let probes = match probe_sel % 4 {
        0 => vec![],
        1 => vec![ProbeSpec::TimeSeries { dt: 50.0 }],
        2 => vec![ProbeSpec::TimeSeries { dt: 50.0 }, ProbeSpec::LatencyHist],
        _ => vec![ProbeSpec::LatencyHist],
    };
    RunSpec::on(
        protocol,
        scenario,
        ProtocolSpec::parse(protocol).expect("protocol"),
    )
    .with_workload(workload)
    .with_duration(duration)
    .with_probes(probes)
}

/// The canonical strategy over single sweep cells (see [`run_spec_cell`]).
pub fn arb_run_spec() -> impl Strategy<Value = RunSpec> {
    (
        (0usize..2, 8u32..14, 300u32..700),
        (0usize..PROTOCOLS.len(), 0usize..WORKLOADS.len(), 0u8..4),
    )
        .prop_map(|((family, n, duration), (protocol, workload, probe_sel))| {
            run_spec_cell(
                family,
                n,
                f64::from(duration),
                protocol,
                workload,
                probe_sel,
            )
        })
}

/// A strategy over small random spec matrices — `len` cells drawn from
/// [`arb_run_spec`] — the input shape of the fabric differential tests.
pub fn arb_spec_matrix(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RunSpec>> {
    collection::vec(arb_run_spec(), len)
}

/// A unique temp-file path for a TRACE/1.0 artifact; the caller owns
/// cleanup. Paths are namespaced by process id so parallel test binaries
/// never collide.
pub fn temp_trace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dtn_testutil_artifacts");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}_{}.trace", std::process::id()))
}

/// Builds the live (unrecorded) and recording variants of one random cell
/// for the record → replay contract: both carry the time-series + latency
/// probes, the recorded one additionally streams into `artifact`.
pub fn specs_for(
    family: usize,
    n: u32,
    duration: f64,
    protocol: usize,
    workload: usize,
    artifact: &std::path::Path,
) -> (RunSpec, RunSpec) {
    let scenario = match family % 2 {
        0 => ScenarioSpec::parse("paper", n).expect("paper family"),
        _ => ScenarioSpec::parse("rwp", n).expect("rwp family"),
    };
    let protocol = ProtocolSpec::parse(PROTOCOLS[protocol % PROTOCOLS.len()]).expect("protocol");
    let workload = WorkloadSpec::parse(WORKLOADS[workload % WORKLOADS.len()]).expect("workload");
    let live = RunSpec::on("live", scenario, protocol)
        .with_workload(workload)
        .with_duration(duration)
        .with_probe(ProbeSpec::TimeSeries { dt: 50.0 })
        .with_probe(ProbeSpec::LatencyHist);
    let recorded = live.clone().with_probe(ProbeSpec::EventLog {
        path: artifact.display().to_string(),
    });
    (live, recorded)
}

/// A small synthetic recording shared by the trace-replay cells: a
/// deterministic ring of repeating meetings over 8 nodes / 1 200 s so
/// every protocol has real forwarding work to do.
pub fn replay_trace() -> Arc<ContactTrace> {
    let mut contacts = Vec::new();
    for round in 0..10u32 {
        let t0 = f64::from(round) * 110.0;
        for i in 0..8u32 {
            let (a, b) = (i, (i + 1) % 8);
            let start = t0 + f64::from(i) * 5.0;
            contacts.push(Contact::new(a, b, start, start + 20.0));
        }
    }
    Arc::new(ContactTrace::new(8, 1_200.0, contacts))
}

/// One matrix mixing all three scenario families (and a non-paper
/// workload) as separate series, for two protocols — the standard
/// cross-family sweep the thread-invariance tests run.
pub fn family_matrix() -> Vec<RunSpec> {
    let trace = replay_trace();
    let mut specs = Vec::new();
    for (label, proto) in [
        ("EER", ProtocolSpec::paper(ProtocolKind::Eer).with_lambda(6)),
        ("Epidemic", ProtocolSpec::paper(ProtocolKind::Epidemic)),
    ] {
        specs.push(
            RunSpec::on(
                format!("{label} @ paper"),
                ScenarioSpec::paper(8),
                proto.clone(),
            )
            .with_duration(1_200.0),
        );
        specs.push(
            RunSpec::on(
                format!("{label} @ rwp"),
                ScenarioSpec::rwp(10),
                proto.clone(),
            )
            .with_duration(1_200.0),
        );
        specs.push(RunSpec::on(
            format!("{label} @ trace"),
            ScenarioSpec::trace(Arc::clone(&trace)),
            proto.clone(),
        ));
        specs.push(
            RunSpec::on(
                format!("{label} @ paper/hotspot"),
                ScenarioSpec::paper(8),
                proto,
            )
            .with_workload(WorkloadSpec::hotspot())
            .with_duration(1_200.0),
        );
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated protocol spec must survive the CLI grammar: the
    /// generators exist to feed round-trip properties, so a spec that
    /// cannot re-parse is a generator bug, not a test finding.
    #[test]
    fn generated_protocol_specs_reparse() {
        let mut rng = proptest::TestRng::deterministic(11);
        let strat = arb_protocol_spec();
        for _ in 0..256 {
            let spec = strat.sample(&mut rng);
            let shown = spec.to_string();
            let parsed = ProtocolSpec::parse(&shown)
                .unwrap_or_else(|e| panic!("generated `{shown}` failed to re-parse: {e}"));
            assert_eq!(parsed, spec);
        }
    }

    /// Generated cells stay inside the fast envelope the property suites
    /// assume, and the probe selector covers all four probe sets.
    #[test]
    fn generated_cells_stay_small_and_cover_probe_sets() {
        let mut rng = proptest::TestRng::deterministic(12);
        let strat = arb_run_spec();
        let mut seen = [false; 4];
        for _ in 0..128 {
            let spec = strat.sample(&mut rng);
            let d = spec.duration.expect("cells always bound their horizon");
            assert!((300.0..700.0).contains(&d));
            let class = match spec.probes.as_slice() {
                [] => 0,
                [ProbeSpec::TimeSeries { .. }] => 1,
                [ProbeSpec::TimeSeries { .. }, ProbeSpec::LatencyHist] => 2,
                [ProbeSpec::LatencyHist] => 3,
                other => panic!("unexpected probe set: {other:?}"),
            };
            seen[class] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "probe selector never drew some probe set: {seen:?}"
        );
    }

    #[test]
    fn family_matrix_spans_families_and_workloads() {
        let specs = family_matrix();
        assert_eq!(specs.len(), 8);
        let series: Vec<&str> = specs.iter().map(|s| s.series.as_str()).collect();
        assert!(series.iter().any(|s| s.contains("@ trace")));
        assert!(series.iter().any(|s| s.contains("@ rwp")));
        assert!(series.iter().any(|s| s.contains("hotspot")));
    }
}
