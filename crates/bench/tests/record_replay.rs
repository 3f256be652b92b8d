//! The record → replay contract, property-tested at the bench layer:
//!
//! 1. **Recording is pure observation.** Attaching the eventlog probe never
//!    changes a run's statistics relative to the unrecorded run.
//! 2. **Replay is bitwise.** Re-folding the recorded TRACE/1.0 stream
//!    through `replay_artifact` reproduces the live run's `SimStats` and
//!    probe outputs (time series, latency histogram) bit for bit — on
//!    every field, `control_bytes` and float accumulators included — and
//!    lands in the same report cell as the live run without the recorder.
//! 3. **Corruption is loud.** Flipping a single byte of a recorded payload
//!    fails hash-chain verification naming the offending sequence number,
//!    and `replay_artifact` refuses the artifact.

use dtn_bench::{replay_artifact, run_cell, ProbeSpec, RunRecord, ScenarioCache};
use dtn_testutil::{specs_for, temp_trace, PROTOCOLS, WORKLOADS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn replayed_record_is_bitwise_identical_to_live(
        family in 0usize..2,
        n in 8u32..14,
        duration in 300u32..700,
        protocol in 0usize..PROTOCOLS.len(),
        workload in 0usize..WORKLOADS.len(),
        seed in 0u64..500,
    ) {
        let artifact = temp_trace(&format!(
            "prop_{family}_{n}_{duration}_{protocol}_{workload}_{seed}"
        ));
        let duration = f64::from(duration);
        let (live_spec, rec_spec) =
            specs_for(family, n, duration, protocol, workload, &artifact);
        let cache = ScenarioCache::new();

        // Live run without the recorder: the reference.
        let run = run_cell(&cache, &live_spec, seed).expect("valid cell");
        let live = RunRecord::capture_stream(&live_spec, run.n_nodes, run.duration, seed, &run.output, 0.0);

        // Recorded run: the recorder is pure observation.
        let rec_out = run_cell(&cache, &rec_spec, seed).expect("valid cell").output;
        prop_assert_eq!(rec_out.stats.snapshot(), run.output.stats.snapshot(),
            "attaching the eventlog probe changed the run");

        // Replay with the live probe set: bitwise identical on every field.
        let replayed = replay_artifact(
            &artifact,
            &[ProbeSpec::TimeSeries { dt: 50.0 }, ProbeSpec::LatencyHist],
        ).expect("valid artifact replays");
        prop_assert_eq!(&replayed.stats, &live.stats, "replayed stats diverged");
        prop_assert_eq!(
            replayed.stats.latency_sum.to_bits(),
            live.stats.latency_sum.to_bits(),
            "float accumulation order must match exactly"
        );
        prop_assert_eq!(&replayed.timeseries, &live.timeseries);
        prop_assert_eq!(&replayed.latency, &live.latency);

        // Same report identity as the recorder-free live run.
        prop_assert_eq!(&replayed.cell, &live.cell);
        prop_assert_eq!(&replayed.group, &live.group);
        prop_assert_eq!(replayed.seed, live.seed);
        prop_assert_eq!(replayed.n_nodes, live.n_nodes);
        prop_assert_eq!(replayed.duration.to_bits(), live.duration.to_bits());
        prop_assert_eq!(&replayed.scenario, &live.scenario);
        prop_assert_eq!(&replayed.workload, &live.workload);
        prop_assert_eq!(&replayed.protocol, &live.protocol);
        // Provenance: the replayed record points back at its artifact.
        prop_assert_eq!(
            replayed.artifact.as_deref(),
            Some(artifact.display().to_string().as_str())
        );

        std::fs::remove_file(&artifact).ok();
    }
}

#[test]
fn corrupted_artifact_is_refused_naming_the_seq() {
    let artifact = temp_trace("corrupt");
    let (_, rec_spec) = specs_for(0, 10, 400.0, 0, 0, &artifact);
    let cache = ScenarioCache::new();
    run_cell(&cache, &rec_spec, 3).expect("valid cell");

    let clean = std::fs::read(&artifact).expect("artifact written");
    // Flip one byte deep inside the record region (well past the header,
    // well before the trailer).
    let mut bytes = clean.clone();
    let mid = clean.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&artifact, &bytes).unwrap();

    let err = replay_artifact(&artifact, &[]).expect_err("corruption must refuse");
    // Depending on which byte the flip lands on, verification fails on the
    // hash chain, a structural field (tag / seq), or the trailer — every
    // refusal names where in the stream it happened.
    assert!(
        err.contains("hash chain mismatch at seq")
            || err.contains("at seq")
            || err.contains("fingerprint")
            || err.contains("trailer"),
        "corruption not classified: {err}"
    );
    // The pristine artifact still replays.
    std::fs::write(&artifact, &clean).unwrap();
    replay_artifact(&artifact, &[]).expect("pristine artifact replays");
    std::fs::remove_file(&artifact).ok();
}
