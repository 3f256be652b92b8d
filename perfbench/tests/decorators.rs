//! The timing decorators must not change a run: a decorated run's digest
//! equals the plain `dtn_bench::runner` run's for every protocol family,
//! including the six that downcast their peer in `on_contact_up`.

use dtn_bench::{
    run_on_observed, run_stream, ProbeSpec, ProtocolKind, ProtocolSpec, RunSpec, ScenarioCache,
    ScenarioSpec,
};
use perfbench::workload::{decorated_run, decorated_stream_run, run_output_digest};

fn spec(kind: ProtocolKind, scenario: ScenarioSpec, horizon: f64) -> RunSpec {
    RunSpec::on(kind.name(), scenario, ProtocolSpec::paper(kind))
        .with_duration(horizon)
        .with_run_threads(1)
        .with_probe(ProbeSpec::TimeSeries { dt: 100.0 })
        .with_probe(ProbeSpec::LatencyHist)
}

#[test]
fn decorated_materialized_runs_match_the_runner_for_every_family() {
    let cache = ScenarioCache::new();
    for kind in ProtocolKind::ALL {
        let spec = spec(kind, ScenarioSpec::paper(14), 3000.0);
        for seed in [1, 2] {
            let ps = cache.get_spec(&spec.scenario, &spec.workload, seed, spec.duration);
            let plain = run_on_observed(&ps, &spec, seed);
            let decorated = decorated_run(&spec, &ps, seed);
            assert!(plain.stats.snapshot().created > 0);
            assert!(decorated.timeseries.is_some() && decorated.latency.is_some());
            assert_eq!(
                run_output_digest(&plain),
                run_output_digest(&decorated),
                "{} seed {seed}: decorated run differs",
                kind.name()
            );
        }
    }
}

#[test]
fn decorated_streamed_runs_match_run_stream_for_every_family() {
    let scenario = ScenarioSpec::parse("paper:n=30", 30).expect("valid scenario spec");
    for kind in ProtocolKind::ALL {
        let spec = spec(kind, scenario.clone(), 1200.0);
        let plain = run_stream(&spec, 3).expect("streamable spec").output;
        let decorated = decorated_stream_run(&spec, 3);
        assert_eq!(
            run_output_digest(&plain),
            run_output_digest(&decorated),
            "{}: decorated stream differs",
            kind.name()
        );
    }
}
