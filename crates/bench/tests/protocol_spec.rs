//! ProtocolSpec contract tests: the CLI grammar round-trips (`parse ∘
//! Display` is the identity over the whole parameter space), the paper
//! defaults reproduce the formerly hard-wired constants for every family,
//! and tuned variants of one protocol occupy distinct cell keys while the
//! sweep stays thread-invariant.

use ce_core::{BufferPolicy, EmdMode};
use dtn_bench::{
    run_matrix_records, ProtocolKind, ProtocolParams, ProtocolSpec, RunSpec, ScenarioCache,
    SweepConfig,
};
use dtn_testutil::arb_protocol_spec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `ProtocolSpec::parse ∘ Display` is the identity over randomly tuned
    /// specs of every family (drawn from the canonical `dtn_testutil`
    /// generator), and the injective cache encoding agrees.
    #[test]
    fn parse_display_is_identity(spec in arb_protocol_spec()) {
        let shown = spec.to_string();
        let parsed = ProtocolSpec::parse(&shown)
            .unwrap_or_else(|e| panic!("`{shown}` failed to re-parse: {e}"));
        prop_assert_eq!(&parsed, &spec, "`{}` did not round-trip", shown);
        prop_assert_eq!(parsed.cache_key(), spec.cache_key());
    }
}

/// `ProtocolSpec::paper(k)` reproduces the constants that used to be
/// hard-wired into the registry and the router constructors, for all 10
/// kinds.
#[test]
fn paper_defaults_match_former_constants() {
    for kind in ProtocolKind::ALL {
        let spec = ProtocolSpec::paper(kind);
        assert_eq!(spec.kind(), kind);
        assert_eq!(spec.ttl, None);
        assert_eq!(spec.buffer, None);
        match &spec.params {
            ProtocolParams::Eer(c) => {
                assert_eq!(c.lambda, 10);
                assert_eq!(c.alpha, 0.28);
                assert_eq!(c.window, ce_core::DEFAULT_WINDOW);
                assert_eq!(c.forward_hysteresis, 180.0);
                assert_eq!(c.refresh, 45.0);
                assert_eq!(c.emd_mode, EmdMode::Theorem2);
                assert_eq!(c.buffer_policy, BufferPolicy::OldestReceived);
                assert_eq!(c.adaptive_lambda, None);
            }
            ProtocolParams::Cr(c) => {
                assert_eq!(c.lambda, 10);
                assert_eq!(c.alpha, 0.28);
                assert_eq!(c.window, ce_core::DEFAULT_WINDOW);
                assert_eq!(c.forward_hysteresis, 180.0);
                assert_eq!(c.probability_hysteresis, 0.1);
                assert_eq!(c.refresh, 60.0);
                assert_eq!(c.buffer_policy, BufferPolicy::OldestReceived);
            }
            ProtocolParams::Ebr(c) => {
                assert_eq!(c.lambda, 10);
                assert_eq!(c.alpha, 0.85);
                assert_eq!(c.window, 30.0);
            }
            ProtocolParams::MaxProp(c) => {
                assert_eq!(c.hop_threshold, 7);
                assert_eq!(c.cost_refresh, 60.0);
            }
            ProtocolParams::SprayAndWait { lambda, binary } => {
                assert_eq!(*lambda, 10);
                assert!(*binary, "the paper baseline is binary spray");
            }
            ProtocolParams::SprayAndFocus(c) => {
                assert_eq!(c.lambda, 10);
                assert_eq!(c.utility_threshold, 30.0);
                assert_eq!(c.transitivity_penalty, 300.0);
            }
            ProtocolParams::Prophet(c) => {
                assert_eq!(c.p_init, 0.75);
                assert_eq!(c.beta, 0.25);
                assert_eq!(c.gamma, 0.98);
                assert_eq!(c.time_unit, 30.0);
            }
            ProtocolParams::Epidemic | ProtocolParams::Direct | ProtocolParams::FirstContact => {}
        }
    }
}

/// Two λ values of one protocol occupy distinct `ScenarioKey`s (cell keys),
/// share the underlying scenario build, and produce bit-identical records
/// under 1 vs 8 worker threads.
/// Every parameter enters the cell key: for each family, a spec that
/// differs from the paper spec in one key alone (each family key, `ttl`
/// and `buffer`) has its own `cache_key`, distinct from the paper spec's
/// and from every other variant's. The result store serves records by cell
/// key, so a parameter missing from it would serve one variant's record for
/// another.
#[test]
fn every_parameter_enters_the_cache_key() {
    // Values tried in order; the first that parses and changes the spec is
    // the variant.
    const VALUES: [&str; 9] = [
        "7", "3", "0.5", "0.75", "mean", "lrv", "2..12", "source", "binary",
    ];
    let mut keys = std::collections::HashMap::new();
    for kind in ProtocolKind::ALL {
        let paper = ProtocolSpec::paper(kind);
        keys.insert(paper.cache_key(), paper.to_string());
        for key in kind.param_keys().iter().chain(&["ttl", "buffer"]) {
            let variant = VALUES
                .iter()
                .filter_map(|v| ProtocolSpec::parse(&format!("{}:{key}={v}", kind.key())).ok())
                .find(|spec| *spec != paper)
                .unwrap_or_else(|| panic!("no variant of {} in `{key}`", kind.key()));
            let shown = variant.to_string();
            if let Some(other) = keys.insert(variant.cache_key(), shown.clone()) {
                panic!(
                    "`{shown}` and `{other}` share the cell key {}",
                    variant.cache_key()
                );
            }
        }
    }
    let variants: usize = ProtocolKind::ALL
        .iter()
        .map(|kind| kind.param_keys().len() + 2)
        .sum();
    assert_eq!(keys.len(), ProtocolKind::ALL.len() + variants);
    assert_eq!(
        keys.len(),
        59,
        "10 paper specs and 49 one-parameter variants"
    );
}

#[test]
fn lambda_variants_key_distinctly_and_stay_thread_invariant() {
    let lo = RunSpec::new(
        "eer:lambda=4",
        8,
        ProtocolSpec::parse("eer:lambda=4").unwrap(),
    )
    .with_duration(1_200.0);
    let hi = RunSpec::new(
        "eer:lambda=16",
        8,
        ProtocolSpec::parse("eer:lambda=16").unwrap(),
    )
    .with_duration(1_200.0);

    // Distinct cells, stable identity, and the scenario part alone would
    // collide — the protocol encoding is what separates them.
    assert_ne!(lo.cell_key(1), hi.cell_key(1));
    assert_eq!(lo.cell_key(1), lo.cell_key(1));
    assert_ne!(lo.cell_key(1), lo.cell_key(2), "seed is part of the key");

    let specs = vec![lo, hi];
    let run = |threads: usize, cache: &ScenarioCache| {
        run_matrix_records(
            cache,
            &specs,
            SweepConfig {
                seeds: 2,
                threads,
                verbose: false,
            },
        )
    };
    let cache = ScenarioCache::new();
    let single = run(1, &cache);
    // Both λ variants run on the *identical* contact process: one scenario
    // build per seed, not one per (λ, seed).
    assert_eq!(cache.len(), 2, "scenario builds must be shared across λ");
    let multi = run(8, &ScenarioCache::new());
    assert_eq!(single.len(), 4, "2 specs x 2 seeds");
    for (a, b) in single.iter().zip(&multi) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.latency_sum.to_bits(), b.stats.latency_sum.to_bits());
    }
}

/// A spec-level TTL override reaches the simulation: shorter lifetimes mean
/// TTL drops appear and delivery cannot improve.
#[test]
fn ttl_override_shapes_the_run() {
    let cache = ScenarioCache::new();
    let base = RunSpec::new("eer", 8, ProtocolSpec::parse("eer").unwrap()).with_duration(1_500.0);
    let short = RunSpec::new("eer:ttl=90", 8, ProtocolSpec::parse("eer:ttl=90").unwrap())
        .with_duration(1_500.0);
    let a = dtn_bench::run_cell(&cache, &base, 1).unwrap().output.stats;
    let b = dtn_bench::run_cell(&cache, &short, 1).unwrap().output.stats;
    assert_eq!(cache.len(), 1, "same scenario serves both TTL variants");
    assert!(
        b.delivered <= a.delivered,
        "a 90 s TTL cannot beat the paper's 20 min TTL"
    );
    assert!(b.drops_ttl >= a.drops_ttl);
}
