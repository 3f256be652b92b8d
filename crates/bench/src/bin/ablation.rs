//! Ablation studies of the reproduction's design choices, each listed
//! below — every named ablation is *data*: a grid of `(label, protocol-spec)` pairs in the same
//! `--protocol` grammar the binaries accept, swept through the shared
//! runner. There are no per-ablation protocol branches; adding an ablation
//! is adding rows to [`ABLATIONS`].
//!
//! ```text
//! cargo run -p dtn-bench --release --bin ablation -- <which> [--seeds K] [--nodes a,b,c] \
//!     [--scenario paper|rwp|trace:<path>] [--workload paper|hotspot|bursty] \
//!     [--duration SECS]
//! ```
//!
//! `<which>` ∈:
//!
//! * `alpha`     — EER sensitivity to the horizon parameter α;
//! * `ttl-aware` — TTL-conditioned EEV (EER) vs. rate EV (EBR), the paper's
//!   §I motivating comparison;
//! * `emd`       — Theorem-2 elapsed-time correction vs. plain mean
//!   intervals, and the effect of the forwarding hysteresis;
//! * `window`    — sliding-window length vs. estimator quality;
//! * `cr-state`  — EER's full-matrix gossip vs. CR's community-local gossip
//!   (control-byte overhead, the paper's §IV claim);
//! * `lambda-one` — all quota protocols degraded to a single copy;
//! * `buffer-policy` — drop-oldest vs least-remaining-value eviction under
//!   squeezed (256 KB) buffers, the paper's future-work item 1;
//! * `adaptive-lambda` — fixed vs EEV-adaptive quota, future-work item 3;
//! * `detected-communities` — CR on ground-truth vs online-detected
//!   communities, future-work item 2 (the one ablation whose axis is the
//!   community *source*, not a protocol parameter);
//! * `grid <spec>...` — an ad-hoc ablation: any protocol specs given on the
//!   command line run side-by-side as series, e.g.
//!   `ablation grid eer:lambda=4 eer:lambda=16 prophet:beta=0.25`.

use dtn_bench::report::CommonArgs;
use dtn_bench::{
    run_matrix_records_stored, ProtocolKind, ProtocolSpec, ReportSpec, RunSpec, ScenarioCache,
};

/// One named, data-driven ablation: a title and a grid of
/// `(series label, protocol spec)` pairs in the CLI grammar.
struct Ablation {
    name: &'static str,
    title: &'static str,
    grid: &'static [(&'static str, &'static str)],
}

/// Every named ablation as a `ProtocolSpec` grid. The spec strings are the
/// single source of truth; `ablation_grids_parse` (tests) guards them.
const ABLATIONS: &[Ablation] = &[
    Ablation {
        name: "alpha",
        title: "EER sensitivity to alpha",
        grid: &[
            ("alpha = 0.1", "eer:alpha=0.1"),
            ("alpha = 0.28", "eer:alpha=0.28"),
            ("alpha = 0.5", "eer:alpha=0.5"),
            ("alpha = 0.75", "eer:alpha=0.75"),
            ("alpha = 1", "eer:alpha=1"),
        ],
    },
    Ablation {
        name: "ttl-aware",
        title: "TTL-aware expected EV (EER) vs rate EV (EBR)",
        grid: &[("EER (EEV(t, a*TTL))", "eer"), ("EBR (rate EV)", "ebr")],
    },
    Ablation {
        name: "emd",
        title: "Theorem-2 EMD vs mean intervals; forwarding hysteresis",
        grid: &[
            ("T2 + hysteresis (default)", "eer"),
            ("T2, no hysteresis (paper-literal)", "eer:hysteresis=0"),
            ("mean intervals (MEED-style)", "eer:emd=mean"),
        ],
    },
    Ablation {
        name: "window",
        title: "history sliding-window length",
        grid: &[
            ("window = 4", "eer:window=4"),
            ("window = 8", "eer:window=8"),
            ("window = 16", "eer:window=16"),
            ("window = 32", "eer:window=32"),
            ("window = 64", "eer:window=64"),
        ],
    },
    Ablation {
        name: "cr-state",
        title: "routing-state gossip overhead: EER (full MI) vs CR (intra-community MI)",
        grid: &[("EER", "eer"), ("CR", "cr")],
    },
    Ablation {
        name: "buffer-policy",
        title: "buffer management under pressure (256 KB buffers): drop-oldest vs \
                least-remaining-value (future-work extension)",
        grid: &[
            ("EER drop-oldest", "eer:buffer=262144"),
            ("EER least-remaining-value", "eer:policy=lrv,buffer=262144"),
            ("Epidemic (reference)", "epidemic:buffer=262144"),
        ],
    },
    Ablation {
        name: "adaptive-lambda",
        title: "fixed quota vs EEV-adaptive quota (future-work extension)",
        grid: &[
            ("EER lambda = 10 (fixed)", "eer"),
            ("EER lambda = EEV clamp [4, 16]", "eer:adaptive=4..16"),
        ],
    },
    Ablation {
        name: "lambda-one",
        title: "quota protocols at lambda = 1 (single copy)",
        grid: &[
            ("EER", "eer:lambda=1"),
            ("CR", "cr:lambda=1"),
            ("SprayAndWait", "spraywait:lambda=1"),
            ("SprayAndFocus", "sprayfocus:lambda=1"),
        ],
    },
];

const USAGE: &str = "usage: ablation <alpha|ttl-aware|emd|window|cr-state|lambda-one|\
                     buffer-policy|adaptive-lambda|detected-communities|grid <spec>...> \
                     [--seeds K] [--nodes a,b,c] [--scenario paper|rwp|trace:<path>] \
                     [--workload paper|hotspot|bursty] [--duration SECS] \
                     [--threads N] \
                     [--store DIR|--no-store] \
                     [--out json:PATH|csv:PATH|md:PATH ...]";

/// Parses the flags shared with the figure binaries; a usage error exits 2.
fn common_args(argv: Vec<String>) -> CommonArgs {
    match CommonArgs::parse(argv.into_iter()) {
        Ok(Some(a)) => a,
        Ok(None) => unreachable!("main answers --help before any parsing"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// CR with ground-truth districts vs. CR with communities learned online by
/// the distributed SIMPLE detector (the paper's future-work item 2). Both
/// variants run through the shared runner as a plain sweep matrix — only the
/// `CommunitySource` differs, so this stays a bespoke mode rather than a
/// protocol-spec grid.
fn detected_communities(argv: Vec<String>) {
    use ce_core::{pairwise_agreement, CommunityMap};
    use dtn_bench::CommunitySource;

    let mut args = common_args(argv);
    if args.node_counts == vec![40, 80, 120, 160, 200, 240] {
        args.node_counts = vec![80, 160];
    }
    let variants = [
        ("ground truth", CommunitySource::GroundTruth),
        ("detected", CommunitySource::Detected),
    ];
    let cache = ScenarioCache::new();
    let mut specs = Vec::new();
    for (label, source) in &variants {
        for &n in &args.node_counts {
            specs.push(
                args.configure(RunSpec::on(
                    *label,
                    args.scenario_for(n),
                    ProtocolSpec::paper(ProtocolKind::Cr),
                ))
                .with_communities(source.clone()),
            );
        }
    }
    let cfg = args.sweep_config();
    let store = args.open_store();
    let mut report = ReportSpec::new("Ablation: CR with ground-truth vs detected communities");
    report.records = run_matrix_records_stored(&cache, &specs, cfg, store.as_ref());
    // Positional view, not cells(): a trace scenario ignores the node
    // count, so its per-n sweep points merge into one cell.
    let points = report.points(cfg.effective_seeds() as usize);

    // Truth-vs-detected agreement per node count, from the same cached
    // scenarios — and the same memoised detection passes — the sweep ran on.
    // Averaged over the seeds the sweep *actually* ran (effective_seeds
    // clamps `--seeds 0` to 1), so the column can never divide by zero.
    let seeds_run = cfg.effective_seeds();
    let agreements: Vec<f64> = args
        .node_counts
        .iter()
        .map(|&n| {
            (1..=u64::from(seeds_run))
                .map(|seed| {
                    let ps =
                        cache.get_spec(&args.scenario_for(n), &args.workload, seed, args.duration);
                    let truth = CommunityMap::new(ps.scenario.communities.clone());
                    pairwise_agreement(&truth, &cache.detected_communities(&ps))
                })
                .sum::<f64>()
                / f64::from(seeds_run)
        })
        .collect();

    // The agreement axis is not a per-run metric (it compares two community
    // maps, not a protocol's performance), so this table stays bespoke; the
    // file outputs below still flow through the shared pipeline.
    println!("\n{}", report.title);
    println!(
        "{:<12}{:>6}{:>11}{:>9}{:>9}{:>9}{:>12}",
        "variant", "N", "agreement", "deliv", "latency", "goodput", "ctrl MB"
    );
    let per = args.node_counts.len();
    for (vi, (label, _)) in variants.iter().enumerate() {
        for (xi, (&n, &agreement)) in args.node_counts.iter().zip(&agreements).enumerate() {
            let p = points[vi * per + xi];
            println!(
                "{label:<12}{n:>6}{agreement:>11.3}{:>9.3}{:>9.1}{:>9.4}{:>12.2}",
                p.delivery_ratio, p.latency, p.goodput, p.control_mb
            );
        }
    }
    eprintln!();
    if !report.write_all(&args.outs_or(&["csv:results/ablation_detected_communities.csv"])) {
        std::process::exit(1);
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if argv.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let which = argv.remove(0);
    if which == "detected-communities" {
        return detected_communities(argv);
    }

    // Resolve the grid: a named ablation's data, or — for `grid` — the
    // specs given on the command line (labelled by their canonical form).
    let (title, grid): (String, Vec<(String, ProtocolSpec)>) = if which == "grid" {
        let mut pairs = Vec::new();
        while let Some(first) = argv.first() {
            if first.starts_with("--") {
                break;
            }
            let raw = argv.remove(0);
            match ProtocolSpec::parse(&raw) {
                Ok(spec) => pairs.push((format!("{spec}"), spec)),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        if pairs.len() < 2 {
            eprintln!("ablation grid needs at least two protocol specs to compare");
            std::process::exit(2);
        }
        ("ad-hoc protocol grid".to_string(), pairs)
    } else {
        let Some(a) = ABLATIONS.iter().find(|a| a.name == which) else {
            eprintln!("unknown ablation {which}\n{USAGE}");
            std::process::exit(2);
        };
        let pairs = a
            .grid
            .iter()
            .map(|(label, spec)| {
                let spec = ProtocolSpec::parse(spec)
                    .unwrap_or_else(|e| panic!("invalid builtin grid entry `{spec}`: {e}"));
                (label.to_string(), spec)
            })
            .collect();
        (a.title.to_string(), pairs)
    };

    let mut args = common_args(argv);
    // Ablations default to a single mid-sized point unless overridden.
    if args.node_counts == vec![40, 80, 120, 160, 200, 240] {
        args.node_counts = vec![80, 160];
    }

    let mut specs = Vec::new();
    for (label, proto) in &grid {
        for &n in &args.node_counts {
            specs.push(args.configure(RunSpec::on(
                label.clone(),
                args.scenario_for(n),
                proto.clone(),
            )));
        }
    }
    let cfg = args.sweep_config();
    eprintln!(
        "ablation {which}: {} variants x {:?} nodes x {} seeds",
        grid.len(),
        args.node_counts,
        args.seeds
    );
    let store = args.open_store();
    let mut report = ReportSpec::new(format!("Ablation: {title}"));
    report.records = run_matrix_records_stored(&ScenarioCache::new(), &specs, cfg, store.as_ref());

    print!("{}", report.render_table());
    eprintln!();
    let default_out = format!("csv:results/ablation_{which}.csv");
    if !report.write_all(&args.outs_or(&[&default_out])) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_bench::ProtocolParams;

    /// Every builtin grid entry must parse — the grids are data, so this is
    /// the compile-time check the old hard-coded branches got for free.
    #[test]
    fn ablation_grids_parse() {
        for a in ABLATIONS {
            assert!(a.grid.len() >= 2, "{}: a grid needs >= 2 variants", a.name);
            for (label, spec) in a.grid {
                let parsed = ProtocolSpec::parse(spec)
                    .unwrap_or_else(|e| panic!("{}: `{spec}` ({label}): {e}", a.name));
                // Round-trip through the canonical form as an extra guard.
                assert_eq!(
                    ProtocolSpec::parse(&format!("{parsed}")).unwrap(),
                    parsed,
                    "{}: `{spec}` does not round-trip",
                    a.name
                );
            }
        }
    }

    /// The spec-driven grids reproduce the former hard-coded constants:
    /// spot-check the entries that used to be Rust expressions.
    #[test]
    fn grids_match_former_constants() {
        let find = |name: &str| ABLATIONS.iter().find(|a| a.name == name).unwrap();
        // buffer-policy squeezed buffers to 256 KB via RunSpec::with_buffer.
        for (_, spec) in find("buffer-policy").grid {
            let s = ProtocolSpec::parse(spec).unwrap();
            assert_eq!(s.buffer, Some(256 * 1024));
        }
        // adaptive-lambda's clamp range was (4, 16).
        let s = ProtocolSpec::parse(find("adaptive-lambda").grid[1].1).unwrap();
        match s.params {
            ProtocolParams::Eer(c) => assert_eq!(c.adaptive_lambda, Some((4, 16))),
            ref other => panic!("wrong params: {other:?}"),
        }
        // lambda-one degraded every quota protocol to a single copy.
        for (_, spec) in find("lambda-one").grid {
            let s = ProtocolSpec::parse(spec).unwrap();
            match s.params {
                ProtocolParams::Eer(c) => assert_eq!(c.lambda, 1),
                ProtocolParams::Cr(c) => assert_eq!(c.lambda, 1),
                ProtocolParams::SprayAndWait { lambda, .. } => assert_eq!(lambda, 1),
                ProtocolParams::SprayAndFocus(c) => assert_eq!(c.lambda, 1),
                ref other => panic!("unexpected family: {other:?}"),
            }
        }
    }
}
