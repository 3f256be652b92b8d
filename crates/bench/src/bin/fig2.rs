//! Figure 2 — protocol comparison: EER, CR, EBR, MaxProp, Spray-and-Wait,
//! Spray-and-Focus vs. number of nodes (λ = 10), three panels
//! (delivery ratio / latency / goodput) — plus real delivery-over-time
//! curves from the *same* runs.
//!
//! Every cell carries a time-series probe (default cadence: 1/40 of the
//! resolved horizon; override with `--probe timeseries:dt=SECS` — other
//! `--probe` flags, e.g. `latency`, add observers without disabling the
//! curves), so a single invocation yields both the paper's end-of-run
//! panels and a delivery-ratio-over-time curve per cell, with no
//! per-x-value re-runs.
//! The curves land in `results/fig2_curves.csv`
//! (`series,n_nodes,t,delivery_ratio,overhead_ratio`).
//!
//! ```text
//! cargo run -p dtn-bench --release --bin fig2 -- [--full|--quick] [--seeds K]
//! ```

use dtn_bench::report::{panel_xs, print_series_table, settings_table, write_text, CommonArgs};
use dtn_bench::{
    run_matrix_records_stored, ProbeSpec, ProtocolKind, ProtocolSpec, ReportSpec, RunSpec,
    ScenarioCache,
};
use std::fmt::Write as _;
use std::path::Path;

fn main() {
    let args = match CommonArgs::parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", CommonArgs::USAGE);
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.print_settings {
        println!("{}", settings_table());
        return;
    }
    // Curve mode is always on: the same single run per cell that feeds the
    // end-of-run panels also produces the delivery-over-time curve, so a
    // time-series probe is appended unless the user already configured one
    // (extra `--probe` flags add observers, they don't disable the curves).
    // The default cadence gives ~40 samples over the *resolved* horizon —
    // for trace replay that is the recording's, known only after loading it.
    let cache = ScenarioCache::new();
    let mut probes = args.probes.clone();
    if !probes
        .iter()
        .any(|p| matches!(p, ProbeSpec::TimeSeries { .. }))
    {
        let scenario = args.scenario_for(args.node_counts[0]);
        let horizon = args.duration.or(scenario.default_duration());
        let horizon = horizon.unwrap_or_else(|| {
            // The sweep shares this cache, so the build is not wasted.
            match cache.try_get_spec(&scenario, &args.workload, 1, None) {
                Ok(ps) => ps.scenario.trace.duration,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        });
        probes.push(ProbeSpec::TimeSeries {
            dt: (horizon / 40.0).max(1.0),
        });
    }
    let mut specs = Vec::new();
    for kind in ProtocolKind::FIG2 {
        for &n in &args.node_counts {
            // `configure` applies the shared flags; the curve-mode default
            // probe set (possibly augmented above) then overrides `--probe`.
            let spec = args
                .configure(RunSpec::on(
                    kind.name().to_string(),
                    args.scenario_for(n),
                    ProtocolSpec::paper(kind).with_lambda(10),
                ))
                .with_probes(probes.clone());
            specs.push(spec);
        }
    }
    let cfg = args.sweep_config();
    eprintln!(
        "fig2: {} protocols x {} node counts x {} seeds",
        ProtocolKind::FIG2.len(),
        args.node_counts.len(),
        args.seeds
    );
    let store = args.open_store();
    let mut report = ReportSpec::new("Figure 2: performance comparison (lambda = 10)");
    report.records = run_matrix_records_stored(&cache, &specs, cfg, store.as_ref());

    // The paper's three-panel view: one summary per spec (protocol-major
    // spec order), each column labelled with the node count its cells ran
    // at.
    let spec_cells = report.spec_cells(cfg.effective_seeds() as usize);
    let xs = panel_xs(&spec_cells, args.node_counts.len());
    print!("{}", print_series_table(&report.title, &xs, &spec_cells));
    eprintln!();

    // Delivery-over-time curves, aggregated across seeds per cell — derived
    // from the runs above, not from re-running anything.
    let mut curves = String::from("series,n_nodes,t,delivery_ratio,overhead_ratio\n");
    let mut curve_cells = 0usize;
    for cell in report.cells() {
        let Some(ts) = &cell.timeseries else { continue };
        curve_cells += 1;
        for p in &ts.points {
            let _ = writeln!(
                curves,
                "{},{},{},{:.6},{:.6}",
                cell.series, cell.n_nodes, p.t, p.delivery_ratio.mean, p.overhead_ratio.mean
            );
        }
    }
    let curves_path = Path::new("results/fig2_curves.csv");
    if curve_cells > 0 {
        match write_text(curves_path, &curves) {
            Ok(()) => eprintln!(
                "wrote {} ({curve_cells} delivery-over-time curves from single runs)",
                curves_path.display()
            ),
            Err(e) => {
                eprintln!("curve output failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if !report.write_all(&args.outs_or(&["csv:results/fig2.csv"])) {
        std::process::exit(1);
    }
}
