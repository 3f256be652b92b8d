//! Figure 4 — effect of the quota λ ∈ {6, 8, 10, 12} on CR, three panels
//! (delivery ratio / latency / goodput) vs. number of nodes.
//!
//! ```text
//! cargo run -p dtn-bench --release --bin fig4 -- [--full|--quick] [--seeds K]
//! ```

use dtn_bench::report::{panel_xs, print_series_table, settings_table, CommonArgs};
use dtn_bench::{
    run_matrix_records_stored, ProtocolKind, ProtocolSpec, ReportSpec, RunSpec, ScenarioCache,
};

const LAMBDAS: [u32; 4] = [6, 8, 10, 12];

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
    let mut specs = Vec::new();
    for &lambda in &LAMBDAS {
        for &n in &args.node_counts {
            specs.push(args.configure(RunSpec::on(
                format!("Lambda = {lambda}"),
                args.scenario_for(n),
                ProtocolSpec::paper(ProtocolKind::Cr).with_lambda(lambda),
            )));
        }
    }
    let cfg = args.sweep_config();
    eprintln!(
        "fig4 (CR): {} lambdas x {} node counts x {} seeds",
        LAMBDAS.len(),
        args.node_counts.len(),
        args.seeds
    );
    let store = args.open_store();
    let mut report = ReportSpec::new("Figure 4: effects of lambda on CR");
    report.records = run_matrix_records_stored(&ScenarioCache::new(), &specs, cfg, store.as_ref());

    // The paper's three-panel view: one summary per spec (lambda-major
    // spec order), each column labelled with the node count its cells ran
    // at.
    let spec_cells = report.spec_cells(cfg.effective_seeds() as usize);
    let xs = panel_xs(&spec_cells, args.node_counts.len());
    print!("{}", print_series_table(&report.title, &xs, &spec_cells));
    eprintln!();
    if !report.write_all(&args.outs_or(&["csv:results/fig4.csv"])) {
        std::process::exit(1);
    }
}
