//! `reportcheck` — schema validator for the JSON documents the report
//! pipeline emits (`cen-dtn.report` reports and `cen-dtn.bench`
//! trajectories like `BENCH_shootout.json`) and for TRACE/1.0 event-log
//! artifacts.
//!
//! ```text
//! cargo run -p bench --bin reportcheck -- FILE [FILE...]
//! cargo run -p bench --bin reportcheck -- trace FILE [FILE...]
//! ```
//!
//! For each JSON file it checks the schema name and version, the presence
//! of the per-record / per-cell required fields, that **every** number in
//! the document is finite (the emitters turn NaN/inf into `null`, which
//! fails here), and the probe sections' invariants — time-series counters
//! must be cumulative and agree with the record's end-of-run stats, latency
//! histogram buckets must sum to the delivery count with ordered
//! percentiles.
//!
//! `reportcheck trace FILE` validates a TRACE/1.0 artifact instead: the
//! magic and version, the header, the per-record FNV-1a hash chain, dense
//! monotone sequence numbers, the trailer record count, and the trailing
//! content fingerprint. Every failure names the file and — for chain
//! breaks — the offending sequence number.
//!
//! Exits non-zero on the first invalid file — the CI gate for
//! `shootout --out json:...`, its bench trajectory, and recorded run
//! artifacts.
//!
//! The same validation is the result store's admission rule: every entry
//! under `results/store/` is a one-record `cen-dtn.report` document, so
//! `reportcheck results/store/*/*.json` (or `dtnstore verify`, which adds
//! the layout invariant) audits the warm-sweep cache with this exact code
//! path — an entry this tool rejects is never served.

use dtn_bench::report::validate_document;
use dtn_sim::TraceReader;
use std::path::Path;

const USAGE: &str = "usage: reportcheck FILE [FILE...]
       reportcheck trace FILE [FILE...]";

fn main() {
    let mut files: Vec<String> = std::env::args().skip(1).collect();
    if files.iter().any(|f| f == "--help" || f == "-h") {
        println!("{USAGE}");
        return;
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let traces = files[0] == "trace";
    if traces {
        files.remove(0);
        if files.is_empty() {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    let mut failed = false;
    for file in &files {
        if traces {
            match TraceReader::open(Path::new(file)) {
                Ok(reader) => {
                    let meta = reader.meta();
                    println!(
                        "{file}: OK (TRACE/1.0, cell `{}`, {} records, \
                         {} nodes, end {} s, fingerprint {:#018x})",
                        meta.cell_key,
                        reader.events().len(),
                        meta.n_nodes,
                        reader.end_time().as_secs(),
                        reader.fingerprint()
                    );
                }
                Err(e) => {
                    eprintln!("{file}: INVALID: {e}");
                    failed = true;
                }
            }
            continue;
        }
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match validate_document(&text) {
            Ok(summary) => println!("{file}: OK ({summary})"),
            Err(e) => {
                eprintln!("{file}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
