//! `dtnstore` — maintenance for the persistent content-addressed result
//! store (see `dtn_bench::store`).
//!
//! ```text
//! dtnstore <stats|verify|gc --max-bytes N> [--store DIR]
//! ```
//!
//! * `stats`  — entry count and payload bytes.
//! * `verify` — re-admit every entry through the full `reportcheck`
//!   validation plus the layout invariant (each entry must live at the path
//!   its record's cell key hashes to); exits nonzero when any entry fails.
//!   A failing entry is harmless at sweep time — admission makes it a miss,
//!   recomputed and republished — but `verify` names it now.
//! * `gc`     — evict least-recently-accessed entries until the payload is
//!   at most `--max-bytes` (atime, falling back to mtime).

use dtn_bench::report::CommonArgs;
use dtn_bench::{CellStore, DEFAULT_STORE_ROOT};
use std::path::Path;

const USAGE: &str = "usage: dtnstore <command> [--store DIR]

  stats                 entry count and payload bytes
  verify                validate every entry (reportcheck admission + layout);
                        exit 1 when any entry fails
  gc --max-bytes N      evict least-recently-accessed entries until the
                        payload is at most N bytes

  --store DIR           store root (default results/store)";

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
    let command = argv.remove(0);

    let mut root = DEFAULT_STORE_ROOT.to_string();
    let mut max_bytes: Option<u64> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--store" => root = val("--store"),
            "--max-bytes" => match CommonArgs::parse_number("--max-bytes", &val("--max-bytes")) {
                Ok(v) => max_bytes = Some(v),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let store = match CellStore::open(Path::new(&root)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    match command.as_str() {
        "stats" => {
            let s = store.stats();
            println!(
                "{}: {} entr{}, {} bytes",
                store.root().display(),
                s.entries,
                if s.entries == 1 { "y" } else { "ies" },
                s.bytes
            );
        }
        "verify" => {
            let failures = store.verify();
            let total = store.stats().entries;
            if failures.is_empty() {
                println!(
                    "{}: {total} entr{} OK",
                    store.root().display(),
                    if total == 1 { "y" } else { "ies" }
                );
            } else {
                for (path, reason) in &failures {
                    eprintln!("FAIL {}: {reason}", path.display());
                }
                eprintln!("{} of {total} entries failed verification", failures.len());
                std::process::exit(1);
            }
        }
        "gc" => {
            let Some(max) = max_bytes else {
                eprintln!("gc needs --max-bytes N\n{USAGE}");
                std::process::exit(2);
            };
            let out = store.gc(max);
            println!(
                "{}: evicted {} entr{} ({} bytes), {} bytes remain",
                store.root().display(),
                out.evicted,
                if out.evicted == 1 { "y" } else { "ies" },
                out.freed_bytes,
                out.remaining_bytes
            );
        }
        other => {
            eprintln!("unknown command {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
