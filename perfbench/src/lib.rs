//! # perfbench — end-to-end and per-layer benchmark of cen-dtn
//!
//! The benchmark drives the workspace only through its public Rust API.
//! A run of a named [`Workload`] repeats passes for a fixed time, each pass
//! in a fresh process (see `src/main.rs`):
//!
//! * an **untraced pass** goes through the `dtn_bench::runner` entry points
//!   that `dtnrun` and `fig2` use, and yields the end-to-end numbers
//!   (`setup_s`, `run_s`, `peak_rss_mb`);
//! * a **traced pass** rebuilds every cell from the public layer functions
//!   (`ScenarioSpec::build`, `WorkloadSpec::generate`,
//!   `ProtocolSpec::make_router`, `Simulation::from_source`, `CellStore`,
//!   `Json::parse`) with timing decorators around `Router`, `ContactSource`
//!   and `SimObserver` ([`trace`]), and yields the per-layer numbers.
//!
//! Every pass is checked: each cell's output [`digest`] must match the
//! committed value for the default seed, every other pass of the run, the
//! untraced twin of a traced cell, and — for served cells — the cold record.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod digest;
pub mod layers;
pub mod trace;
pub mod workload;

pub use workload::{CellResult, Pass, Workload};

/// The seed whose cell digests are committed in `digests.tsv`.
pub const DEFAULT_SEED: u64 = 1;

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`, …) in MB (2²⁰
/// bytes); `0.0` where the field is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The arithmetic mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median of `values` (mean of the middle two for even counts); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
