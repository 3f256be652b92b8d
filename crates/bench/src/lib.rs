//! # dtn-bench — the experiment harness
//!
//! Regenerates every figure of the ICPP'11 contact-expectation paper plus
//! the named ablations (the `ablation` binary's module doc lists each of
//! them), and sweeps arbitrary scenario families beyond the paper's
//! bus-city. The harness
//!
//! * runs every `(spec, seed)` cell through one function,
//!   [`runner::run_cell`]: a generated scenario of at least 2 000 nodes
//!   streams its contacts window by window, every other cell replays a
//!   scenario built (and memoised) once per
//!   `(ScenarioSpec, WorkloadSpec, seed, duration)` — [`RunSpec::streams`]
//!   is the one place that chooses, and both supplies are bit-identical,
//! * fans cells out over the work-stealing sweep [`fabric`], reducing
//!   results in deterministic `(point, seed)` order,
//! * prints the same series the paper plots and writes CSV files under
//!   `results/`.
//!
//! Binaries: `fig2`, `fig3`, `fig4`, `ablation` (see `--help` of each),
//! `smoke` (one-shot sanity run), `dtnrun` (single-run report / trace
//! replay), `shootout` (all protocols across scenario families in one
//! matrix), `reportcheck` (schema validator for emitted JSON and TRACE/1.0
//! event-log artifacts), `dtndiff` (drift classifier between two artifacts
//! or two reports — the CI regression gate). All of them
//! execute simulations through [`runner::run_cell`], every
//! scenario/workload is a first-class
//! [`dtn_mobility::ScenarioSpec`]/[`dtn_mobility::WorkloadSpec`] value, and
//! every protocol — family *and* tuning parameters — is a first-class
//! [`ProtocolSpec`] value with a CLI grammar
//! (`--protocol eer:lambda=8,ttl=3600`; see [`protocols`]).
//!
//! Results are first-class too: every run is captured as a
//! [`report::RunRecord`] (full spec provenance + stats + wall-clock), every
//! binary's output flows through [`report::ReportSpec`] — multi-seed
//! statistics per cell, JSON/CSV/Markdown emitters behind repeatable
//! `--out FORMAT:PATH` flags — and `shootout` writes a
//! `BENCH_shootout.json` trajectory so performance is tracked across
//! revisions (see [`report`]).
//!
//! Observation is first-class as well: a [`ProbeSpec`] (CLI grammar
//! `--probe timeseries:dt=60`, `--probe latency`; see [`probes`]) attaches
//! [`dtn_sim::observe`] probes to every run, so delivery-over-time curves
//! and exact latency percentiles come out of the *same single run* that
//! produces the end-of-run counters — probes never change a run's
//! [`dtn_sim::SimStats`], bit for bit.
//!
//! Runs are durable, too: `--probe eventlog[:path=P]` streams every engine
//! event into a hash-chained TRACE/1.0 artifact
//! ([`dtn_sim::EventLogWriter`]), and [`replay_artifact`] re-folds any
//! probe set over the recorded stream into a normal [`report::RunRecord`]
//! — stats and probe outputs bitwise identical to the live run — without
//! touching the engine (see [`dtn_sim::TraceReader`]).
//!
//! And runs are *memoised* across processes and revisions: the persistent
//! content-addressed result [`store`] files every computed
//! [`report::RunRecord`] under its injective cell key, so a warm re-run of
//! any matrix costs file reads instead of simulation (`--store DIR` /
//! `--no-store` on every binary; maintenance via the `dtnstore` binary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fabric;
pub mod probes;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod store;

pub use dtn_mobility::{ScenarioSpec, TraceSource, WorkloadSpec};
pub use fabric::run_indexed;
pub use probes::ProbeSpec;
pub use protocols::{ProtocolKind, ProtocolParams, ProtocolSpec};
pub use report::{
    print_series_table, CellSummary, MetricSummary, OutputSpec, ReportSpec, RunRecord,
};
pub use runner::{
    replay_artifact, run_cell, run_matrix_records, run_matrix_records_stored, run_on_observed,
    run_stream, CellRun, CommunitySource, RunOutput, RunSpec, SweepConfig,
};
pub use scenario::{BuiltScenario, ScenarioCache, ScenarioKey, DEFAULT_SCENARIO_CACHE_CAP};
pub use store::{resolve_store, CellStore, GcOutcome, StoreStats, DEFAULT_STORE_ROOT};
