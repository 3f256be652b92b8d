//! # dtn-mobility — map-driven mobility and contact-trace generation
//!
//! The mobility substrate for the ICPP'11 contact-expectation reproduction.
//! It stands in for the ONE simulator's movement models and downtown-Helsinki
//! map data:
//!
//! * [`graph`]/[`mapgen`] — road networks and a synthetic downtown generator;
//! * [`path`] — shortest paths on the map;
//! * [`routes`] — closed bus lines and bus trajectories (the paper's
//!   vehicular map-driven model);
//! * [`rwp`] — random waypoint, as a memoryless baseline;
//! * [`trajectory`] — piecewise-linear trajectories shared by all models;
//! * [`contacts`] — contact detection on a neighbour list rebuilt from a
//!   flat grid, incremental ([`ContactStepper`]) or producing a whole
//!   [`dtn_sim::ContactTrace`];
//! * [`stream`] — [`MobilityContactSource`], the streaming
//!   [`dtn_sim::ContactSource`] that feeds the engine window-by-window;
//! * [`shard`] — [`ShardedContactSource`], the same stream scanned by a
//!   worker pool, bit-identical at every thread count;
//! * [`scenario`] — one-call scenario builders with community ground truth;
//! * [`spec`] — first-class [`ScenarioSpec`]/[`WorkloadSpec`] values that
//!   make scenario families and workloads cacheable and sweepable.
//!
//! ```
//! use dtn_mobility::scenario::ScenarioConfig;
//!
//! let scenario = ScenarioConfig::small(8, 300.0).build(42);
//! assert_eq!(scenario.trace.n_nodes, 8);
//! assert!(scenario.trace.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod contacts;
pub mod geometry;
pub mod graph;
pub mod mapgen;
pub mod path;
pub mod routes;
pub mod rwp;
pub mod scenario;
pub mod shard;
pub mod spec;
pub mod spmbm;
pub mod stream;
pub mod svg;
pub mod trajectory;

pub use contacts::{generate_trace, ContactGenConfig, ContactStepper};
pub use geometry::{Point, Rect};
pub use graph::{RoadGraph, RoadGraphBuilder, VertexId};
pub use mapgen::MapConfig;
pub use path::PathFinder;
pub use routes::{BusConfig, BusRoute};
pub use rwp::RwpConfig;
pub use scenario::{Scenario, ScenarioConfig, ScenarioParts};
pub use shard::ShardedContactSource;
pub use spec::{ScenarioSpec, StreamScenario, TraceSource, WorkloadSpec};
pub use spmbm::SpmbmConfig;
pub use stream::MobilityContactSource;
pub use svg::SvgScene;
pub use trajectory::{Trajectory, TrajectoryCursor};
