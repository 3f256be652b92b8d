//! # cen-dtn — contact-expectation routing for delay tolerant networks
//!
//! A complete, from-scratch Rust reproduction of *"On Using Contact
//! Expectation for Routing in Delay Tolerant Networks"* (Chen & Lou,
//! ICPP 2011): the EER and CR routing protocols, every baseline they are
//! compared against, and the full simulation stack (event-driven DTN engine,
//! map-driven bus mobility, contact-trace generation) needed to regenerate
//! the paper's evaluation.
//!
//! This crate is a facade: it re-exports the four library crates of the
//! workspace. Depend on the individual crates for finer-grained builds.
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] (`dtn-sim`) | deterministic event-driven DTN simulator |
//! | [`mobility`] (`dtn-mobility`) | road maps, bus lines, trajectories, contact traces |
//! | [`routing`] (`dtn-routing`) | Epidemic, Direct, First-Contact, PRoPHET, Spray-and-Wait/Focus, EBR, MaxProp |
//! | [`core`] (`ce-core`) | the paper's EER and CR protocols and their estimators |
//!
//! The experiment harness (crate `bench`, not re-exported here — it is a
//! binary-oriented crate) drives everything above through first-class
//! `ScenarioSpec`/`WorkloadSpec`/`ProtocolSpec` values and captures results
//! as serializable run records with multi-seed statistics
//! (`bench::report`); see `docs/ARCHITECTURE.md` for the full data flow.
//! The serializable face of a run's statistics,
//! [`StatsSnapshot`](sim::StatsSnapshot), is part of [`sim`] and this
//! facade's [`prelude`].
//!
//! ## Quickstart
//!
//! ```
//! use cen_dtn::prelude::*;
//!
//! // Build the paper's bus scenario with 16 nodes for 1200 simulated
//! // seconds, then run EER over it.
//! let scenario = ScenarioConfig::paper(16).sized(1200.0).build(7);
//! let workload = TrafficConfig::paper(1200.0).generate(16, 7);
//! let stats = Simulation::new(&scenario.trace, workload, SimConfig::paper(7), |id, n| {
//!     Box::new(Eer::new(id, n, 10))
//! })
//! .run();
//! assert!(stats.created > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ce_core as core;
pub use dtn_mobility as mobility;
pub use dtn_routing as routing;
pub use dtn_sim as sim;

/// One-stop imports for examples and downstream binaries.
pub mod prelude {
    pub use ce_core::{
        cr_factory, CommunityMap, ContactHistory, Cr, CrConfig, Eer, EerConfig, MiMatrix,
    };
    pub use dtn_mobility::scenario::{Scenario, ScenarioConfig};
    pub use dtn_mobility::{
        BusConfig, ContactGenConfig, MapConfig, Point, RoadGraph, RwpConfig, ScenarioSpec,
        Trajectory, WorkloadSpec,
    };
    pub use dtn_routing::{
        DirectDelivery, Ebr, Epidemic, FirstContact, MaxProp, Prophet, SprayAndFocus, SprayAndWait,
    };
    pub use dtn_sim::prelude::*;
}
