//! # ce-core — contact-expectation routing (EER and CR)
//!
//! The primary contribution of *"On Using Contact Expectation for Routing in
//! Delay Tolerant Networks"* (Chen & Lou, ICPP 2011), implemented on the
//! [`dtn_sim`] substrate:
//!
//! * [`history`] — sliding-window contact histories of the met peers and
//!   the Theorem 1/2 estimators (expected encounter value, expected meeting
//!   delay);
//! * [`mi`] — the meeting-interval matrix, shared row versions and
//!   freshness-row gossip;
//! * [`memd`] — minimum expected meeting delay via a heap Dijkstra over
//!   the known edges (Theorem 3);
//! * [`community`] — community structure and the Theorem 4 ENEC estimator;
//! * [`eer`] — the Expected-Encounter-based Routing protocol (Algorithm 1);
//! * [`cr`] — the Community-based Routing protocol (Algorithms 2–4).
//!
//! ```
//! use ce_core::Eer;
//! use dtn_sim::prelude::*;
//!
//! let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
//! let wl = vec![MessageSpec {
//!     create_at: SimTime::secs(1.0),
//!     src: NodeId(0), dst: NodeId(1), size: 1000, ttl: 90.0,
//! }];
//! let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
//!     Box::new(Eer::new(id, n, 10))
//! }).run();
//! assert_eq!(stats.delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod community;
pub mod cr;
mod decision;
pub mod detect;
pub mod eer;
pub mod history;
pub mod memd;
pub mod mi;
pub mod policy;

pub use community::{CommunityId, CommunityMap};
pub use cr::{cr_factory, Cr, CrConfig};
pub use detect::{
    detect_over_trace, detected_map, pairwise_agreement, CommunityDetector, DetectorConfig,
};
pub use eer::{Eer, EerConfig, EmdMode};
pub use history::{ContactHistory, PairHistory, DEFAULT_WINDOW};
pub use mi::MiMatrix;
pub use policy::BufferPolicy;
