//! # dtn-routing — baseline DTN routing protocols
//!
//! Implementations of the protocols the ICPP'11 paper compares against
//! (plus standard baselines), all on top of [`dtn_sim`]'s
//! [`Router`](dtn_sim::Router) API:
//!
//! | Protocol | Module | Family |
//! |---|---|---|
//! | Epidemic | [`epidemic`] | flooding |
//! | Direct delivery | [`direct`] | single copy |
//! | First contact | [`first_contact`] | single copy |
//! | PRoPHET | [`prophet`] | probabilistic replication |
//! | Spray-and-Wait | [`spray_wait`] | quota |
//! | Spray-and-Focus | [`spray_focus`] | quota + utility forwarding |
//! | EBR | [`ebr`] | quota, encounter-rate proportional |
//! | MaxProp | [`maxprop`] | flooding + likelihood priorities + acks |
//!
//! The paper's own protocols (EER and CR) live in the `ce-core` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod direct;
pub mod ebr;
pub mod epidemic;
pub mod first_contact;
pub mod maxprop;
pub mod prophet;
pub mod spray_focus;
pub mod spray_wait;
pub mod util;

pub use direct::DirectDelivery;
pub use ebr::{Ebr, EbrConfig};
pub use epidemic::Epidemic;
pub use first_contact::FirstContact;
pub use maxprop::{MaxProp, MaxPropConfig};
pub use prophet::{Prophet, ProphetConfig};
pub use spray_focus::{SprayAndFocus, SprayFocusConfig};
pub use spray_wait::SprayAndWait;

/// Re-export for convenience in router factories.
pub use dtn_sim::NodeId;

/// A boxed router-factory signature used throughout the experiment harness.
pub type RouterFactory = Box<dyn FnMut(NodeId, u32) -> Box<dyn dtn_sim::Router>>;
