//! # dtn-sim — a deterministic event-driven DTN simulator
//!
//! This crate is the simulation substrate for the reproduction of
//! *"On Using Contact Expectation for Routing in Delay Tolerant Networks"*
//! (Chen & Lou, ICPP 2011). It plays the role the ONE simulator plays in the
//! paper: nodes with finite buffers meet intermittently, routing protocols
//! exchange control state and messages during contacts, and delivery ratio /
//! latency / goodput are collected.
//!
//! The crate is split along the paper's layering:
//!
//! * [`trace`] — contact traces, the interface to mobility models;
//! * [`source`] — the streaming contact supply ([`ContactSource`]):
//!   contact events pulled in windows instead of a whole-horizon trace;
//! * [`router`] — the protocol callback API ([`Router`]);
//! * [`engine`] — the discrete-event engine ([`Simulation`]);
//! * [`observe`] — the observation layer: [`SimEvent`] stream and
//!   [`SimObserver`] probes (time series, latency histograms);
//! * [`eventlog`] — durable TRACE/1.0 event-log artifacts
//!   ([`EventLogWriter`]) and re-simulation-free replay ([`TraceReader`]);
//! * [`buffer`], [`message`], [`stats`], [`event`], [`time`], [`ids`] —
//!   supporting building blocks.
//!
//! ## Quick example
//!
//! ```
//! use dtn_sim::prelude::*;
//!
//! // A toy protocol: forward only directly to the destination.
//! struct Direct;
//! impl Router for Direct {
//!     fn label(&self) -> &'static str { "direct" }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//!     fn pick_transfer(&mut self, ctx: &mut ContactCtx) -> Option<TransferPlan> {
//!         ctx.buf.iter()
//!             .find(|e| e.msg.dst == ctx.peer && !ctx.sent.contains(&e.msg.id))
//!             .map(|e| TransferPlan::forward(e.msg.id))
//!     }
//! }
//!
//! // n0 meets n1 at t=10 for 5 seconds.
//! let trace = ContactTrace::new(2, 100.0, vec![Contact::new(0, 1, 10.0, 15.0)]);
//! let workload = vec![MessageSpec {
//!     create_at: SimTime::secs(1.0),
//!     src: NodeId(0), dst: NodeId(1), size: 1000, ttl: 50.0,
//! }];
//! let sim = Simulation::new(&trace, workload, SimConfig::paper(0), |_, _| Box::new(Direct));
//! let stats = sim.run();
//! assert_eq!(stats.delivered, 1);
//! assert_eq!(stats.delivery_ratio(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod engine;
pub mod event;
pub mod eventlog;
pub mod ids;
pub mod message;
pub mod observe;
pub mod report;
pub mod router;
pub mod source;
pub mod stats;
pub mod time;
pub mod trace;

pub use buffer::{Buffer, BufferEntry, DropReason};
pub use engine::{SimConfig, Simulation};
pub use eventlog::{fnv1a, EventLogWriter, TraceMeta, TraceReader, FNV_OFFSET};
pub use ids::{MessageId, NodeId, NodePair};
pub use message::{Message, MessageArena, MessageSpec, TrafficConfig};
pub use observe::{
    LatencyHistogram, LatencyHistogramProbe, SimEvent, SimObserver, TimeSeries, TimeSeriesProbe,
    TsSample,
};
pub use router::{ContactCtx, NodeCtx, Router, SentSet, TransferAction, TransferPlan};
pub use source::{ContactEvent, ContactSource, TraceReplaySource};
pub use stats::{SimStats, StatsSnapshot};
pub use time::SimTime;
pub use trace::{Contact, ContactTrace, TraceError, TraceStats};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::buffer::{Buffer, BufferEntry, DropReason};
    pub use crate::engine::{SimConfig, Simulation};
    pub use crate::ids::{MessageId, NodeId, NodePair};
    pub use crate::message::{Message, MessageSpec, TrafficConfig};
    pub use crate::router::{ContactCtx, NodeCtx, Router, SentSet, TransferAction, TransferPlan};
    pub use crate::source::{ContactEvent, ContactSource, TraceReplaySource};
    pub use crate::stats::{SimStats, StatsSnapshot};
    pub use crate::time::SimTime;
    pub use crate::trace::{Contact, ContactTrace, TraceStats};
}
