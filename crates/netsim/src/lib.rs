//! Simulated cluster fabric.
//!
//! The paper's testbed is a Linux cluster of dual-Opteron nodes on gigabit
//! ethernet / InfiniBand. We have no cluster, so this crate provides the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * a [`Topology`] of named nodes joined by links with
//!   configurable latency and bandwidth,
//! * a [`Fabric`] giving *real* (thread-to-thread) reliable,
//!   per-sender-ordered message delivery between registered endpoints, and
//! * a virtual-time **cost model** ([`SimTime`]): every
//!   delivery reports the simulated wire time `latency + bytes/bandwidth`,
//!   so benchmarks can report cluster-shaped numbers while tests run at
//!   memory speed.
//!
//! Failure injection ([`Fabric::kill`]) models process
//! death: senders observe peer-unreachable errors and receivers' queues
//! drain then disconnect — the raw material for restart experiments.
//!
//! Everything higher up (OOB daemon traffic in ORTE, the PML point-to-point
//! layer in OMPI, FILEM file movement costs) runs over this one fabric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fabric;
pub mod stats;
pub mod time;
pub mod topology;

pub use error::NetError;
pub use fabric::{Delivery, Endpoint, EndpointId, Fabric, LinkMeter, LinkSlot, NetView};
pub use stats::FabricStats;
pub use time::SimTime;
pub use topology::{LinkSpec, NodeId, Topology};
