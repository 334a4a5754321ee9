//! Simulated cluster fabric: a transport, not a cost model.
//!
//! The paper's testbed is a Linux cluster of dual-Opteron nodes on gigabit
//! ethernet / InfiniBand. We have no cluster, so this crate provides the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * a [`Topology`] of named nodes, and
//! * a [`Fabric`] giving *real* (thread-to-thread) reliable,
//!   per-sender-ordered message delivery between registered endpoints.
//!
//! A message takes the time its threads take: nothing is delayed or
//! priced on the way. [`Topology::cost`] still prices a transfer on an
//! idle link as [`SimTime`], for the two figures `benchmark/` reads; it
//! goes with ROADMAP item 12.
//!
//! Failure injection ([`Fabric::kill`]) models process
//! death: senders observe peer-unreachable errors, receivers' queues
//! drain then disconnect, and endpoints that [`Fabric::watch`] the dead
//! one get a [`PEER_DOWN`] notice — the raw material for restart
//! experiments.
//!
//! Everything higher up (OOB daemon traffic in ORTE, the PML point-to-point
//! layer in OMPI) runs over this one fabric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fabric;
pub mod stats;
pub mod time;
pub mod topology;

pub use error::NetError;
pub use fabric::{Delivery, Endpoint, EndpointId, Fabric, PEER_DOWN, WAKE};
pub use stats::FabricStats;
pub use time::SimTime;
pub use topology::{LinkSpec, NodeId, Topology};
