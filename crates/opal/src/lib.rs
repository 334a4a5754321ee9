//! OPAL — Open Portable Access Layer (simulated).
//!
//! In Open MPI, OPAL abstracts the local machine: event loop, process
//! utilities, and — for fault tolerance — the **CRS framework**
//! (Checkpoint/Restart Service), which turns "checkpoint this PID" into a
//! context file regardless of which single-process checkpointer is
//! installed. This crate reproduces that layer for simulated processes:
//!
//! * [`gate::SafePointGate`] — the cooperative stop/resume mechanism that
//!   stands in for BLCR's signal-based thread interruption: application
//!   threads park at *safe points* (explicit progress calls and blocking
//!   communication waits) while the checkpoint notification thread drives
//!   the INC chain.
//! * [`image::ProcessImage`] — the captured process state: named sections
//!   contributed by each subsystem (application state, point-to-point
//!   layer state, ...), serialized into a single checksummed context file.
//! * [`crs`] — the CRS framework with three components: `blcr_sim`
//!   (system-level style, no application cooperation), `self` (application
//!   callbacks, as in LAM/MPI and Open MPI), and `none` (declares the
//!   process non-checkpointable).
//! * [`store`] — the content-addressed chunk store: digest-keyed,
//!   frame-wrapped blobs with persisted refcounts, shared across ranks and
//!   intervals when `filem_dedup_enabled` is set.
//! * [`pool`] — the parallel hash/copy pool of the checkpoint data path:
//!   bounded hash workers (`opal_hash_workers`) for manifest builds,
//!   digest verification and chunk-store inserts.
//! * [`container::ProcessContainer`] — per-process control plane: the
//!   checkpoint window (enabled after `MPI_Init`, disabled at
//!   `MPI_Finalize`), capture-section registry, INC registry, and the
//!   checkpoint **notification thread** (paper §6.5).
//! * [`progress::ProgressEngine`] — the OPAL event-loop stand-in; a real
//!   subsystem that must pause around checkpoints, used to populate the
//!   OPAL slot of the INC chain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod crs;
pub mod gate;
pub mod image;
pub mod pool;
pub mod progress;
pub mod store;

pub use container::{OpalCtrl, ProcessContainer};
pub use crs::{crs_framework, CrsComponent, SelfCallbacks};
pub use store::{ChunkId, ChunkStore};
pub use gate::SafePointGate;
pub use image::ProcessImage;
pub use progress::ProgressEngine;
