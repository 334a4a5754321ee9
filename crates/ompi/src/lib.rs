//! OMPI — the MPI layer (simulated), plus the CRCP framework.
//!
//! This crate provides the MPI-1-style programming interface the paper's
//! applications use (point-to-point, communicators, collectives layered
//! over point-to-point), and the checkpoint/restart machinery that lives
//! at the MPI layer:
//!
//! * [`pml`] — the Point-to-point Management Layer: matching, ordered
//!   reliable delivery over the simulated fabric, non-blocking requests,
//!   and the **op log** that makes partially-executed application steps
//!   replayable after a restart (our substitute for BLCR's native stack
//!   capture — see DESIGN.md).
//! * [`crcp`] — the Checkpoint/Restart Coordination Protocol framework,
//!   interposed on every PML send as a wrapper (paper §6.3): `coord`
//!   (LAM/MPI-style bookmark exchange operating on whole messages, plus
//!   the partial-restart message log) and `none` (passthrough, used to
//!   measure the interposition overhead of §7).
//! * [`comm`] + [`coll`] — communicators and collectives layered over
//!   point-to-point.
//! * [`mpi`] — the typed per-process MPI handle ([`mpi::Mpi`]).
//! * [`app`] — the resumable application model ([`app::MpiApp`]) and its
//!   step runner with boundary-state capture.
//! * [`init`] — `MPI_Init`/`MPI_Finalize` equivalents, the `mpirun`-style
//!   launcher, and restart from a global snapshot reference (each rank's
//!   local snapshot decoded where it lives, in peer memory or on stable
//!   storage).
//! * [`supervisor`] — automatic, transparent recovery (the paper's §8
//!   future-work item): periodic checkpoints, failure watchdog, restart
//!   from the last snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod coll;
pub mod comm;
pub mod crcp;
pub mod error;
pub mod frame;
pub mod init;
pub mod mpi;
pub mod pml;
pub mod supervisor;

pub use app::{MpiApp, StepOutcome};
pub use comm::Comm;
pub use error::MpiError;
pub use init::{mpirun, restart, MpiJob, RestartOptions, RestartSource, RunConfig};
pub use mpi::Mpi;
