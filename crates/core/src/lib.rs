//! Checkpoint/restart core: the paper's cross-cutting contribution.
//!
//! This crate holds everything the three Open MPI layers (OPAL, ORTE, OMPI)
//! and the command line tools share:
//!
//! * [`state::FtEventState`] and the [`state::FtEvent`] trait — the
//!   `int ft_event(int state)` extension every framework component
//!   implements so subsystem-specific fault-tolerance logic stays isolated
//!   (paper §5.5/§6.5).
//! * [`inc`] — Interlayer Notification Callbacks: stack-ordered callbacks,
//!   one per software layer plus an optional application callback, with the
//!   registration-returns-previous contract from the paper (§5.5).
//! * [`snapshot`] — the *local* and *global snapshot references*: named,
//!   self-describing on-disk directories that free users from tracking raw
//!   checkpointer files or remembering original `mpirun` arguments (§4).
//! * [`ids`] — job / process naming shared across layers.
//! * [`trace`] — an event tracer used by tests and benchmarks to assert the
//!   coordination orderings shown in the paper's Figures 1 and 2.
//! * [`events`] — the trace-event registry: every phase string recorded in
//!   production code, enforced by the `cr-lint` `trace-keys` rule the same
//!   way `mca::registry::KNOWN_PARAMS` backs the `mca-keys` rule.
//! * [`error`] — the common error type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod events;
pub mod ids;
pub mod inc;
pub mod request;
pub mod snapshot;
pub mod state;
pub mod trace;

pub use error::CrError;
pub use events::{is_known_event, TraceEventDef, KNOWN_TRACE_EVENTS};
pub use ids::{JobId, ProcessName, Rank};
pub use inc::IncRegistry;
pub use request::{CheckpointOptions, CheckpointOutcome, CkptStats};
pub use snapshot::{CommitState, GlobalSnapshot, IntervalRecord, LaunchRecord, LocalSnapshot};
pub use state::{FtEvent, FtEventState};
pub use trace::Tracer;
