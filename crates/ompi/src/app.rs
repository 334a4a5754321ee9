//! The resumable application model.
//!
//! Applications run as a sequence of **steps** over an explicit,
//! serializable state. The runner serializes the state at every step
//! boundary (the *boundary image*); a checkpoint captures that image plus
//! the PML's op log of the step in progress. On restart the state is the
//! boundary image and the step re-executes with the log armed: already
//! performed operations replay their recorded results, so the partial
//! step's state mutations are re-applied exactly once (see
//! [`crate::pml`]).
//!
//! The contract this imposes on applications is the standard
//! application-level checkpointing discipline:
//!
//! * a step must be **deterministic** given its state and the results of
//!   its MPI operations (derive randomness from an RNG seeded *in* the
//!   state; no wall-clock reads into state);
//! * all inter-process communication goes through the [`Mpi`] handle;
//! * long compute-only phases should call [`Mpi::progress`] so a
//!   checkpoint request is not delayed to the next step boundary.

use codec::Wire;
use parking_lot::Mutex;
use std::sync::Arc;

use cr_core::CrError;

use crate::error::MpiError;
use crate::mpi::Mpi;

/// What a step tells the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Run another step.
    Continue,
    /// The application is finished.
    Done,
}

/// A checkpointable MPI application.
pub trait MpiApp: Send + Sync + 'static {
    /// The application's explicit, serializable state.
    type State: Wire + Send + 'static;

    /// Human-readable application name (snapshot metadata, logs).
    fn name(&self) -> &str {
        "mpi-app"
    }

    /// Build the initial state. Runs once per fresh launch (never on
    /// restart). May communicate.
    fn init_state(&self, mpi: &Mpi) -> Result<Self::State, MpiError>;

    /// Execute one step. Steps are the checkpoint granularity: state is
    /// serialized at every boundary, so a step should be a meaningful unit
    /// of work (one iteration, one batch), not a single arithmetic
    /// operation.
    fn step(&self, mpi: &Mpi, state: &mut Self::State) -> Result<StepOutcome, MpiError>;
}

/// The shared cell holding the current boundary image; the container's
/// "app" capture section reads it from the notification thread.
#[derive(Clone, Default)]
pub struct BoundaryCell {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl BoundaryCell {
    /// Empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the boundary image.
    pub fn set(&self, bytes: Vec<u8>) {
        *self.bytes.lock() = bytes;
    }

    /// Current boundary image (the capture closure).
    pub fn get(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }
}

/// Why the run loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The application returned [`StepOutcome::Done`].
    Completed,
    /// The job was asked to terminate (checkpoint-and-terminate).
    Terminated,
}

/// Drive an application to completion (or cooperative termination).
///
/// `restored` carries the "app" section bytes when this process was
/// reconstructed from a snapshot.
pub fn run_app<A: MpiApp>(
    app: &A,
    mpi: &Mpi,
    boundary: &BoundaryCell,
    restored: Option<Vec<u8>>,
) -> Result<(A::State, RunEnd), MpiError> {
    let mut resuming = restored.is_some();
    let mut state: A::State = match restored {
        Some(bytes) => {
            boundary.set(bytes.clone());
            codec::from_bytes(&bytes).map_err(|e| {
                MpiError::Cr(CrError::BadSnapshot {
                    detail: format!("app section does not decode: {e}"),
                })
            })?
        }
        None => {
            let state = app.init_state(mpi)?;
            boundary.set(codec::to_bytes(&state));
            state
        }
    };

    // The checkpoint window opens only once a boundary image exists:
    // before this point a checkpoint could not describe the process.
    mpi.container().enable_checkpointing();
    if resuming {
        // Replay the partial step captured in the snapshot.
        mpi.pml().arm_replay();
    }

    loop {
        if !resuming {
            // Step boundary: ops of the finished step are accounted for by
            // the fresh boundary image; drop the log.
            mpi.pml().begin_step();
            boundary.set(codec::to_bytes(&state));
        }
        resuming = false;

        // The boundary is itself a safe point.
        mpi.container().gate().checkpoint_point();
        if mpi.should_terminate() {
            return Ok((state, RunEnd::Terminated));
        }

        match app.step(mpi, &mut state) {
            Ok(StepOutcome::Continue) => {}
            Ok(StepOutcome::Done) => {
                mpi.pml().begin_step();
                return Ok((state, RunEnd::Completed));
            }
            // A blocked operation unwound because the job is terminating
            // (checkpoint-and-terminate): not an application failure. The
            // partially-executed step's effects are irrelevant — the job's
            // durable outcome is the snapshot already on stable storage.
            Err(MpiError::Terminating) => return Ok((state, RunEnd::Terminated)),
            Err(e) => return Err(e),
        }
    }
}
