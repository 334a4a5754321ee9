//! Application-level fault tolerance: the SELF CRS component and the
//! synchronous checkpoint API.
//!
//! The paper's design lets applications (not just external tools)
//! participate: they can register callbacks fired around checkpoint /
//! continue / restart (the SELF component, §6.4), request checkpoints
//! themselves through a common API (§1), and declare themselves
//! non-checkpointable around critical sections (§5.1). This example
//! exercises all three.
//!
//! ```text
//! cargo run --release --example self_checkpointing
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cr_core::request::CheckpointOptions;
use mca::McaParams;
use ompi::app::{MpiApp, StepOutcome};
use ompi::{mpirun, restart, Mpi, MpiError, RestartOptions, RunConfig};
use ompi_cr::test_runtime;

static CALLBACK_FIRES: AtomicU64 = AtomicU64::new(0);

/// A solver that asks for its own checkpoint every `ckpt_every` steps.
struct SelfCheckpointingApp {
    steps: u64,
    ckpt_every: u64,
}

#[derive(Debug, Clone)]
struct SolverState {
    step: u64,
    value: f64,
}
codec::wire_struct!(SolverState { step, value });

impl MpiApp for SelfCheckpointingApp {
    type State = SolverState;

    fn name(&self) -> &str {
        "self-checkpointing-solver"
    }

    fn init_state(&self, mpi: &Mpi) -> Result<SolverState, MpiError> {
        // Register SELF callbacks (they also re-register after restart via
        // the normal init path of the restarted process).
        let rank = mpi.rank();
        mpi.on_checkpoint(move || {
            CALLBACK_FIRES.fetch_add(1, Ordering::SeqCst);
            println!("  [rank {rank}] SELF on_checkpoint: flushing application buffers");
            Ok(())
        });
        mpi.on_continue(move || {
            println!("  [rank {rank}] SELF on_continue: resuming in place");
            Ok(())
        });
        Ok(SolverState {
            step: 0,
            value: 1.0,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut SolverState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();

        // A pretend critical section: mark the process non-checkpointable
        // while "talking to hardware", then re-enable.
        mpi.set_checkpointable(false);
        state.value = 0.5 * state.value + 1.0; // converges toward 2.0
        mpi.set_checkpointable(true);

        // Collective work.
        state.value = mpi.allreduce(&comm, state.value, |a, b| (a + b) / 2.0)?;
        state.step += 1;

        // Synchronous checkpoint request from inside the application:
        // rank 0 asks the runtime to checkpoint the whole job.
        if mpi.rank() == 0 && state.step.is_multiple_of(self.ckpt_every) {
            println!("  [rank 0] requesting synchronous checkpoint at step {}", state.step);
            mpi.request_checkpoint(CheckpointOptions::from_rank(0))?;
        }

        Ok(if state.step >= self.steps {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

fn main() {
    let rt = test_runtime("self_ckpt", 2);
    let app = Arc::new(SelfCheckpointingApp {
        steps: 30_000,
        ckpt_every: 10_000,
    });

    // Select the SELF CRS component so the callbacks drive checkpointing.
    let params = Arc::new(McaParams::new());
    params.set("crs", "self");

    println!("running 4 ranks with crs=self; rank 0 checkpoints every 10k steps");
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: 4, params }).expect("launch");
    let results = job.wait().expect("completes");
    let fires = CALLBACK_FIRES.load(Ordering::SeqCst);
    println!(
        "job finished: {} ranks at step {}, {} SELF checkpoint callbacks fired",
        results.len(),
        results[0].0.step,
        fires
    );
    assert!(fires > 0, "synchronous checkpoints must have fired callbacks");

    // The synchronous checkpoints left a restorable global snapshot.
    let global_ref = rt
        .stable_dir()
        .read_dir()
        .unwrap()
        .next()
        .expect("a snapshot exists")
        .unwrap()
        .path();
    println!("restarting from {} just to prove it is valid", global_ref.display());
    let rt2 = test_runtime("self_ckpt_restart", 1);
    let job = restart(&rt2, app, &global_ref, RestartOptions::default()).expect("restart");
    let results = job.wait().expect("restarted run completes");
    println!(
        "restarted run finished at step {} with value {:.6}",
        results[0].0.step, results[0].0.value
    );
    rt.shutdown();
    rt2.shutdown();
}
