//! The application state is encoded once per checkpoint, by the `app`
//! capture, and never at a step boundary: a rank that runs S steps and
//! is checkpointed K times encodes its state K times, whatever S is.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cr_core::request::{CheckpointOptions, CheckpointOutcome};
use ompi::app::{MpiApp, RunEnd, StepOutcome};
use ompi::{mpirun, restart, Mpi, MpiError, MpiJob, RestartOptions, RunConfig};
use ompi_cr::test_runtime;

const NPROCS: u32 = 2;

/// State encodes per rank. Only this file's one test touches it.
static ENCODES: [AtomicU64; NPROCS as usize] = [AtomicU64::new(0), AtomicU64::new(0)];

fn encodes() -> Vec<u64> {
    ENCODES.iter().map(|c| c.load(Ordering::SeqCst)).collect()
}

/// A rank number that counts every encoding of the state holding it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tally(u32);

impl codec::wire::Wire for Tally {
    fn encode_into(&self, out: &mut Vec<u8>) {
        if let Some(count) = ENCODES.get(self.0 as usize) {
            count.fetch_add(1, Ordering::SeqCst);
        }
        self.0.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> codec::Result<Self> {
        u32::decode(input).map(Tally)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CountedState {
    rank: Tally,
    step: u64,
    cells: Vec<f64>,
}
codec::wire_struct!(CountedState { rank, step, cells });

/// Runs `steps` steps. At each step in `holds`, every rank stops at the
/// top of the step, inside a safe point, until the test has taken that
/// hold's checkpoint, so every checkpoint lands at a known step.
struct Counted {
    steps: u64,
    holds: Vec<u64>,
    /// Rank arrivals at holds, summed over holds.
    arrived: AtomicUsize,
    /// Holds the test has released.
    released: AtomicUsize,
}

impl Counted {
    fn new(steps: u64, holds: Vec<u64>) -> Self {
        Counted { steps, holds, arrived: AtomicUsize::new(0), released: AtomicUsize::new(0) }
    }

    /// Take one checkpoint per hold, in order, the last with `last`;
    /// returns the last outcome.
    fn checkpoint_each_hold(
        &self,
        job: &MpiJob<CountedState>,
        last: CheckpointOptions,
    ) -> Option<CheckpointOutcome> {
        let mut outcome = None;
        for k in 0..self.holds.len() {
            while self.arrived.load(Ordering::SeqCst) < NPROCS as usize * (k + 1) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let opts =
                if k + 1 == self.holds.len() { last.clone() } else { CheckpointOptions::tool() };
            outcome = Some(job.checkpoint(&opts).unwrap());
            self.released.store(k + 1, Ordering::SeqCst);
        }
        outcome
    }
}

impl MpiApp for Counted {
    type State = CountedState;

    fn init_state(&self, mpi: &Mpi) -> Result<CountedState, MpiError> {
        Ok(CountedState { rank: Tally(mpi.rank()), step: 0, cells: vec![0.5; 1024] })
    }

    fn step(&self, mpi: &Mpi, state: &mut CountedState) -> Result<StepOutcome, MpiError> {
        if let Some(k) = self.holds.iter().position(|&h| h == state.step) {
            self.arrived.fetch_add(1, Ordering::SeqCst);
            while self.released.load(Ordering::SeqCst) <= k && !mpi.should_terminate() {
                mpi.progress();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let comm = mpi.world().clone();
        let sum = mpi.allreduce(&comm, state.step, |a, b| a + b)?;
        for cell in &mut state.cells {
            *cell += sum as f64;
        }
        state.step += 1;
        Ok(if state.step >= self.steps { StepOutcome::Done } else { StepOutcome::Continue })
    }
}

/// 60 steps with three checkpoints, the last one terminating the job;
/// then a restart that takes one more checkpoint and runs to completion.
/// Each rank encodes its state three times in the first run and once in
/// the restarted one: once per checkpoint, never per step.
#[test]
fn app_state_is_encoded_once_per_checkpoint_not_per_step() {
    let steps = 60;
    let rt = test_runtime("capture_encodes", 2);
    let first = Arc::new(Counted::new(steps, vec![10, 20, 30]));
    let job = mpirun(&rt, Arc::clone(&first), RunConfig::new(NPROCS)).unwrap();
    let last = first.checkpoint_each_hold(&job, CheckpointOptions::tool().and_terminate());
    let last = last.unwrap();
    let ends: Vec<RunEnd> = job.wait().unwrap().into_iter().map(|(_, end)| end).collect();
    assert_eq!(ends, vec![RunEnd::Terminated; NPROCS as usize]);
    assert_eq!(encodes(), vec![3; NPROCS as usize], "one encode per checkpoint per rank");

    let rt2 = test_runtime("capture_encodes_restart", 2);
    let again = Arc::new(Counted::new(steps, vec![45]));
    let opts = RestartOptions { interval: Some(last.interval), ..RestartOptions::default() };
    let job = restart(&rt2, Arc::clone(&again), &last.global_snapshot, opts).unwrap();
    again.checkpoint_each_hold(&job, CheckpointOptions::tool());
    let results = job.wait().unwrap();
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.step, steps, "rank {r}");
    }
    assert_eq!(encodes(), vec![4; NPROCS as usize], "the restart's one checkpoint adds one");
    rt.shutdown();
    rt2.shutdown();
}
