//! Bag-of-tasks master/worker workload.
//!
//! Rank 0 hands out work items; workers request work with any-source
//! receives on the master side — the wildcard-matching pattern that is
//! hardest for checkpoint consistency (a drained in-flight request must
//! match identically after restart).
//!
//! To keep steps collective (every rank finishes a step together), the
//! bag is processed in fixed-size waves: one wave per step, with a
//! closing barrier.

use ompi::app::{MpiApp, StepOutcome};
use ompi::{Mpi, MpiError};

/// Work item: collatz-style iteration count (cheap, deterministic,
/// uneven across items — classic bag-of-tasks shape).
fn work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(2_654_435_761).wrapping_add(1) | 1;
    let mut steps = 0u64;
    while x != 1 && steps < 10_000 {
        x = if x.is_multiple_of(2) { x / 2 } else { 3 * x + 1 };
        steps += 1;
    }
    steps
}

/// Bag-of-tasks with a master on rank 0.
pub struct MasterWorkerApp {
    /// Total number of tasks in the bag.
    pub tasks: u64,
    /// Tasks dispatched per step (wave).
    pub wave: u64,
}

/// Master/worker state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MwState {
    /// Next task id to dispatch.
    pub next_task: u64,
    /// Results accumulated (master: all; workers: their own contribution).
    pub total: u64,
    /// Tasks this rank completed (workers) or collected (master).
    pub completed: u64,
}
codec::wire_struct!(MwState { next_task, total, completed });

const TAG_TASK: u32 = 31;
const TAG_RESULT: u32 = 32;

impl MpiApp for MasterWorkerApp {
    type State = MwState;

    fn name(&self) -> &str {
        "master-worker"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<MwState, MpiError> {
        Ok(MwState {
            next_task: 0,
            total: 0,
            completed: 0,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut MwState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let n = comm.size();
        if n < 2 {
            // Degenerate single-process mode: master does the work itself.
            let end = (state.next_task + self.wave).min(self.tasks);
            for t in state.next_task..end {
                state.total = state.total.wrapping_add(work(t));
                state.completed += 1;
            }
            state.next_task = end;
            return Ok(if state.next_task >= self.tasks {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            });
        }

        let workers = n - 1;
        let wave_start = state.next_task;
        let wave_end = (wave_start + self.wave).min(self.tasks);

        if me == 0 {
            // Dispatch this wave round-robin, then collect results from
            // anyone, in completion order.
            let mut outstanding = 0u64;
            for t in wave_start..wave_end {
                let worker = 1 + ((t % u64::from(workers)) as u32);
                mpi.send(&comm, worker, TAG_TASK, &t)?;
                outstanding += 1;
            }
            while outstanding > 0 {
                let (result, _status): (u64, _) = mpi.recv(&comm, None, Some(TAG_RESULT))?;
                state.total = state.total.wrapping_add(result);
                state.completed += 1;
                outstanding -= 1;
            }
        } else {
            // Receive my share of the wave, compute, reply.
            let mine = (wave_start..wave_end)
                .filter(|t| 1 + ((t % u64::from(workers)) as u32) == me)
                .count();
            for _ in 0..mine {
                let (task, _): (u64, _) = mpi.recv(&comm, Some(0), Some(TAG_TASK))?;
                let result = work(task);
                state.total = state.total.wrapping_add(result);
                state.completed += 1;
                mpi.send(&comm, 0, TAG_RESULT, &result)?;
            }
        }
        state.next_task = wave_end;
        mpi.barrier(&comm)?;
        Ok(if state.next_task >= self.tasks {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

/// Fault-free reference: the master's expected total.
pub fn reference_total(tasks: u64) -> u64 {
    (0..tasks).fold(0u64, |acc, t| acc.wrapping_add(work(t)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_deterministic_and_uneven() {
        assert_eq!(work(7), work(7));
        let a = work(1);
        let b = work(2);
        let c = work(3);
        assert!(a != b || b != c, "work sizes should vary");
    }

    #[test]
    fn reference_total_accumulates() {
        assert_eq!(reference_total(0), 0);
        assert_eq!(reference_total(3), work(0).wrapping_add(work(1)).wrapping_add(work(2)));
    }
}
