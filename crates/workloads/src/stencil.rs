//! 1-D Jacobi heat diffusion with halo exchange.
//!
//! The canonical long-running HPC kernel: each rank owns a slab of a 1-D
//! rod, exchanges boundary cells with its neighbours every iteration, and
//! relaxes toward the steady state. The per-rank slab size is tunable,
//! which makes this the workload for snapshot-size scaling experiments
//! (DESIGN.md A2): the slab *is* the checkpointed state.

use ompi::app::{MpiApp, StepOutcome};
use ompi::{Mpi, MpiError};

/// Jacobi relaxation on a 1-D rod split across ranks.
pub struct StencilApp {
    /// Interior cells per rank.
    pub cells_per_rank: usize,
    /// Iterations to run.
    pub iters: u64,
    /// Fixed temperature at the left end of the rod.
    pub left_boundary: f64,
    /// Fixed temperature at the right end of the rod.
    pub right_boundary: f64,
}

impl Default for StencilApp {
    fn default() -> Self {
        StencilApp {
            cells_per_rank: 64,
            iters: 100,
            left_boundary: 100.0,
            right_boundary: 0.0,
        }
    }
}

/// Stencil state: the local slab plus progress.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilState {
    /// Completed iterations.
    pub iter: u64,
    /// Local interior cells.
    pub cells: Vec<f64>,
    /// Residual from the last iteration (global max change).
    pub residual: f64,
}
codec::wire_struct!(StencilState { iter, cells, residual });

impl MpiApp for StencilApp {
    type State = StencilState;

    fn name(&self) -> &str {
        "stencil"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<StencilState, MpiError> {
        Ok(StencilState {
            iter: 0,
            cells: vec![0.0; self.cells_per_rank],
            residual: f64::INFINITY,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut StencilState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let n = comm.size();
        const TAG_LEFT: u32 = 21; // travelling toward lower ranks
        const TAG_RIGHT: u32 = 22; // travelling toward higher ranks

        // Halo exchange: send edges, receive neighbours' edges. Non-blocking
        // receives avoid ordering deadlocks at the ends of the rod.
        
        
        let first = *state.cells.first().expect("non-empty slab");
        let last = *state.cells.last().expect("non-empty slab");

        let recv_left = if me > 0 {
            Some(mpi.irecv(&comm, Some(me - 1), Some(TAG_RIGHT))?)
        } else {
            None
        };
        let recv_right = if me + 1 < n {
            Some(mpi.irecv(&comm, Some(me + 1), Some(TAG_LEFT))?)
        } else {
            None
        };
        if me > 0 {
            mpi.send(&comm, me - 1, TAG_LEFT, &first)?;
        }
        if me + 1 < n {
            mpi.send(&comm, me + 1, TAG_RIGHT, &last)?;
        }
        let left_halo: f64 = match recv_left {
            Some(req) => mpi.wait_recv::<f64>(req)?.0,
            None => self.left_boundary,
        };
        let right_halo: f64 = match recv_right {
            Some(req) => mpi.wait_recv::<f64>(req)?.0,
            None => self.right_boundary,
        };

        // Jacobi update.
        let len = state.cells.len();
        let old = state.cells.clone();
        let mut local_residual: f64 = 0.0;
        for i in 0..len {
            let left = if i == 0 { left_halo } else { old[i - 1] };
            let right = if i + 1 == len { right_halo } else { old[i + 1] };
            let updated = 0.5 * (left + right);
            local_residual = local_residual.max((updated - old[i]).abs());
            state.cells[i] = updated;
        }

        // Global residual (allreduce max) — collective traffic every step.
        state.residual = mpi.allreduce(&comm, local_residual, f64::max)?;
        state.iter += 1;
        Ok(if state.iter >= self.iters {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

/// Single-process reference: the same physics with no MPI, for any rank
/// count (used to validate distributed runs).
pub fn reference_rod(
    nprocs: usize,
    cells_per_rank: usize,
    iters: u64,
    left_boundary: f64,
    right_boundary: f64,
) -> Vec<f64> {
    let total = nprocs * cells_per_rank;
    let mut rod = vec![0.0f64; total];
    for _ in 0..iters {
        let old = rod.clone();
        for i in 0..total {
            let left = if i == 0 { left_boundary } else { old[i - 1] };
            let right = if i + 1 == total {
                right_boundary
            } else {
                old[i + 1]
            };
            rod[i] = 0.5 * (left + right);
        }
    }
    rod
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_heats_up_from_the_left() {
        let rod = reference_rod(2, 8, 200, 100.0, 0.0);
        assert!(rod[0] > rod[15]);
        assert!(rod[0] > 50.0);
        assert!(rod[15] < 50.0);
        // Monotone non-increasing profile at convergence-ish.
        for w in rod.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn zero_iters_leaves_rod_cold() {
        let rod = reference_rod(1, 4, 0, 100.0, 0.0);
        assert_eq!(rod, vec![0.0; 4]);
    }
}
