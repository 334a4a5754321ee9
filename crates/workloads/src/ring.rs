//! Token ring workload.

use ompi::app::{MpiApp, StepOutcome};
use ompi::{Mpi, MpiError};

/// Passes an accumulating token around the ring once per step.
pub struct RingApp {
    /// Number of times the token travels the full ring.
    pub rounds: u64,
}

/// Ring state: the round counter and an order-sensitive checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingState {
    /// Completed rounds.
    pub round: u64,
    /// Order-sensitive accumulator over every token this rank handled.
    pub checksum: u64,
}
codec::wire_struct!(RingState { round, checksum });

impl MpiApp for RingApp {
    type State = RingState;

    fn name(&self) -> &str {
        "ring"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<RingState, MpiError> {
        Ok(RingState {
            round: 0,
            checksum: 0,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut RingState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let n = comm.size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        const TAG: u32 = 11;

        let handled = if n == 1 {
            state.round
        } else if me == 0 {
            mpi.send(&comm, next, TAG, &state.round)?;
            let (token, _): (u64, _) = mpi.recv(&comm, Some(prev), Some(TAG))?;
            token
        } else {
            let (token, _): (u64, _) = mpi.recv(&comm, Some(prev), Some(TAG))?;
            let forwarded = token.wrapping_mul(31).wrapping_add(u64::from(me));
            mpi.send(&comm, next, TAG, &forwarded)?;
            forwarded
        };
        state.checksum = state
            .checksum
            .wrapping_mul(1_000_003)
            .wrapping_add(handled);
        state.round += 1;
        Ok(if state.round >= self.rounds {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

/// Fault-free reference checksums, computed without any MPI machinery.
pub fn reference_checksums(nprocs: u64, rounds: u64) -> Vec<u64> {
    let mut sums = vec![0u64; nprocs as usize];
    for round in 0..rounds {
        let mut token = round;
        // Rank 0 handles the value that comes back around.
        for r in 1..nprocs {
            token = token.wrapping_mul(31).wrapping_add(r);
            sums[r as usize] = sums[r as usize].wrapping_mul(1_000_003).wrapping_add(token);
        }
        let zero_handles = if nprocs == 1 { round } else { token };
        sums[0] = sums[0].wrapping_mul(1_000_003).wrapping_add(zero_handles);
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_manual_small_case() {
        // 2 ranks, 1 round: rank 1 forwards 0*31+1 = 1; rank 0 handles 1.
        let sums = reference_checksums(2, 1);
        assert_eq!(sums, vec![1, 1]);
    }

    #[test]
    fn single_rank_reference() {
        let sums = reference_checksums(1, 3);
        // Rounds 0,1,2 chained through the accumulator.
        let expected = ((0u64
            .wrapping_mul(1_000_003)
            .wrapping_add(0))
        .wrapping_mul(1_000_003)
        .wrapping_add(1))
        .wrapping_mul(1_000_003)
        .wrapping_add(2);
        assert_eq!(sums, vec![expected]);
    }
}
