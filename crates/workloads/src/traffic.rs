//! Adversarial pseudo-random all-pairs traffic.
//!
//! Every step, each rank derives a permutation of the ranks from the
//! shared seed and the round number, sends a payload along the
//! permutation, and receives from its inverse — so the pattern is globally
//! matched, deterministic, and different every round. Payload sizes vary
//! pseudo-randomly too. This is the workload behind the consistency
//! property tests: whatever instant a checkpoint strikes, the restarted
//! run must produce the same digests.

use ompi::app::{MpiApp, StepOutcome};
use ompi::{Mpi, MpiError};

/// SplitMix64: deterministic, serializable randomness derived from state.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates permutation of `0..n` from a seed.
fn permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut rng = seed;
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Pseudo-random all-pairs traffic generator.
pub struct TrafficApp {
    /// Rounds to run.
    pub rounds: u64,
    /// Shared seed.
    pub seed: u64,
    /// Maximum payload length in bytes.
    pub max_len: usize,
}

impl Default for TrafficApp {
    fn default() -> Self {
        TrafficApp {
            rounds: 50,
            seed: 0xC0FFEE,
            max_len: 256,
        }
    }
}

/// Traffic state: progress plus an order-sensitive digest of everything
/// sent and received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficState {
    /// Completed rounds.
    pub round: u64,
    /// Digest over received bytes.
    pub recv_digest: u64,
    /// Digest over sent bytes.
    pub sent_digest: u64,
}
codec::wire_struct!(TrafficState { round, recv_digest, sent_digest });

fn digest(acc: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(acc, |a, b| a.wrapping_mul(131).wrapping_add(u64::from(*b)))
}

const TAG: u32 = 41;

impl MpiApp for TrafficApp {
    type State = TrafficState;

    fn name(&self) -> &str {
        "traffic"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<TrafficState, MpiError> {
        Ok(TrafficState {
            round: 0,
            recv_digest: 0,
            sent_digest: 0,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut TrafficState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let n = comm.size();
        if n > 1 {
            let round_seed = self.seed ^ state.round.wrapping_mul(0x9E37_79B9);
            let perm = permutation(n, round_seed);
            let dst = perm[me as usize];
            let src = perm
                .iter()
                .position(|d| *d == me)
                .expect("permutation is a bijection") as u32;

            // Deterministic payload: function of (seed, round, me).
            let mut rng = round_seed ^ u64::from(me).wrapping_mul(0x517C_C1B7);
            let len = (splitmix(&mut rng) as usize) % (self.max_len + 1);
            let payload: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();

            // Post the receive first (any round may self-send via the
            // permutation's fixed points, which must still match).
            let req = mpi.irecv(&comm, Some(src), Some(TAG))?;
            mpi.send(&comm, dst, TAG, &payload)?;
            state.sent_digest = digest(state.sent_digest, &payload);
            let (received, status): (Vec<u8>, _) = mpi.wait_recv(req)?;
            debug_assert_eq!(status.source, src);
            state.recv_digest = digest(state.recv_digest, &received);
        }
        state.round += 1;
        Ok(if state.round >= self.rounds {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

/// Invariant over a completed job: the multiset of sent payloads equals
/// the multiset of received payloads. With order-sensitive digests we can
/// still check the aggregate: the sum over ranks of sent digests is a
/// deterministic function of (n, seed, rounds), so two runs (fault-free
/// vs checkpoint/restart) must agree rank by rank on both digests.
pub fn digests_agree(a: &[TrafficState], b: &[TrafficState]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.round == y.round
                && x.recv_digest == y.recv_digest
                && x.sent_digest == y.sent_digest
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_bijective() {
        for seed in 0..20 {
            let p = permutation(9, seed);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn permutation_varies_with_seed() {
        assert_ne!(permutation(16, 1), permutation(16, 2));
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        assert_eq!(splitmix(&mut a), splitmix(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest(digest(0, b"ab"), b"cd");
        let b = digest(digest(0, b"cd"), b"ab");
        assert_ne!(a, b);
    }
}
