//! Automatic, transparent recovery (the paper's §8 future-work item,
//! implemented in `ompi::supervisor`): a rank fails mid-run, the
//! supervisor terminates the survivors, restarts from the last periodic
//! checkpoint, and the job completes with the fault-free answer.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ompi::app::{MpiApp, RunEnd, StepOutcome};
use ompi::supervisor::{run_with_recovery, RecoveryPolicy};
use ompi::{Mpi, MpiError, RunConfig};
use ompi_cr::test_runtime;
use workloads::ring::{reference_checksums, RingApp};

/// Ring workload with one injected failure: rank `fail_rank` dies at
/// round `fail_round` — once per `armed` flag (so the recovered
/// incarnation survives).
struct FaultyRing {
    inner: RingApp,
    fail_rank: u32,
    fail_round: u64,
    armed: Arc<AtomicBool>,
    deaths: Arc<AtomicU32>,
}

impl MpiApp for FaultyRing {
    type State = workloads::ring::RingState;

    fn name(&self) -> &str {
        "faulty-ring"
    }

    fn init_state(&self, mpi: &Mpi) -> Result<Self::State, MpiError> {
        self.inner.init_state(mpi)
    }

    fn step(&self, mpi: &Mpi, state: &mut Self::State) -> Result<StepOutcome, MpiError> {
        if mpi.rank() == self.fail_rank
            && state.round == self.fail_round
            && self.armed.swap(false, Ordering::SeqCst)
        {
            self.deaths.fetch_add(1, Ordering::SeqCst);
            return Err(MpiError::PeerLost {
                detail: "injected node failure".into(),
            });
        }
        self.inner.step(mpi, state)
    }
}

#[test]
fn supervisor_recovers_from_a_rank_failure() {
    let rounds = 40_000;
    let nprocs = 4;
    let rt = test_runtime("auto_recovery", 2);
    let deaths = Arc::new(AtomicU32::new(0));
    let app = Arc::new(FaultyRing {
        inner: RingApp { rounds },
        fail_rank: 2,
        fail_round: rounds / 2,
        armed: Arc::new(AtomicBool::new(true)),
        deaths: Arc::clone(&deaths),
    });

    let policy = RecoveryPolicy {
        checkpoint_every: Duration::from_millis(60),
        max_restarts: 3,
        poll_every: Duration::from_millis(5),
        ..Default::default()
    };
    let (results, report) =
        run_with_recovery(&rt, Arc::clone(&app), RunConfig::new(nprocs), &policy).unwrap();

    // The failure actually happened and recovery actually ran.
    assert_eq!(deaths.load(Ordering::SeqCst), 1, "exactly one injected death");
    assert!(report.restarts >= 1, "at least one restart: {report:?}");
    assert!(!report.failures.is_empty());

    // And the final answer is the fault-free answer.
    let expected = reference_checksums(u64::from(nprocs), rounds);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.round, rounds, "rank {r}");
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }
    rt.shutdown();
}

#[test]
fn supervisor_without_failures_is_transparent() {
    let rounds = 3_000;
    let nprocs = 3;
    let rt = test_runtime("auto_norecover", 1);
    let app = Arc::new(RingApp { rounds });
    let policy = RecoveryPolicy {
        checkpoint_every: Duration::from_millis(30),
        max_restarts: 1,
        poll_every: Duration::from_millis(5),
        ..Default::default()
    };
    let (results, report) =
        run_with_recovery(&rt, app, RunConfig::new(nprocs), &policy).unwrap();
    assert_eq!(report.restarts, 0);
    assert!(report.failures.is_empty());
    let expected = reference_checksums(u64::from(nprocs), rounds);
    for (r, (state, _)) in results.iter().enumerate() {
        assert_eq!(state.checksum, expected[r]);
    }
    rt.shutdown();
}

#[test]
fn supervisor_gives_up_after_max_restarts() {
    // A rank that always fails: the supervisor must stop after
    // max_restarts and report every failure.
    struct AlwaysFails;

    struct NoState {
        round: u64,
    }
    codec::wire_struct!(NoState { round });

    impl MpiApp for AlwaysFails {
        type State = NoState;

        fn init_state(&self, _mpi: &Mpi) -> Result<NoState, MpiError> {
            Ok(NoState { round: 0 })
        }

        fn step(&self, mpi: &Mpi, state: &mut NoState) -> Result<StepOutcome, MpiError> {
            let comm = mpi.world().clone();
            mpi.barrier(&comm)?;
            state.round += 1;
            if mpi.rank() == 1 && state.round == 10 {
                return Err(MpiError::PeerLost {
                    detail: "chronically broken node".into(),
                });
            }
            Ok(StepOutcome::Continue)
        }
    }

    let rt = test_runtime("auto_giveup", 1);
    let policy = RecoveryPolicy {
        checkpoint_every: Duration::from_secs(3600), // never checkpoints
        max_restarts: 2,
        poll_every: Duration::from_millis(5),
        ..Default::default()
    };
    let err = match run_with_recovery(&rt, Arc::new(AlwaysFails), RunConfig::new(2), &policy) {
        Err(e) => e,
        Ok(_) => panic!("chronically failing job must not succeed"),
    };
    let msg = err.to_string();
    assert!(msg.contains("after 2 restarts"), "{msg}");
    assert!(msg.contains("chronically broken"), "{msg}");
    rt.shutdown();
}
