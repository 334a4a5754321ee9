//! Tentpole acceptance for partial restart (O(failed) recovery): a rank
//! dies with its node, the runtime restores *only* that rank onto a
//! spare node from the last committed snapshot, the survivors stay live
//! and replay the logged in-flight traffic over the
//! `ReplayBegin`/`ReplayDone` handshake, and the job finishes with the
//! fault-free answer. Also covers: the sender-side message log is GC'd
//! at global commit, every refusal precondition leaves the job
//! untouched, and the recovery supervisor falls back to a full restart
//! when partial recovery refuses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_core::request::CheckpointOptions;
use cr_core::{GlobalSnapshot, Rank};
use mca::McaParams;
use netsim::NodeId;
use ompi::app::{MpiApp, RunEnd, StepOutcome};
use ompi::supervisor::{run_with_recovery, RecoveryPolicy};
use ompi::{mpirun, Mpi, MpiError, MpiJob, RestartOptions, RestartSource, RunConfig};
use ompi_cr::test_runtime;
use proptest::prelude::*;
use workloads::ring::{reference_checksums, RingApp, RingState};

const NPROCS: u32 = 4;

/// Each test spins multi-rank jobs; running them concurrently on a small
/// host starves the spinning ranks until OOB replies time out. Run the
/// file's tests one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Ring workload with a gated one-shot failure: once `armed` is set by
/// the test (always after a checkpoint has committed), `fail_rank` dies
/// at its next step. The restored incarnation finds the gate disarmed
/// and runs to completion.
struct GatedRing {
    inner: RingApp,
    fail_rank: u32,
    armed: Arc<AtomicBool>,
}

impl MpiApp for GatedRing {
    type State = RingState;

    fn name(&self) -> &str {
        "gated-ring"
    }

    fn init_state(&self, mpi: &Mpi) -> Result<Self::State, MpiError> {
        self.inner.init_state(mpi)
    }

    fn step(&self, mpi: &Mpi, state: &mut Self::State) -> Result<StepOutcome, MpiError> {
        if mpi.rank() == self.fail_rank && self.armed.swap(false, Ordering::SeqCst) {
            return Err(MpiError::PeerLost {
                detail: "injected node failure".into(),
            });
        }
        self.inner.step(mpi, state)
    }
}

/// Communication-free workload whose ranks in `fail` die once `armed` is
/// set. Because the ranks never talk to each other, any subset can fail
/// on cue without the survivors blocking in a recv — which the refusal
/// test needs to stage multi-rank failure patterns.
struct FailSet {
    fail: std::collections::BTreeSet<u32>,
    armed: Arc<AtomicBool>,
}

impl MpiApp for FailSet {
    type State = u64;

    fn name(&self) -> &str {
        "fail-set"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<u64, MpiError> {
        Ok(0)
    }

    fn step(&self, mpi: &Mpi, state: &mut u64) -> Result<StepOutcome, MpiError> {
        if self.armed.load(Ordering::SeqCst) && self.fail.contains(&mpi.rank()) {
            return Err(MpiError::PeerLost {
                detail: "injected node failure".into(),
            });
        }
        *state += 1;
        std::thread::sleep(Duration::from_millis(1));
        Ok(StepOutcome::Continue)
    }
}

/// MCA parameters for a partial-restart-capable job: replica file mover
/// (peer-memory images), the sender-side message log, and `spares` nodes
/// held out of placement.
fn partial_params(spares: u32) -> Arc<McaParams> {
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", "1");
    params.set("crcp_msg_log_enabled", "true");
    if spares > 0 {
        params.set("orte_spare_nodes", &spares.to_string());
    }
    params
}

/// Block until `job` reports exactly the expected failed rank.
fn await_failure(job: &MpiJob<RingState>, rank: u32) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while job.failed_ranks().is_empty() {
        assert!(
            Instant::now() < deadline,
            "injected failure of rank {rank} never reported"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(job.failed_ranks(), vec![rank as usize], "only rank {rank} fails");
}

/// Block until `job` reports exactly the expected failed ranks.
fn await_failures<S: Send + 'static>(job: &MpiJob<S>, ranks: &[usize]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while job.failed_ranks().len() < ranks.len() {
        assert!(
            Instant::now() < deadline,
            "injected failures of ranks {ranks:?} never all reported"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(job.failed_ranks(), ranks, "exactly ranks {ranks:?} fail");
}

/// The tentpole path, driven directly: checkpoint, kill rank 2 *and* its
/// node, partial-restart just that rank onto the spare, and finish.
#[test]
fn partial_restart_recovers_a_lost_node_with_survivors_live() {
    let _serial = serial();
    let rounds = 40_000;
    // 5 nodes: ranks 0-3 on nodes 0-3, node 4 held out as the spare.
    let rt = test_runtime("partial_e2e", 5);
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(GatedRing {
        inner: RingApp { rounds },
        fail_rank: 2,
        armed: Arc::clone(&armed),
    });
    let job = mpirun(
        &rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: NPROCS,
            params: partial_params(1),
        },
    )
    .unwrap();
    // Declare partial recovery before any rank can fail: with the flag
    // set, the failing rank leaves its survivors live for restart_ranks
    // instead of pulling the whole job down.
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();

    // Rank 2 dies at its next step; its node is lost with it.
    armed.store(true, Ordering::SeqCst);
    await_failure(&job, 2);
    rt.kill_daemon(NodeId(2));

    let tracer = rt.tracer();
    let launches_before = tracer.count_prefix("plm.launch");
    let outcome = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default().with_ranks(vec![2]),
        )
        .unwrap();
    assert_eq!(outcome.ranks, vec![2]);
    assert_eq!(outcome.spares, vec![NodeId(4)], "rehomed onto the held-out spare");
    assert_eq!(outcome.interval, ck.interval);
    assert!(outcome.replica_images >= 1, "image served from peer memory");
    assert_eq!(job.handle().node_of(Rank(2)), NodeId(4));

    // The job completes with the fault-free answer: the restored rank
    // caught up through the replay handshake, the survivors never rolled
    // back a single message.
    let results = job.wait().unwrap();
    let expected = reference_checksums(u64::from(NPROCS), rounds);
    assert_eq!(results.len(), NPROCS as usize);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.round, rounds, "rank {r}");
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }

    // O(failed) evidence: no whole-job relaunch happened, exactly one
    // rank re-entered the restart path, and the survivors replayed their
    // logged backlog to it.
    assert_eq!(
        tracer.count_prefix("plm.launch"),
        launches_before,
        "partial restart must not relaunch the job"
    );
    assert_eq!(
        tracer.count_prefix("ompi.init.restart"),
        1,
        "only the failed rank restarts"
    );
    assert!(tracer.count_prefix("crcp.replay.begin") >= 1, "rejoin announced");
    assert!(tracer.count_prefix("crcp.replay.resent") >= 1, "backlog replayed");
    assert!(tracer.count_prefix("orte.spare.claim") >= 1, "spare claimed");
    rt.shutdown();
}

/// A dedup interval restores a lost rank through the same one fetch batch
/// a whole-job restart uses: its image is assembled from the chunk tiers,
/// no local snapshot is preloaded, and the job still finishes with the
/// fault-free answer.
#[test]
fn partial_restart_of_a_dedup_interval_takes_one_chunk_batch() {
    let _serial = serial();
    let rounds = 40_000;
    let rt = test_runtime("partial_dedup", 5);
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(GatedRing {
        inner: RingApp { rounds },
        fail_rank: 2,
        armed: Arc::clone(&armed),
    });
    let params = partial_params(1);
    params.set("filem_dedup_enabled", "true");
    params.set("crs_incr_chunk_kb", "1");
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: NPROCS, params }).unwrap();
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    let global = GlobalSnapshot::open(&ck.global_snapshot).unwrap();
    assert!(global.chunk_manifest(ck.interval, Rank(2)).is_some());

    armed.store(true, Ordering::SeqCst);
    await_failure(&job, 2);
    rt.kill_daemon(NodeId(2));

    let tracer = rt.tracer();
    let batches = tracer.count_prefix("store.restart.fetch");
    let outcome = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default().with_ranks(vec![2]),
        )
        .unwrap();
    assert_eq!(outcome.spares, vec![NodeId(4)]);
    assert_eq!(tracer.count_prefix("store.restart.fetch"), batches + 1);
    assert_eq!(tracer.count_prefix("filem.preload"), 0);
    assert_eq!(tracer.count_prefix("filem.replica.fetch"), 0);
    assert_eq!(outcome.replica_images, 1, "chunks from the ring neighbor's memory");

    let results = job.wait().unwrap();
    let expected = reference_checksums(u64::from(NPROCS), rounds);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }
    rt.shutdown();
}

/// The supervisor's watchdog drives the same recovery transparently: the
/// job completes within one incarnation (zero full restarts).
#[test]
fn supervisor_partial_recovery_keeps_the_incarnation_alive() {
    let _serial = serial();
    let rounds = 40_000;
    let rt = test_runtime("partial_supervisor", 5);
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(GatedRing {
        inner: RingApp { rounds },
        fail_rank: 1,
        armed: Arc::clone(&armed),
    });

    // Arm the failure only once a periodic checkpoint has committed, so
    // the watchdog deterministically has a snapshot to recover from.
    let monitor = {
        let tracer = rt.tracer().clone();
        let armed = Arc::clone(&armed);
        std::thread::spawn(move || {
            // The ticker takes checkpoints sequentially, so the second
            // initiation proves the first checkpoint fully committed and
            // the supervisor holds a snapshot to recover from.
            while tracer.count_prefix("snapc.global.initiate") < 2 {
                std::thread::sleep(Duration::from_millis(5));
            }
            armed.store(true, Ordering::SeqCst);
        })
    };

    let policy = RecoveryPolicy {
        checkpoint_every: Duration::from_millis(80),
        max_restarts: 3,
        poll_every: Duration::from_millis(5),
        partial: true,
        ..Default::default()
    };
    let (results, report) = run_with_recovery(
        &rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: NPROCS,
            params: partial_params(1),
        },
        &policy,
    )
    .unwrap();
    monitor.join().unwrap();

    assert!(report.partial_restarts >= 1, "watchdog recovered in place: {report:?}");
    assert_eq!(report.restarts, 0, "no full relaunch: {report:?}");
    let tracer = rt.tracer();
    assert!(tracer.count_prefix("supervisor.partial_recover") >= 1);
    assert_eq!(
        tracer.count_prefix("supervisor.incarnation"),
        1,
        "survivors lived through the recovery"
    );
    let expected = reference_checksums(u64::from(NPROCS), rounds);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }
    // The periodic checkpoints taken after the recovery replicate around
    // the fenced node: none of them brought it back as a ring holder.
    assert!(rt.node_failed(NodeId(1)), "the lost node stays fenced");
    assert!(
        rt.daemons().iter().all(|d| d.node() != NodeId(1)),
        "no daemon was respawned on the lost node"
    );
    rt.shutdown();
}

/// The partial-restart message log is garbage-collected at global commit
/// and its per-interval footprint is recorded in the snapshot metadata.
#[test]
fn replay_log_is_gced_at_global_commit_and_recorded() {
    let _serial = serial();
    let rt = test_runtime("partial_gc", 4);
    let params = Arc::new(McaParams::new());
    params.set("crcp_msg_log_enabled", "true");
    let job = mpirun(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        RunConfig {
            nprocs: NPROCS,
            params,
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let first = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let second = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    assert_ne!(first.interval, second.interval);

    // Entries logged before the first quiesce were dropped when that
    // interval reached global commit — the log never grows unboundedly.
    assert!(
        rt.tracer().count_prefix("crcp.replay.gc") >= 1,
        "message log GC must run at global commit"
    );

    // Every rank's retained footprint is in the snapshot metadata (what
    // `ompi-snapshot-info` prints per interval).
    let global = GlobalSnapshot::open(&second.global_snapshot).unwrap();
    assert_eq!(
        global.msg_log_bytes(second.interval).len(),
        NPROCS as usize,
        "per-rank message-log accounting recorded"
    );
    rt.shutdown();
}

/// Every refusal precondition fires before any mutation of the live job,
/// in an order a caller can rely on for fallback decisions — and a
/// recovery that refuses after claiming spares hands them back.
#[test]
fn refusals_leave_the_job_untouched() {
    let _serial = serial();
    // 6 nodes, 2 spares: 8 ranks double up on usable nodes 0-3 (ranks
    // r and r+4 share node r), nodes 4 and 5 idle in the spare pool.
    let rt = test_runtime("partial_refuse", 6);
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(FailSet {
        fail: [1, 2, 6].into_iter().collect(),
        armed: Arc::clone(&armed),
    });
    let job = mpirun(
        &rt,
        app,
        RunConfig {
            nprocs: 8,
            params: partial_params(2),
        },
    )
    .unwrap();
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();

    // An empty rank set is a caller bug.
    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![]))
        .unwrap_err();
    assert!(err.to_string().contains("non-empty rank set"), "{err}");

    // So is a rank outside the job.
    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![9]))
        .unwrap_err();
    assert!(err.to_string().contains("8-rank job"), "{err}");

    // So is a rank that never failed: fencing a live rank would roll it
    // back for no reason (and join its still-running app thread).
    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![1]))
        .unwrap_err();
    assert!(err.to_string().contains("has not failed"), "{err}");

    // Ranks 1, 2 and 6 die. Node 2 (ranks 2 and 6) is lost whole; rank
    // 1's node-mate 5 survives on node 1.
    armed.store(true, Ordering::SeqCst);
    await_failures(&job, &[1, 2, 6]);

    // A node is fenced whole: restarting failed rank 1 without its live
    // node-mate is refused before anything is claimed.
    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![1]))
        .unwrap_err();
    assert!(err.to_string().contains("must also include rank 5"), "{err}");
    assert_eq!(rt.spare_nodes().len(), 2, "refusals consume no spare");

    // Rank 2's image is replicated on nodes {2, 3} (factor-1 ring); lose
    // both and a replica-only partial restart of that rank is impossible.
    // The refusal lands after the spare claim, but the lease returns the
    // node to the pool on the error path.
    rt.kill_daemon(NodeId(2));
    rt.kill_daemon(NodeId(3));
    let err = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default()
                .with_source(RestartSource::Replica)
                .with_ranks(vec![2, 6]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("no surviving replica holder"), "{err}");
    assert_eq!(
        rt.spare_nodes().len(),
        2,
        "a refused recovery hands its claimed spares back"
    );

    // Drain the pool by hand: with no spare left the claim refuses.
    let a = rt.claim_spare().unwrap();
    let b = rt.claim_spare().unwrap();
    let err = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default().with_ranks(vec![2, 6]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("no spare node available"), "{err}");
    rt.register_spare(a);
    rt.register_spare(b);

    // The refusals left the job exactly as the failures did: no extra
    // rank died, none was respawned or rolled back — the app threads on
    // fenced node 3 are still live (only their daemon died).
    assert_eq!(job.failed_ranks(), vec![1, 2, 6], "refusals touched no live rank");
    assert_eq!(
        rt.tracer().count_prefix("ompi.init.restart"),
        0,
        "no rank re-entered the restart path"
    );
    job.request_terminate();
    let _ = job.wait();
    rt.shutdown();

    // Without the sender-side message log the refusal comes first and
    // claims nothing — even when the requested ranks genuinely failed.
    let rt2 = test_runtime("partial_refuse_nolog", 3);
    let params = Arc::new(McaParams::new());
    params.set("orte_spare_nodes", "1");
    let armed2 = Arc::new(AtomicBool::new(false));
    let app2 = Arc::new(FailSet {
        fail: [1, 3].into_iter().collect(),
        armed: Arc::clone(&armed2),
    });
    let job = mpirun(
        &rt2,
        app2,
        RunConfig {
            nprocs: NPROCS,
            params,
        },
    )
    .unwrap();
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    // Node 1 (ranks 1 and 3 in the doubled-up layout) dies whole.
    armed2.store(true, Ordering::SeqCst);
    await_failures(&job, &[1, 3]);
    let err = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default().with_ranks(vec![1, 3]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("crcp_msg_log_enabled"), "{err}");
    assert_eq!(rt2.spare_nodes().len(), 1, "log refusal precedes the claim");
    job.request_terminate();
    let _ = job.wait();
    rt2.shutdown();
}

/// Without `set_partial_recovery`, a failing rank still pulls the whole
/// job down even when the message log is enabled — a plain run with the
/// log on must never hang in `wait()` waiting for a recoverer that does
/// not exist.
#[test]
fn failure_without_partial_recovery_declared_terminates_the_job() {
    let _serial = serial();
    let rt = test_runtime("partial_undeclared", 5);
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(GatedRing {
        inner: RingApp { rounds: 1_000_000 },
        fail_rank: 2,
        armed: Arc::clone(&armed),
    });
    let job = mpirun(
        &rt,
        app,
        RunConfig {
            nprocs: NPROCS,
            params: partial_params(1),
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    armed.store(true, Ordering::SeqCst);
    // The failure terminates the survivors, so wait() settles with the
    // failure — no watchdog needed.
    let err = job.wait().unwrap_err();
    assert!(err.to_string().contains("injected node failure"), "{err}");
    rt.shutdown();
}

/// When partial recovery refuses (here: no spare pool), the supervisor
/// records the refusal and falls back to the terminate-and-relaunch
/// path — the answer is still the fault-free one.
#[test]
fn supervisor_falls_back_to_full_restart_when_partial_refuses() {
    let _serial = serial();
    let rounds = 40_000;
    let rt = test_runtime("partial_fallback", 4);
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(GatedRing {
        inner: RingApp { rounds },
        fail_rank: 2,
        armed: Arc::clone(&armed),
    });
    let monitor = {
        let tracer = rt.tracer().clone();
        let armed = Arc::clone(&armed);
        std::thread::spawn(move || {
            // The ticker takes checkpoints sequentially, so the second
            // initiation proves the first checkpoint fully committed and
            // the supervisor holds a snapshot to recover from.
            while tracer.count_prefix("snapc.global.initiate") < 2 {
                std::thread::sleep(Duration::from_millis(5));
            }
            armed.store(true, Ordering::SeqCst);
        })
    };

    // Message log on, but zero spare nodes: restart_ranks must refuse.
    let params = Arc::new(McaParams::new());
    params.set("crcp_msg_log_enabled", "true");
    let policy = RecoveryPolicy {
        checkpoint_every: Duration::from_millis(80),
        max_restarts: 3,
        poll_every: Duration::from_millis(5),
        partial: true,
        ..Default::default()
    };
    let (results, report) = run_with_recovery(
        &rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: NPROCS,
            params,
        },
        &policy,
    )
    .unwrap();
    monitor.join().unwrap();

    assert_eq!(report.partial_restarts, 0, "{report:?}");
    assert!(report.restarts >= 1, "full restart fallback ran: {report:?}");
    assert!(
        rt.tracer().count_prefix("supervisor.partial_refused") >= 1,
        "the refusal is visible in the trace"
    );
    let expected = reference_checksums(u64::from(NPROCS), rounds);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        max_shrink_iters: 0, // each case is seconds; shrinking buys little
        .. ProptestConfig::default()
    })]

    /// DESIGN.md invariant: for any failed rank and any checkpoint
    /// timing, a partial restart yields byte-for-byte the fault-free
    /// answer — the same equivalence the full-restart property test
    /// (tests/prop_consistency.rs) establishes for whole-job recovery.
    #[test]
    fn partial_restart_matches_fault_free_for_any_schedule(
        fail_rank in 0u32..NPROCS,
        delay_ms in 10u64..60,
    ) {
        let _serial = serial();
        let rounds = 30_000;
        let tag = format!("partial_prop_{fail_rank}_{delay_ms}");
        let rt = test_runtime(&tag, 5);
        let armed = Arc::new(AtomicBool::new(false));
        let app = Arc::new(GatedRing {
            inner: RingApp { rounds },
            fail_rank,
            armed: Arc::clone(&armed),
        });
        let job = mpirun(
            &rt,
            Arc::clone(&app),
            RunConfig {
                nprocs: NPROCS,
                params: partial_params(1),
            },
        )
        .unwrap();
        job.handle().set_partial_recovery(true);
        std::thread::sleep(Duration::from_millis(delay_ms));
        let ck = match job.checkpoint(&CheckpointOptions::tool()) {
            Ok(o) => o,
            Err(_) => {
                // The job finished before the checkpoint landed: nothing
                // to recover for this timing, itself a valid outcome.
                job.request_terminate();
                let _ = job.wait();
                rt.shutdown();
                return Ok(());
            }
        };
        armed.store(true, Ordering::SeqCst);
        await_failure(&job, fail_rank);
        rt.kill_daemon(NodeId(fail_rank));
        let outcome = job
            .restart_ranks(
                &ck.global_snapshot,
                &RestartOptions::default().with_ranks(vec![fail_rank]),
            )
            .unwrap();
        prop_assert_eq!(outcome.ranks, vec![fail_rank]);
        let results = job.wait().unwrap();
        let expected = reference_checksums(u64::from(NPROCS), rounds);
        for (r, (state, end)) in results.iter().enumerate() {
            prop_assert_eq!(*end, RunEnd::Completed, "rank {}", r);
            prop_assert_eq!(state.checksum, expected[r], "rank {} checksum", r);
        }
        rt.shutdown();
    }
}
