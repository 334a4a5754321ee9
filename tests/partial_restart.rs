//! Tentpole acceptance for partial restart (O(failed) recovery): a rank
//! dies with its node, the runtime restores *only* that rank onto a
//! spare node from the last committed snapshot, the survivors stay live
//! while the recovery queues their logged in-flight traffic on the
//! restored rank's new endpoint, and the job finishes with the
//! fault-free answer. No survivor has to enter MPI for the recovery, and
//! a job whose survivors never do still terminates. Also covers: the
//! sender-side message log is GC'd at global commit, every refusal
//! precondition leaves the job untouched, and the recovery supervisor
//! falls back to a full restart when partial recovery refuses.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cr_core::request::CheckpointOptions;
use cr_core::{GlobalSnapshot, Rank};
use mca::McaParams;
use netsim::NodeId;
use ompi::app::{MpiApp, RunEnd, StepOutcome};
use ompi::supervisor::{run_with_recovery, RecoveryPolicy};
use ompi::{mpirun, Comm, Mpi, MpiError, MpiJob, RestartOptions, RestartSource, RunConfig};
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

/// Workload whose steps only sleep: a rank the test adds to `fail` dies
/// at its next step (once). Because the ranks never talk to each other,
/// any subset can fail on cue without the survivors blocking in a recv —
/// which the refusal test needs to stage multi-rank failure patterns —
/// and no survivor ever enters MPI. With `chat`, ranks 0 and 1 instead
/// trade one message per step, as fast as they can, and never with
/// anyone else.
#[derive(Default)]
struct FailSet {
    fail: Arc<Mutex<BTreeSet<u32>>>,
    chat: bool,
}

impl FailSet {
    /// Kill `ranks` at their next step.
    fn arm(&self, ranks: &[u32]) {
        self.fail.lock().unwrap().extend(ranks);
    }
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
        let me = mpi.rank();
        if self.fail.lock().unwrap().remove(&me) {
            return Err(MpiError::PeerLost {
                detail: "injected node failure".into(),
            });
        }
        *state += 1;
        if self.chat && me < 2 {
            let comm = mpi.world().clone();
            mpi.send(&comm, 1 - me, 7, state)?;
            let _: (u64, _) = mpi.recv(&comm, Some(1 - me), Some(7))?;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
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
    assert_eq!(tracer.count_prefix("crcp.replay.done"), 1, "one replay per recovery");
    assert_eq!(
        tracer.count_prefix("crcp.replay.resent"),
        NPROCS as usize - 1,
        "every survivor replayed its backlog"
    );
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

/// What a refused recovery must leave as it found it: the failed ranks,
/// the spare pool, every daemon it did not kill itself, and no rank
/// re-entering the restart path or replayed to.
fn assert_untouched<S: Send + 'static>(
    rt: &orte::Runtime,
    job: &MpiJob<S>,
    failed: &[usize],
    spares: usize,
    live_nodes: &[u32],
) {
    assert_eq!(job.failed_ranks(), failed, "refusals touched no live rank");
    assert_eq!(rt.spare_nodes().len(), spares, "a refused recovery keeps no spare");
    for &node in live_nodes {
        assert!(!rt.node_failed(NodeId(node)), "a refusal killed node {node}'s daemon");
    }
    let tracer = rt.tracer();
    assert_eq!(tracer.count_prefix("ompi.init.restart"), 0, "no rank was respawned");
    assert_eq!(tracer.count_prefix("crcp.replay.done"), 0, "nothing was replayed");
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
    let app = Arc::new(FailSet::default());
    let job = mpirun(
        &rt,
        Arc::clone(&app),
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

    // Node 2 (ranks 2 and 6) is lost whole. Restarting rank 2 alone
    // leaves failed rank 6 out, which is refused by name.
    app.arm(&[2, 6]);
    await_failures(&job, &[2, 6]);
    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![2]))
        .unwrap_err();
    assert!(err.to_string().contains("leaves out failed rank 6"), "{err}");
    assert_untouched(&rt, &job, &[2, 6], 2, &[0, 1, 2, 3]);

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
    assert_untouched(&rt, &job, &[2, 6], 2, &[0, 1]);

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

    // Rank 1 dies too, but its node-mate 5 survives on node 1. A node
    // is fenced whole: restarting every failed rank without rank 5 is
    // refused before anything is claimed, and leaving rank 1 out is
    // refused by name.
    app.arm(&[1]);
    await_failures(&job, &[1, 2, 6]);
    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![1, 2, 6]))
        .unwrap_err();
    assert!(err.to_string().contains("must also include rank 5"), "{err}");
    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![2, 6]))
        .unwrap_err();
    assert!(err.to_string().contains("leaves out failed rank 1"), "{err}");

    // The refusals left the job exactly as the failures did: no extra
    // rank died, none was respawned or rolled back — the app threads on
    // fenced node 3 are still live (only their daemon died).
    assert_untouched(&rt, &job, &[1, 2, 6], 2, &[0, 1]);
    job.request_terminate();
    let _ = job.wait();
    rt.shutdown();

    // Without the sender-side message log the refusal comes first and
    // claims nothing — even when the requested ranks genuinely failed.
    let rt2 = test_runtime("partial_refuse_nolog", 3);
    let params = Arc::new(McaParams::new());
    params.set("orte_spare_nodes", "1");
    let app2 = Arc::new(FailSet::default());
    let job = mpirun(
        &rt2,
        Arc::clone(&app2),
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
    app2.arm(&[1, 3]);
    await_failures(&job, &[1, 3]);
    let err = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default().with_ranks(vec![1, 3]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("crcp_msg_log_enabled"), "{err}");
    assert_untouched(&rt2, &job, &[1, 3], 1, &[0, 1]);
    job.request_terminate();
    let _ = job.wait();
    rt2.shutdown();
}

/// The two refusals that read the checkpoint history and the survivors'
/// logs leave the job untouched too: restoring an interval older than
/// the newest committed one (the survivors' logs only reach back to the
/// newest commit's quiesce), and a survivor whose log overflowed a tiny
/// `crcp_msg_log_cap_kb` since that quiesce (its backlog has a hole).
#[test]
fn stale_interval_and_overflowed_log_refusals_leave_the_job_untouched() {
    let _serial = serial();
    let rt = test_runtime("partial_refuse_log", 5);
    // Ranks 0 and 1 trade messages; rank 2, which fails, hears from
    // nobody, so no survivor's unlogged send can fail on its death.
    let app = Arc::new(FailSet { chat: true, ..Default::default() });
    let params = partial_params(1);
    params.set("crcp_msg_log_cap_kb", "1");
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: NPROCS, params }).unwrap();
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let first = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    let newest = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert!(newest.interval > first.interval);
    // Thousands of messages pass the 1 KB cap after the newest quiesce.
    std::thread::sleep(Duration::from_millis(100));
    app.arm(&[2]);
    await_failures(&job, &[2]);

    let stale = RestartOptions { interval: Some(first.interval), ..Default::default() };
    let err = job
        .restart_ranks(&newest.global_snapshot, &stale.with_ranks(vec![2]))
        .unwrap_err();
    assert!(err.to_string().contains("newest committed interval"), "{err}");
    assert_untouched(&rt, &job, &[2], 1, &[0, 1, 2, 3]);

    let err = job
        .restart_ranks(&newest.global_snapshot, &RestartOptions::default().with_ranks(vec![2]))
        .unwrap_err();
    assert!(err.to_string().contains("overflowed crcp_msg_log_cap_kb"), "{err}");
    assert!(err.to_string().contains("survivor rank 0"), "{err}");
    assert_untouched(&rt, &job, &[2], 1, &[0, 1, 2, 3]);
    job.request_terminate();
    let _ = job.wait();
    rt.shutdown();
}

/// A 4-rank token ring in which rank 1 can hold the token back while
/// rank 2 dies. Rank 2 waits for the token by polling, so it is never
/// blocked in a receive when rank 1 holds the token: once `hold` is set,
/// rank 1 keeps the next token it gets, rank 2 sees that and waits for
/// `kill` (then dies), and rank 1 forwards the token to the dead rank 2
/// once `hold` is cleared.
#[derive(Default)]
struct ForwardToDead {
    hold: AtomicBool,
    kill: AtomicBool,
    /// Rank 1 sets bit 1 once it holds the token, rank 2 bit 2 once it
    /// has seen that.
    held: AtomicU64,
    /// Rank 1 returned from its send to the dead rank 2.
    forwarded: AtomicBool,
    /// Rank 1's completed steps.
    rank1_steps: AtomicU64,
}

impl ForwardToDead {
    /// Rank 2's receive of the token: polled, and an injected node
    /// failure once rank 1 holds the token back.
    fn poll_token(&self, mpi: &Mpi, comm: &Comm, prev: u32) -> Result<u64, MpiError> {
        let req = mpi.irecv(comm, Some(prev), Some(7))?;
        loop {
            if let Some((got, _)) = mpi.test_recv(req)? {
                return Ok(got);
            }
            if self.held.load(Ordering::SeqCst) & 1 != 0 {
                self.held.fetch_or(2, Ordering::SeqCst);
                while !self.kill.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Err(MpiError::PeerLost { detail: "injected node failure".into() });
            }
            mpi.progress();
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

impl MpiApp for ForwardToDead {
    type State = u64;

    fn init_state(&self, _mpi: &Mpi) -> Result<u64, MpiError> {
        Ok(0)
    }

    fn step(&self, mpi: &Mpi, token: &mut u64) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = mpi.rank();
        let (next, prev) = ((me + 1) % NPROCS, (me + NPROCS - 1) % NPROCS);
        if me == 0 {
            mpi.send(&comm, next, 7, token)?;
        }
        let got = if me == 2 {
            self.poll_token(mpi, &comm, prev)?
        } else {
            mpi.recv::<u64>(&comm, Some(prev), Some(7))?.0
        };
        *token = got + 1;
        if me != 0 {
            let to_dead = me == 1 && self.hold.load(Ordering::SeqCst);
            if to_dead {
                self.held.fetch_or(1, Ordering::SeqCst);
                while self.hold.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            mpi.send(&comm, next, 7, token)?;
            self.forwarded.fetch_or(to_dead, Ordering::SeqCst);
        }
        if me == 1 {
            self.rank1_steps.fetch_add(1, Ordering::SeqCst);
        }
        Ok(StepOutcome::Continue)
    }
}

/// One node loss fails one rank even when a survivor's message log is
/// past its cap: rank 1's send to the dead rank 2 does not fail rank 1,
/// and the partial restart then refuses, naming rank 1's overflowed log.
#[test]
fn a_send_past_the_log_cap_to_a_dead_rank_fails_only_the_dead_rank() {
    let _serial = serial();
    let rt = test_runtime("partial_cap_dead_peer", 5);
    let app = Arc::new(ForwardToDead::default());
    let params = partial_params(1);
    params.set("crcp_msg_log_cap_kb", "1");
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: NPROCS, params }).unwrap();
    job.handle().set_partial_recovery(true);
    let laps = |n: u64| {
        while app.rank1_steps.load(Ordering::SeqCst) < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // Rank 1's second step needs a whole lap, so every rank is running.
    laps(2);
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    // Each logged token is a few bytes: 1 000 laps pass the 1 KiB cap.
    laps(app.rank1_steps.load(Ordering::SeqCst) + 1_000);
    app.hold.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(30);
    while app.held.load(Ordering::SeqCst) != 3 {
        assert!(Instant::now() < deadline, "ranks 1 and 2 never both stopped");
        std::thread::sleep(Duration::from_millis(1));
    }
    app.kill.store(true, Ordering::SeqCst);
    await_failures(&job, &[2]);
    app.hold.store(false, Ordering::SeqCst);
    while !app.forwarded.load(Ordering::SeqCst) && job.failed_ranks().len() < 2 {
        assert!(Instant::now() < deadline, "rank 1 never returned from its send");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(job.failed_ranks(), vec![2], "rank 1's send to the dead rank 2 failed rank 1");

    let err = job
        .restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![2]))
        .unwrap_err();
    assert!(err.to_string().contains("overflowed crcp_msg_log_cap_kb"), "{err}");
    assert!(err.to_string().contains("survivor rank 1's message log"), "{err}");
    assert_untouched(&rt, &job, &[2], 1, &[0, 1, 2, 3]);
    job.request_terminate();
    let _ = job.wait();
    rt.shutdown();
}

/// `MpiJob::wait` after a partial restart of a job whose survivors never
/// enter MPI (their steps only sleep) returns once the job terminates:
/// the recovery replayed their logs itself, so the restored rank waits
/// on nobody.
#[test]
fn a_partial_restart_whose_survivors_never_enter_mpi_still_terminates() {
    let _serial = serial();
    let rt = test_runtime("partial_sleepers", 5);
    let app = Arc::new(FailSet::default());
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
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    app.arm(&[2]);
    await_failures(&job, &[2]);
    rt.kill_daemon(NodeId(2));
    job.restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![2]))
        .unwrap();
    job.request_terminate();

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(job.wait().map(|results| results.len())));
    let waited = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("MpiJob::wait hung after the partial restart");
    assert_eq!(waited.unwrap(), NPROCS as usize);
    rt.shutdown();
}

/// Every rank but the sink sends the sink one value per step and never
/// receives; the sink takes one from each sender per step and folds them
/// into its sum. A sender never waits on the sink, so the test can hold
/// every sender outside MPI (at the top of its step, on `hold`) while
/// the sink is lost and restored.
struct Fan {
    sink: u32,
    rounds: u64,
    /// The sink dies at its next step (once).
    fail: AtomicBool,
    /// Senders stop at the top of their next step while this is set.
    hold: AtomicBool,
    /// Per sender: the round it is held at (`u64::MAX` while running).
    held_at: Vec<AtomicU64>,
    /// The sink's completed rounds.
    sink_round: AtomicU64,
}

const FAN_TAG: u32 = 5;

impl Fan {
    fn new(sink: u32, rounds: u64) -> Self {
        Fan {
            sink,
            rounds,
            fail: AtomicBool::new(false),
            hold: AtomicBool::new(false),
            held_at: (0..NPROCS).map(|_| AtomicU64::new(u64::MAX)).collect(),
            sink_round: AtomicU64::new(0),
        }
    }

    /// The value `src` sends in `round`.
    fn value(round: u64, src: u32) -> u64 {
        round * 100 + u64::from(src)
    }

    /// The sink's fault-free `(round, sum)`.
    fn reference(&self) -> (u64, u64) {
        let sum = (0..self.rounds).fold(0u64, |sum, round| {
            (0..NPROCS).filter(|&src| src != self.sink).fold(sum, |sum, src| {
                sum.wrapping_mul(1_000_003).wrapping_add(Self::value(round, src))
            })
        });
        (self.rounds, sum)
    }
}

impl MpiApp for Fan {
    type State = (u64, u64);

    fn name(&self) -> &str {
        "fan"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<(u64, u64), MpiError> {
        Ok((0, 0))
    }

    fn step(&self, mpi: &Mpi, state: &mut (u64, u64)) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = mpi.rank();
        let (round, sum) = state;
        if me == self.sink {
            if self.fail.swap(false, Ordering::SeqCst) {
                return Err(MpiError::PeerLost { detail: "injected node failure".into() });
            }
            for src in (0..NPROCS).filter(|&src| src != me) {
                let (value, _): (u64, _) = mpi.recv(&comm, Some(src), Some(FAN_TAG))?;
                *sum = sum.wrapping_mul(1_000_003).wrapping_add(value);
            }
            self.sink_round.store(*round + 1, Ordering::SeqCst);
        } else {
            while self.hold.load(Ordering::SeqCst) {
                self.held_at[me as usize].store(*round, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
            self.held_at[me as usize].store(u64::MAX, Ordering::SeqCst);
            mpi.send(&comm, self.sink, FAN_TAG, &Self::value(*round, me))?;
            std::thread::sleep(Duration::from_millis(1));
        }
        *round += 1;
        Ok(if *round >= self.rounds { StepOutcome::Done } else { StepOutcome::Continue })
    }
}

/// No survivor has to enter MPI for a partial restart: with every
/// sender held outside MPI from before the recovery until after
/// `restart_ranks` returns, the restored sink still receives its whole
/// backlog, and the job's answer is the fault-free one.
#[test]
fn the_restored_rank_gets_its_backlog_with_every_survivor_outside_mpi() {
    let _serial = serial();
    let rt = test_runtime("partial_held", 5);
    let app = Arc::new(Fan::new(2, 1_000));
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
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    // The sink dies; the senders keep logging what it misses until they
    // are held outside MPI.
    app.fail.store(true, Ordering::SeqCst);
    await_failures(&job, &[2]);
    app.hold.store(true, Ordering::SeqCst);
    let held = || -> Vec<u64> {
        (0..NPROCS)
            .filter(|&r| r != 2)
            .map(|r| app.held_at[r as usize].load(Ordering::SeqCst))
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while held().contains(&u64::MAX) {
        assert!(Instant::now() < deadline, "senders never held: {:?}", held());
        std::thread::sleep(Duration::from_millis(1));
    }
    let sent = held().into_iter().min().unwrap();
    rt.kill_daemon(NodeId(2));
    app.sink_round.store(0, Ordering::SeqCst);

    let sends_before = rt.tracer().count_prefix("crcp.replay.resent");
    job.restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![2]))
        .unwrap();
    assert_eq!(rt.tracer().count_prefix("crcp.replay.resent"), sends_before + 3);

    // Still held, the senders send nothing new: whatever the restored
    // sink receives up to round `sent` is their replayed backlog.
    let deadline = Instant::now() + Duration::from_secs(30);
    while app.sink_round.load(Ordering::SeqCst) < sent {
        assert!(
            Instant::now() < deadline,
            "restored sink stuck at round {} of the {sent} its senders logged",
            app.sink_round.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(held().iter().all(|&at| at != u64::MAX), "a sender was released early");
    app.hold.store(false, Ordering::SeqCst);

    let results = job.wait().unwrap();
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        if r == 2 {
            assert_eq!(*state, app.reference(), "the sink's answer");
        } else {
            assert_eq!(state.0, app.rounds, "rank {r}");
        }
    }
    rt.shutdown();
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
