//! End-to-end smoke tests: launch, communicate, checkpoint, restart.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cr_core::request::CheckpointOptions;
use mca::McaParams;
use netsim::{LinkSpec, Topology};
use ompi::app::{MpiApp, RunEnd, StepOutcome};
use ompi::{mpirun, restart, Mpi, MpiError, RestartOptions, RunConfig};
use orte::Runtime;

fn runtime(tag: &str, nodes: u32) -> Runtime {
    let dir = std::env::temp_dir().join(format!(
        "ompi_smoke_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Runtime::new(Topology::uniform(nodes, LinkSpec::gigabit_ethernet()), dir).unwrap()
}

/// Token ring: each step passes an accumulating token around the ring.
struct RingApp {
    rounds: u64,
    hold: Option<Arc<Hold>>,
}

impl RingApp {
    fn new(rounds: u64) -> Self {
        RingApp { rounds, hold: None }
    }
}

/// A round every rank idles at — safe points open, nothing in flight —
/// until the test releases it. A checkpoint taken once every rank has
/// arrived finds the job live however fast the host runs it, so no sleep
/// decides whether it lands before `MPI_Finalize`.
struct Hold {
    at: u64,
    /// One bit per rank that has reached `at`.
    arrived: AtomicU64,
    released: AtomicBool,
}

impl Hold {
    fn at(round: u64) -> Arc<Self> {
        Arc::new(Hold {
            at: round,
            arrived: AtomicU64::new(0),
            released: AtomicBool::new(false),
        })
    }

    /// Whether `rank` at `round` must idle this step.
    fn holds(&self, rank: u32, round: u64) -> bool {
        if round != self.at || self.released.load(Ordering::SeqCst) {
            return false;
        }
        self.arrived.fetch_or(1 << rank, Ordering::SeqCst);
        std::thread::yield_now();
        true
    }

    fn wait_arrived(&self, nprocs: u32) {
        while self.arrived.load(Ordering::SeqCst).count_ones() < nprocs {
            std::thread::yield_now();
        }
    }

    fn release(&self) {
        self.released.store(true, Ordering::SeqCst);
    }
}

#[derive(Debug, Clone)]
struct RingState {
    round: u64,
    token_sum: u64,
}
codec::wire_struct!(RingState { round, token_sum });

impl MpiApp for RingApp {
    type State = RingState;

    fn name(&self) -> &str {
        "ring"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<RingState, MpiError> {
        Ok(RingState {
            round: 0,
            token_sum: 0,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut RingState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        if self.hold.as_ref().is_some_and(|h| h.holds(me, state.round)) {
            return Ok(StepOutcome::Continue);
        }
        let n = comm.size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        if me == 0 {
            mpi.send(&comm, next, 7, &(state.round * 1000))?;
            let (token, _): (u64, _) = mpi.recv(&comm, Some(prev), Some(7))?;
            state.token_sum += token;
        } else {
            let (token, _): (u64, _) = mpi.recv(&comm, Some(prev), Some(7))?;
            let forwarded = token + u64::from(me);
            mpi.send(&comm, next, 7, &forwarded)?;
            state.token_sum += forwarded;
        }
        state.round += 1;
        Ok(if state.round >= self.rounds {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

fn expected_ring_sums(nprocs: u64, rounds: u64) -> Vec<u64> {
    // Rank 0 receives round*1000 + sum(1..n); rank r accumulates
    // round*1000 + sum(1..=r) per round.
    (0..nprocs)
        .map(|r| {
            (0..rounds)
                .map(|round| {
                    let base = round * 1000;
                    if r == 0 {
                        base + (1..nprocs).sum::<u64>()
                    } else {
                        base + (1..=r).sum::<u64>()
                    }
                })
                .sum()
        })
        .collect()
}

#[test]
fn ring_runs_to_completion() {
    let rt = runtime("ring", 2);
    let job = mpirun(&rt, Arc::new(RingApp::new(10)), RunConfig::new(4)).unwrap();
    let results = job.wait().unwrap();
    assert_eq!(results.len(), 4);
    let expected = expected_ring_sums(4, 10);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed);
        assert_eq!(state.round, 10);
        assert_eq!(state.token_sum, expected[r], "rank {r}");
    }
    rt.shutdown();
}

/// `wait` on a job whose ranks are done only has threads to join: it must
/// not sit out a poll period of the sync-checkpoint service (it used to be
/// quantised to that thread's 50 ms receive timeout, 25 ms on average).
#[test]
fn wait_on_a_finished_job_returns_at_once() {
    let rt = runtime("wait", 1);
    let mut waits_ms: Vec<f64> = (0..7)
        .map(|_| {
            let job = mpirun(&rt, Arc::new(RingApp::new(1)), RunConfig::new(2)).unwrap();
            while !job.is_settled() {
                std::thread::yield_now();
            }
            let started = std::time::Instant::now();
            job.wait().unwrap();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rt.shutdown();
    // The median, so that one descheduled join on a loaded host is not a
    // failure.
    waits_ms.sort_by(f64::total_cmp);
    assert!(
        waits_ms[3] < 10.0,
        "wait() of a finished job took {waits_ms:?} ms"
    );
}

/// Checkpoint a 4-rank ring held halfway through its 2000 rounds, kill
/// it, restart it in a fresh runtime and check it ends where a fault-free
/// run does.
fn checkpoint_then_restart_reproduces_the_answer_with(tag: &str, params: Arc<McaParams>) {
    let rt = runtime(tag, 2);
    let hold = Hold::at(1000);
    let app = Arc::new(RingApp {
        rounds: 2000,
        hold: Some(Arc::clone(&hold)),
    });
    let config = RunConfig { nprocs: 4, params };
    let job = mpirun(&rt, Arc::clone(&app), config.clone()).unwrap();

    hold.wait_arrived(4);
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    hold.release();
    let terminated = job.wait().unwrap();
    assert!(terminated
        .iter()
        .any(|(_, end)| *end == RunEnd::Terminated || *end == RunEnd::Completed));

    // Fault-free reference run.
    let rt2 = runtime(&format!("{tag}_ref"), 2);
    let reference = mpirun(&rt2, Arc::clone(&app), config)
        .unwrap()
        .wait()
        .unwrap();
    rt2.shutdown();

    // Restart from the snapshot in a fresh runtime and compare.
    let rt3 = runtime(&format!("{tag}_restart"), 3);
    let job = restart(
        &rt3,
        Arc::clone(&app),
        &outcome.global_snapshot,
        RestartOptions::default(),
    )
    .unwrap();
    let restarted = job.wait().unwrap();
    assert_eq!(restarted.len(), 4);
    for (r, (state, end)) in restarted.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.round, reference[r].0.round, "rank {r} rounds");
        assert_eq!(state.token_sum, reference[r].0.token_sum, "rank {r} sum");
    }
    rt.shutdown();
    rt3.shutdown();
}

#[test]
fn checkpoint_then_restart_reproduces_the_answer() {
    checkpoint_then_restart_reproduces_the_answer_with("cr", Arc::new(McaParams::new()));
}

#[test]
fn collectives_work() {
    struct CollApp;

    #[derive(Clone)]
    struct CollState {
        phase: u32,
        sum: u64,
        gathered: Vec<u32>,
    }
    codec::wire_struct!(CollState { phase, sum, gathered });

    impl MpiApp for CollApp {
        type State = CollState;

        fn init_state(&self, _mpi: &Mpi) -> Result<CollState, MpiError> {
            Ok(CollState {
                phase: 0,
                sum: 0,
                gathered: Vec::new(),
            })
        }

        fn step(&self, mpi: &Mpi, state: &mut CollState) -> Result<StepOutcome, MpiError> {
            let comm = mpi.world().clone();
            let me = comm.rank();
            mpi.barrier(&comm)?;
            state.sum = mpi.allreduce(&comm, u64::from(me) + 1, |a, b| a + b)?;
            state.gathered = mpi.allgather(&comm, &me)?;
            let brd = mpi.bcast(&comm, 1, if me == 1 { 42u32 } else { 0 })?;
            assert_eq!(brd, 42);
            let reduced = mpi.reduce(&comm, 0, u64::from(me), |a, b| a.max(b))?;
            if me == 0 {
                assert_eq!(reduced, Some(u64::from(comm.size() - 1)));
            } else {
                assert_eq!(reduced, None);
            }
            let part: u32 = mpi.scatter(
                &comm,
                0,
                if me == 0 {
                    Some((0..comm.size()).map(|i| i * 10).collect())
                } else {
                    None
                },
            )?;
            assert_eq!(part, me * 10);
            let exchanged =
                mpi.alltoall(&comm, (0..comm.size()).map(|q| me * 100 + q).collect())?;
            for (q, v) in exchanged.iter().enumerate() {
                assert_eq!(*v, (q as u32) * 100 + me);
            }
            state.phase += 1;
            Ok(if state.phase >= 3 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            })
        }
    }

    let rt = runtime("coll", 3);
    let results = mpirun(&rt, Arc::new(CollApp), RunConfig::new(5))
        .unwrap()
        .wait()
        .unwrap();
    for (state, _) in &results {
        assert_eq!(state.sum, (1..=5).sum::<u64>());
        assert_eq!(state.gathered, vec![0, 1, 2, 3, 4]);
    }
    rt.shutdown();
}

#[test]
fn params_select_components() {
    let rt = runtime("params", 1);
    let params = Arc::new(McaParams::new());
    params.set("crs", "self");
    params.set("snapc", "tree");
    params.set("filem", "rsh_sim");
    let config = RunConfig {
        nprocs: 2,
        params,
    };
    let hold = Hold::at(100);
    let app = RingApp {
        rounds: 3000,
        hold: Some(Arc::clone(&hold)),
    };
    let job = mpirun(&rt, Arc::new(app), config).unwrap();
    hold.wait_arrived(2);
    let outcome = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert!(outcome.global_snapshot.exists());
    job.request_terminate();
    let _ = job.wait().unwrap();

    // The local snapshots record the self CRS.
    let global = cr_core::GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
    for local in global.local_snapshots(outcome.interval).unwrap() {
        assert_eq!(local.crs_component(), "self");
    }
    rt.shutdown();
}

const NO_LOGGER: &str = r#"framework "crcp" has no component "logger" (available: coord, none)"#;
const NO_DIRECT: &str = r#"framework "snapc" has no component "direct" (available: full, tree)"#;

/// Rewrite one `[launch]` value of a global snapshot reference, as a build
/// that still had the component would have recorded it.
fn record_launch_param(global: &std::path::Path, line: &str, recorded: &str) {
    let meta = global.join(cr_core::snapshot::GLOBAL_META_FILE);
    let text = std::fs::read_to_string(&meta).unwrap();
    assert!(text.contains(line), "{line:?} not recorded");
    std::fs::write(&meta, text.replace(line, recorded)).unwrap();
}

/// The deleted `logger` CRCP and `direct` SNAPC are refused by name, with
/// the framework's list of what remains — at launch, at a restart whose
/// recorded launch parameters name them, and at checkpoint time. A tree
/// recorded under `snapc=direct` still restores; only its next
/// checkpoint refuses.
#[test]
fn removed_components_are_refused_by_name() {
    let rt = runtime("removed", 2);
    let logger = Arc::new(McaParams::new());
    logger.set("crcp", "logger");
    let config = RunConfig {
        nprocs: 2,
        params: logger,
    };
    let err = mpirun(&rt, Arc::new(RingApp::new(10)), config)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(err.to_string().contains(NO_LOGGER), "{err}");

    let params = Arc::new(McaParams::new());
    params.set("crcp", "coord");
    params.set("snapc", "full");
    let hold = Hold::at(100);
    let app = Arc::new(RingApp {
        rounds: 200,
        hold: Some(Arc::clone(&hold)),
    });
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: 2, params }).unwrap();
    hold.wait_arrived(2);
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    hold.release();
    job.wait().unwrap();
    let global = outcome.global_snapshot;

    record_launch_param(&global, "crcp = coord", "crcp = logger");
    let rt2 = runtime("removed_logger", 2);
    let err = restart(&rt2, Arc::clone(&app), &global, RestartOptions::default())
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(err.to_string().contains(NO_LOGGER), "{err}");
    rt2.shutdown();

    record_launch_param(&global, "crcp = logger", "crcp = coord");
    record_launch_param(&global, "snapc = full", "snapc = direct");
    let rt3 = runtime("removed_direct", 2);
    let job = restart(&rt3, Arc::clone(&app), &global, RestartOptions::default()).unwrap();
    let err = job.checkpoint(&CheckpointOptions::tool()).unwrap_err();
    assert!(err.to_string().contains(NO_DIRECT), "{err}");
    let expected = expected_ring_sums(2, 200);
    for (r, (state, end)) in job.wait().unwrap().iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.token_sum, expected[r], "rank {r}");
    }
    rt3.shutdown();
    rt.shutdown();
}

fn _type_assertions(p: PathBuf) -> PathBuf {
    p
}
