//! Automatic recovery: periodic checkpoints plus restart-on-failure.
//!
//! The paper closes by naming "automatic, transparent recovery" as a
//! capability its infrastructure is designed to enable (§8). This module
//! is that capability, built purely on the public pieces the paper
//! provides: a supervisor launches the job, takes periodic checkpoints
//! through SNAPC, watches for rank failures, and — when one occurs —
//! terminates the survivors cooperatively and restarts the job from the
//! most recent global snapshot reference. Applications participate only
//! by being checkpointable; recovery is transparent to them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cr_core::request::CheckpointOptions;
use cr_core::CrError;
use orte::Runtime;
use parking_lot::Mutex;

use crate::app::{MpiApp, RunEnd};
use crate::init::{mpirun, restart, MpiJob, RestartOptions, RunConfig};

/// Recovery policy knobs.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Wall-clock interval between automatic checkpoints.
    pub checkpoint_every: Duration,
    /// How many restarts to attempt before giving up.
    pub max_restarts: u32,
    /// How often the supervisor polls for rank failures.
    pub poll_every: Duration,
    /// How each recovery restart is performed. The default
    /// ([`RestartOptions::default`]) is the fast path: newest committed
    /// interval, surviving peer memory first, stable storage for whatever
    /// it cannot serve, digest verification on.
    pub restart: RestartOptions,
    /// Try partial restart first: recover only the failed ranks onto
    /// spare nodes ([`MpiJob::restart_ranks`]) while the survivors stay
    /// live, falling back to the terminate-and-relaunch path when it
    /// refuses (no committed snapshot yet, message log off, survivor log
    /// overflow, spare pool exhausted, no surviving replica holder, …).
    /// The supervisor marks the job partial-recovery-active
    /// (`JobHandle::set_partial_recovery`) before watching it, so a
    /// failing rank leaves its survivors live for the watchdog instead of
    /// terminating the job. Needs `crcp_msg_log_enabled=true` and
    /// `orte_spare_nodes>0` to ever succeed.
    pub partial: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: Duration::from_millis(200),
            max_restarts: 3,
            poll_every: Duration::from_millis(10),
            restart: RestartOptions::default(),
            partial: false,
        }
    }
}

/// What the supervisor did on the way to the answer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Full restarts performed (whole-job relaunches).
    pub restarts: u32,
    /// Partial restarts performed (failed ranks only, survivors live).
    pub partial_restarts: u32,
    /// Periodic checkpoints that committed successfully.
    pub checkpoints: u32,
    /// Failure descriptions observed (one per failed incarnation).
    pub failures: Vec<String>,
}

/// Drive one incarnation: periodic checkpoints + failure watchdog.
/// Returns `Ok(results)` or `Err(what failed)`, plus checkpoints taken.
fn run_incarnation<A: MpiApp>(
    job: MpiJob<A::State>,
    policy: &RecoveryPolicy,
    last_snapshot: &Arc<Mutex<Option<PathBuf>>>,
) -> (Result<Vec<(A::State, RunEnd)>, CrError>, u32, u32) {
    let handle = Arc::clone(job.handle());
    let stop = Arc::new(AtomicBool::new(false));
    let checkpoints = Arc::new(Mutex::new(0u32));

    // Periodic checkpoint service.
    let ticker = {
        let handle = Arc::clone(&handle);
        let stop = Arc::clone(&stop);
        let last = Arc::clone(last_snapshot);
        let counts = Arc::clone(&checkpoints);
        let every = policy.checkpoint_every;
        std::thread::spawn(move || loop {
            // Sleep in small slices so shutdown is prompt.
            let mut waited = Duration::ZERO;
            while waited < every {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
                waited += Duration::from_millis(5);
            }
            if stop.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(outcome) = handle.checkpoint(&CheckpointOptions::tool()) {
                *last.lock() = Some(outcome.global_snapshot);
                *counts.lock() += 1;
            }
        })
    };

    // Failure watchdog. Under `policy.partial` a failed rank is first
    // restored in place — only its image is fetched, only a spare node is
    // claimed, and the survivors stay live through the replay handshake.
    // Anything that makes partial recovery refuse (no committed snapshot
    // yet, too many attempts, spare pool dry, …) falls back to the
    // original path: terminate the survivors so `wait()` can complete and
    // the outer loop relaunches the whole job.
    let tracer = handle.runtime().tracer().clone();
    let mut partials = 0u32;
    while !job.is_settled() {
        let failed = job.failed_ranks();
        if !failed.is_empty() {
            let mut recovered = false;
            if policy.partial && partials < policy.max_restarts {
                if let Some(snapshot) = last_snapshot.lock().clone() {
                    let opts = policy
                        .restart
                        .clone()
                        .with_ranks(failed.iter().map(|&r| r as u32).collect());
                    match job.restart_ranks(&snapshot, &opts) {
                        Ok(outcome) => {
                            partials += 1;
                            recovered = true;
                            tracer.record(
                                "supervisor.partial_recover",
                                &format!(
                                    "ranks {:?} -> spares {:?} (interval {})",
                                    outcome.ranks, outcome.spares, outcome.interval
                                ),
                            );
                        }
                        Err(e) => tracer.record(
                            "supervisor.partial_refused",
                            &format!("falling back to full restart: {e}"),
                        ),
                    }
                }
            }
            if !recovered {
                handle.request_terminate();
                break;
            }
            continue;
        }
        std::thread::sleep(policy.poll_every);
    }

    let result = job.wait();
    stop.store(true, Ordering::SeqCst);
    let _ = ticker.join();
    let taken = *checkpoints.lock();
    (result, taken, partials)
}

/// Run `app` to completion with automatic checkpointing and recovery.
///
/// On a rank failure the job is restarted from the most recent periodic
/// checkpoint (or relaunched from scratch if none committed yet), up to
/// `policy.max_restarts` times.
pub fn run_with_recovery<A: MpiApp>(
    runtime: &Runtime,
    app: Arc<A>,
    config: RunConfig,
    policy: &RecoveryPolicy,
) -> Result<(Vec<(A::State, RunEnd)>, RecoveryReport), CrError> {
    let last_snapshot: Arc<Mutex<Option<PathBuf>>> = Arc::new(Mutex::new(None));
    let mut report = RecoveryReport::default();

    loop {
        let job = match last_snapshot.lock().clone() {
            None => mpirun(runtime, Arc::clone(&app), config.clone())?,
            Some(snapshot) => restart(runtime, Arc::clone(&app), &snapshot, policy.restart.clone())?,
        };
        // Declare the watchdog before any rank can fail: with the flag
        // set, a failing rank leaves its survivors live for the partial
        // path instead of pulling the whole job down.
        if policy.partial {
            job.handle().set_partial_recovery(true);
        }
        runtime.tracer().record(
            "supervisor.incarnation",
            &format!("restarts so far: {}", report.restarts),
        );
        let (result, checkpoints, partials) =
            run_incarnation::<A>(job, policy, &last_snapshot);
        report.checkpoints += checkpoints;
        report.partial_restarts += partials;
        match result {
            Ok(results) => {
                // A terminated incarnation (watchdog fired between the
                // failure report and wait) still counts as a failure.
                if results
                    .iter()
                    .all(|(_, end)| *end == RunEnd::Completed)
                {
                    return Ok((results, report));
                }
                report
                    .failures
                    .push("incarnation terminated before completion".into());
            }
            Err(e) => report.failures.push(e.to_string()),
        }
        if report.restarts >= policy.max_restarts {
            return Err(CrError::protocol(format!(
                "job failed after {} restarts: {}",
                report.restarts,
                report.failures.join(" | ")
            )));
        }
        report.restarts += 1;
        runtime
            .tracer()
            .record("supervisor.recover", &format!("attempt {}", report.restarts));
    }
}
