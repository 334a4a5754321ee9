//! Job specification, launch, and the job handle.
//!
//! A job is a set of ranks mapped onto nodes, each rank being one
//! simulated process: an application thread (running the closure the OMPI
//! layer provides), a checkpoint notification thread, and a
//! [`ProcessContainer`] control plane, all registered with the node's
//! daemon. The [`JobHandle`] is what `mpirun` holds: it joins the job,
//! requests checkpoints through the selected SNAPC component, and carries
//! the job's global snapshot reference across checkpoint intervals.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use mca::McaParams;
use netsim::{Endpoint, NodeId};
use parking_lot::Mutex;

use cr_core::request::{CheckpointOptions, CheckpointOutcome};
use cr_core::snapshot::{CommitState, GlobalSnapshot, LaunchRecord};
use cr_core::{CrError, JobId, ProcessName, Rank};
use opal::container::OpalCtrl;
use opal::{ProcessContainer, ProcessImage};

use crate::plm::{plm_framework, Placement};
use crate::runtime::Runtime;
use crate::snapc::snapc_framework;

/// Everything a process's application thread receives at startup.
pub struct LaunchCtx {
    /// The runtime environment.
    pub runtime: Runtime,
    /// Launch parameters (MCA store snapshot shared by the job).
    pub params: Arc<McaParams>,
    /// This process's name.
    pub name: ProcessName,
    /// Total ranks in the job.
    pub nprocs: u32,
    /// Node this process runs on.
    pub node: NodeId,
    /// The process control plane.
    pub container: Arc<ProcessContainer>,
    /// Restored process image when this is a restart, `None` on a fresh
    /// launch.
    pub restored: Option<ProcessImage>,
    /// Partial restart only: the fabric endpoint the recovery registered
    /// for this rank on its spare before respawning it. The survivors'
    /// logged backlogs are already queued on it, so the process must
    /// take this endpoint (and publish it) instead of registering its
    /// own. `None` on a launch or whole-job restart.
    pub endpoint: Option<Endpoint>,
    /// Set when the job was asked to terminate (checkpoint-and-terminate);
    /// application loops must exit at their next safe point.
    pub terminate: Arc<AtomicBool>,
    /// Set ([`JobHandle::set_partial_recovery`]) once something — the
    /// recovery supervisor, or a caller driving `restart_ranks` by hand —
    /// stands ready to recover failed ranks in place. While set, a
    /// failing rank must NOT pull the job down: survivors stay live and
    /// their message logs catch the respawned rank up. Off by
    /// default, so a plain run with the message log enabled but no
    /// recoverer still terminates on failure instead of hanging.
    pub partial_recovery: Arc<AtomicBool>,
    /// Highest globally committed checkpoint interval + 1 (0 = nothing
    /// committed yet), published by the job as commits land. The OMPI
    /// layer keys replay-log garbage collection off this: survivor
    /// message logs must outlive any checkpoint that has not provably
    /// reached global commit.
    pub commit_watermark: Arc<AtomicU64>,
}

impl LaunchCtx {
    /// Ask every rank of the job to exit at its next safe point.
    pub fn request_terminate(&self) {
        terminate(&self.runtime, self.name.job, &self.terminate);
    }
}

/// Set `job`'s termination flag, then wake each of its ranks: a rank
/// blocked in a receive looks at the flag again.
fn terminate(runtime: &Runtime, job: JobId, flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
    for daemon in runtime.daemons() {
        daemon.wake_job(job);
    }
}

/// The per-process entry function supplied by the layer above (OMPI).
pub type ProcMain = Arc<dyn Fn(LaunchCtx) + Send + Sync>;

/// Description of a job to launch.
pub struct JobSpec {
    /// Number of ranks.
    pub nprocs: u32,
    /// Launch parameters.
    pub params: Arc<McaParams>,
    /// Application entry, run on each rank's thread.
    pub proc_main: ProcMain,
    /// Restored images (rank order) when restarting from a snapshot.
    pub restored: Option<Vec<ProcessImage>>,
    /// When restarting: the interval the images came from, so new
    /// checkpoint intervals continue numbering past it.
    pub resume_floor: Option<u64>,
}

impl JobSpec {
    /// Fresh launch of `nprocs` ranks.
    pub fn new(nprocs: u32, params: Arc<McaParams>, proc_main: ProcMain) -> Self {
        JobSpec {
            nprocs,
            params,
            proc_main,
            restored: None,
            resume_floor: None,
        }
    }
}

struct ProcEntry {
    // Swappable: a partial restart replaces the dead incarnation's
    // container/channel/threads in place while the other entries run on.
    container: Mutex<Arc<ProcessContainer>>,
    ctrl: Mutex<Sender<OpalCtrl>>,
    app: Mutex<Option<JoinHandle<()>>>,
    notify: Mutex<Option<JoinHandle<()>>>,
}

/// Handle to a launched job (what `mpirun` holds).
pub struct JobHandle {
    runtime: Runtime,
    job: JobId,
    nprocs: u32,
    params: Arc<McaParams>,
    placement: Mutex<Placement>,
    procs: Vec<ProcEntry>,
    /// Retained for partial restart: respawned ranks re-enter through the
    /// same per-process entry the job was launched with.
    proc_main: ProcMain,
    terminate: Arc<AtomicBool>,
    /// See [`LaunchCtx::partial_recovery`].
    partial_recovery: Arc<AtomicBool>,
    /// Shared with early-release gather threads: promotions must go
    /// through the same cached document a later interval's commit will
    /// write, or a save via a stale copy would lose the promotion.
    global_snapshot: Arc<Mutex<Option<GlobalSnapshot>>>,
    resume_floor: Option<u64>,
    /// Orders distributed checkpoint requests: overlapping requests
    /// would interleave at the daemons in inconsistent orders across
    /// nodes, so the global coordinator admits one at a time (as the
    /// original implementation does).
    checkpoint_serial: Mutex<()>,
    /// Checkpoint orders initiated so far; each order's epoch is its
    /// ordinal. Unlike the interval number it never repeats, so a round
    /// never mistakes an aborted order's messages for its own.
    epochs: AtomicU64,
    /// See [`LaunchCtx::commit_watermark`]; bumped here (blocking SNAPC
    /// paths) and by write-behind gather threads at promotion.
    commit_watermark: Arc<AtomicU64>,
}

impl JobHandle {
    /// Job id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> u32 {
        self.nprocs
    }

    /// Launch parameters.
    pub fn params(&self) -> &Arc<McaParams> {
        &self.params
    }

    /// The runtime this job runs in.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The job's placement (a snapshot: partial restart moves respawned
    /// ranks onto spare nodes in place).
    pub fn placement(&self) -> Placement {
        self.placement.lock().clone()
    }

    /// Node of `rank`.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.placement.lock().node_of[rank.index()]
    }

    /// Control plane of `rank` (the current incarnation's).
    pub fn container(&self, rank: Rank) -> Arc<ProcessContainer> {
        Arc::clone(&self.procs[rank.index()].container.lock())
    }

    /// The cooperative termination flag.
    pub fn terminate_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.terminate)
    }

    /// The job's global-commit watermark (highest globally committed
    /// interval + 1; 0 = nothing committed yet).
    pub fn commit_watermark(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.commit_watermark)
    }

    /// Ask every rank to exit at its next safe point.
    pub fn request_terminate(&self) {
        terminate(&self.runtime, self.job, &self.terminate);
    }

    /// Declare (or retract) an active partial-recovery supervisor: while
    /// set, a failing rank leaves the survivors live instead of
    /// terminating the job (see [`LaunchCtx::partial_recovery`]). Must be
    /// set *before* failures can occur to take effect for them.
    pub fn set_partial_recovery(&self, on: bool) {
        self.partial_recovery.store(on, Ordering::SeqCst);
    }

    /// Excludes distributed checkpoints for the length of a recovery operation:
    /// while the guard is held no interval can open, commit, or advance
    /// the commit watermark (which would GC survivor message logs
    /// mid-recovery). `MpiJob::restart_ranks` holds this for its whole
    /// fence-fetch-respawn window; [`Self::checkpoint`] takes the same
    /// lock, so an in-flight checkpoint finishes first and a concurrent
    /// ticker blocks until recovery completes.
    pub fn checkpoint_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.checkpoint_serial.lock()
    }

    /// Number a new checkpoint order: every initiation gets the next epoch.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.epochs.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The job's global snapshot reference, created on first use.
    pub fn global_snapshot(&self) -> Result<parking_lot::MappedMutexGuard<'_, GlobalSnapshot>, CrError> {
        let mut guard = self.global_snapshot.lock();
        if guard.is_none() {
            let mut params = self.params.dump();
            // Intrinsic launch facts are always recorded, even when every
            // MCA parameter was defaulted: a restart must never depend on
            // the user re-supplying anything (paper §4).
            params.push(("np".to_string(), self.nprocs.to_string()));
            let launch = LaunchRecord {
                params,
                spare_pool: self.runtime.spare_nodes().iter().map(|n| n.0).collect(),
                resumed_from: self.resume_floor,
            };
            *guard = Some(GlobalSnapshot::create(
                &self.runtime.stable_dir(),
                self.job,
                self.nprocs,
                &launch,
            )?);
        }
        Ok(parking_lot::MutexGuard::map(guard, |g| {
            g.as_mut().expect("just initialized")
        }))
    }

    /// The shared global-snapshot cell, for write-behind gather threads
    /// that outlive this handle's borrow: promoting an interval after the
    /// asynchronous gather lands must mutate the same cached metadata
    /// document subsequent commits save through.
    pub fn global_snapshot_cell(&self) -> Arc<Mutex<Option<GlobalSnapshot>>> {
        Arc::clone(&self.global_snapshot)
    }

    /// Request a distributed checkpoint through the selected SNAPC
    /// component. Returns the global snapshot reference (paper Fig. 1-A).
    pub fn checkpoint(&self, options: &CheckpointOptions) -> Result<CheckpointOutcome, CrError> {
        let _serial = self.checkpoint_serial.lock();
        let fw = snapc_framework();
        let snapc = fw.select(&self.params).map_err(|e| CrError::Unsupported {
            detail: e.to_string(),
        })?;
        self.runtime
            .tracer()
            .record("snapc.global.request", &format!("{} by {}", self.job, options.origin));
        let outcome = snapc.checkpoint_job(self, options)?;
        if outcome.stats.commit == CommitState::GlobalCommitted {
            // Blocking paths reach global commit before returning; the
            // early-release path stays LocalCommitted here and its gather
            // thread advances the watermark at promotion instead.
            self.commit_watermark
                .fetch_max(outcome.interval + 1, Ordering::SeqCst);
        }
        self.runtime.tracer().record(
            "snapc.global.reference_returned",
            &outcome.global_snapshot.display().to_string(),
        );
        if options.terminate {
            self.request_terminate();
        }
        Ok(outcome)
    }

    /// Respawn one failed rank on `node` (typically a claimed spare) with
    /// `image` as its restored state, while every other rank stays live.
    ///
    /// The caller must have verified the rank actually failed (its app
    /// thread has exited or is exiting): the dead incarnation's app
    /// thread is joined here, so respawning a live rank would deadlock.
    /// `MpiJob::restart_ranks` enforces this by refusing any rank whose
    /// result slot is not an error.
    ///
    /// The dead incarnation's threads are reaped and its entry replaced in
    /// place: a fresh container is registered with `node`'s daemon and the
    /// job's entry function re-enters through the normal restart path on
    /// `endpoint`, which the caller registered on `node` beforehand (the
    /// OMPI layer queues the survivors' logged backlogs on it before the
    /// rank runs).
    pub fn respawn_rank(
        &self,
        rank: Rank,
        node: NodeId,
        image: ProcessImage,
        endpoint: Endpoint,
    ) -> Result<(), CrError> {
        let entry = self
            .procs
            .get(rank.index())
            .ok_or_else(|| CrError::protocol(format!("respawn of unknown rank {rank}")))?;
        // Reap the dead incarnation. Its app thread has already exited
        // (that is how the failure was observed); the notification thread
        // is told to shut down over the still-live channel.
        let dead_app = { entry.app.lock().take() };
        if let Some(handle) = dead_app {
            let _ = handle.join();
        }
        entry.ctrl.lock().send(OpalCtrl::Shutdown).ok();
        let dead_notify = { entry.notify.lock().take() };
        if let Some(handle) = dead_notify {
            let _ = handle.join();
        }

        let name = ProcessName::new(self.job, rank);
        let hostname = self.runtime.topology().hostname(node).to_string();
        let container = ProcessContainer::new(
            name,
            hostname,
            self.runtime.tracer().with_actor(&name.to_string()),
        );
        let daemon = self.runtime.ensure_daemon(node);
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        daemon.register_proc(self.job, rank, Arc::clone(&container), ctrl_tx.clone());
        let notify = container.spawn_notification_thread(ctrl_rx);

        let ctx = LaunchCtx {
            runtime: self.runtime.clone(),
            params: Arc::clone(&self.params),
            name,
            nprocs: self.nprocs,
            node,
            container: Arc::clone(&container),
            restored: Some(image),
            endpoint: Some(endpoint),
            terminate: Arc::clone(&self.terminate),
            partial_recovery: Arc::clone(&self.partial_recovery),
            commit_watermark: Arc::clone(&self.commit_watermark),
        };
        let main = Arc::clone(&self.proc_main);
        let app = std::thread::Builder::new()
            .name(format!("app-{name}"))
            .spawn(move || main(ctx))
            .map_err(|e| CrError::Io {
                context: "spawning respawned application thread".into(),
                detail: e.to_string(),
            })?;

        {
            let mut placement = self.placement.lock();
            if let Some(slot) = placement.node_of.get_mut(rank.index()) {
                *slot = node;
            }
        }
        *entry.container.lock() = container;
        *entry.app.lock() = Some(app);
        *entry.ctrl.lock() = ctrl_tx;
        *entry.notify.lock() = Some(notify);
        Ok(())
    }

    /// Path the job's global snapshot reference will live at.
    pub fn global_snapshot_path(&self) -> PathBuf {
        self.runtime
            .stable_dir()
            .join(cr_core::snapshot::global_dir_name(self.job))
    }

    /// Wait for every rank to finish, then tear the job down (notification
    /// threads, daemon registrations, modex entries). Idempotent.
    pub fn join(&self) -> Result<(), CrError> {
        let mut panicked = Vec::new();
        for (rank, proc_entry) in self.procs.iter().enumerate() {
            if let Some(handle) = proc_entry.app.lock().take() {
                if handle.join().is_err() {
                    panicked.push(rank);
                }
            }
        }
        for proc_entry in &self.procs {
            let _ = proc_entry.ctrl.lock().send(OpalCtrl::Shutdown);
        }
        for proc_entry in &self.procs {
            if let Some(handle) = proc_entry.notify.lock().take() {
                let _ = handle.join();
            }
        }
        for node in self.placement().nodes() {
            // A node that died mid-run must stay dead: ensure_daemon would
            // resurrect it (and clear its failure mark) just to deregister
            // a job its daemon no longer remembers.
            if self.runtime.node_failed(node) {
                continue;
            }
            self.runtime.ensure_daemon(node).deregister_job(self.job);
        }
        self.runtime.modex().clear_job(self.job);
        if panicked.is_empty() {
            Ok(())
        } else {
            Err(CrError::protocol(format!(
                "rank(s) {panicked:?} panicked"
            )))
        }
    }
}

/// Launch a job into `runtime` per `spec`.
pub fn launch(runtime: &Runtime, spec: JobSpec) -> Result<JobHandle, CrError> {
    // Register built-in parameter defaults (weakest source) so the
    // snapshot metadata records the complete effective configuration and
    // `ompi-info` agrees with what components will actually read.
    mca::registry::register_defaults(&spec.params);
    // Attach the durable FT event journal (idempotent across launches into
    // the same runtime) before any of this job's events are recorded.
    let journal_enabled = spec
        .params
        .get_bool_or("journal_enabled", true)
        .map_err(|e| CrError::protocol(e.to_string()))?;
    if journal_enabled {
        let dir = spec.params.get("journal_dir").filter(|d| !d.is_empty());
        let fsync_every: u64 = spec
            .params
            .get_parsed_or("journal_fsync_every", 0)
            .map_err(|e| CrError::protocol(e.to_string()))?;
        runtime.enable_journal(dir.as_deref().map(Path::new), fsync_every)?;
    }
    if let Some(images) = &spec.restored {
        if images.len() != spec.nprocs as usize {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "restart has {} images for {} ranks",
                    images.len(),
                    spec.nprocs
                ),
            });
        }
    }

    let job = runtime.alloc_job();
    let plm = plm_framework()
        .select(&spec.params)
        .map_err(|e| CrError::Unsupported {
            detail: e.to_string(),
        })?;
    let placement = plm.map_job(spec.nprocs, runtime.topology(), &spec.params)?;
    runtime.tracer().record(
        "plm.launch",
        &format!("{job} nprocs {}", spec.nprocs),
    );
    // The nodes the PLM held out of placement become the runtime's spare
    // pool: partial restart claims them one at a time on node loss.
    let spare_count: u32 = spec
        .params
        .get_parsed_or("orte_spare_nodes", 0u32)
        .map_err(|e| CrError::protocol(e.to_string()))?;
    if spare_count > 0 {
        let total = runtime.topology().len() as u32;
        for i in (total - spare_count)..total {
            runtime.register_spare(NodeId(i));
        }
    }

    let terminate = Arc::new(AtomicBool::new(false));
    let partial_recovery = Arc::new(AtomicBool::new(false));
    let commit_watermark = Arc::new(AtomicU64::new(0));
    let mut restored_images = spec.restored;
    let mut procs = Vec::with_capacity(spec.nprocs as usize);

    for r in 0..spec.nprocs {
        let rank = Rank(r);
        let node = placement.node_of[rank.index()];
        let hostname = runtime.topology().hostname(node).to_string();
        let name = ProcessName::new(job, rank);
        let container =
            ProcessContainer::new(name, hostname, runtime.tracer().with_actor(&name.to_string()));

        let daemon = runtime.ensure_daemon(node);
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        daemon.register_proc(job, rank, Arc::clone(&container), ctrl_tx.clone());
        let notify = container.spawn_notification_thread(ctrl_rx);

        let ctx = LaunchCtx {
            runtime: runtime.clone(),
            params: Arc::clone(&spec.params),
            name,
            nprocs: spec.nprocs,
            node,
            container: Arc::clone(&container),
            restored: restored_images.as_mut().map(|v| std::mem::take(&mut v[rank.index()])),
            endpoint: None,
            terminate: Arc::clone(&terminate),
            partial_recovery: Arc::clone(&partial_recovery),
            commit_watermark: Arc::clone(&commit_watermark),
        };
        let main = Arc::clone(&spec.proc_main);
        let app = std::thread::Builder::new()
            .name(format!("app-{name}"))
            .spawn(move || main(ctx))
            .map_err(|e| CrError::Io {
                context: "spawning application thread".into(),
                detail: e.to_string(),
            })?;

        procs.push(ProcEntry {
            container: Mutex::new(container),
            ctrl: Mutex::new(ctrl_tx),
            app: Mutex::new(Some(app)),
            notify: Mutex::new(Some(notify)),
        });
    }

    Ok(JobHandle {
        runtime: runtime.clone(),
        job,
        nprocs: spec.nprocs,
        params: spec.params,
        placement: Mutex::new(placement),
        procs,
        proc_main: spec.proc_main,
        terminate,
        partial_recovery,
        global_snapshot: Arc::new(Mutex::new(None)),
        resume_floor: spec.resume_floor,
        checkpoint_serial: Mutex::new(()),
        epochs: AtomicU64::new(0),
        commit_watermark,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkSpec, Topology};

    fn runtime(tag: &str, nodes: u32) -> Runtime {
        let dir = std::env::temp_dir().join(format!(
            "orte_job_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Runtime::new(Topology::uniform(nodes, LinkSpec::gigabit_ethernet()), dir).unwrap()
    }

    #[test]
    fn launch_runs_every_rank() {
        let rt = runtime("launch", 2);
        let done = Arc::new(Mutex::new(Vec::new()));
        let done2 = Arc::clone(&done);
        let spec = JobSpec::new(
            4,
            Arc::new(McaParams::new()),
            Arc::new(move |ctx: LaunchCtx| {
                done2.lock().push((ctx.name.rank, ctx.node));
                ctx.container.gate().retire();
            }),
        );
        let handle = launch(&rt, spec).unwrap();
        assert_eq!(handle.nprocs(), 4);
        handle.join().unwrap();
        let mut results = done.lock().clone();
        results.sort_by_key(|(r, _)| *r);
        assert_eq!(results.len(), 4);
        // Round-robin placement across two nodes.
        assert_eq!(results[0].1, NodeId(0));
        assert_eq!(results[1].1, NodeId(1));
        assert_eq!(results[2].1, NodeId(0));
        rt.shutdown();
    }

    #[test]
    fn join_reports_panicked_ranks() {
        let rt = runtime("panic", 1);
        let spec = JobSpec::new(
            2,
            Arc::new(McaParams::new()),
            Arc::new(|ctx: LaunchCtx| {
                ctx.container.gate().retire();
                if ctx.name.rank == Rank(1) {
                    panic!("rank 1 blows up");
                }
            }),
        );
        let handle = launch(&rt, spec).unwrap();
        let err = handle.join().unwrap_err();
        assert!(err.to_string().contains("[1]"));
        rt.shutdown();
    }

    #[test]
    fn restored_image_count_validated() {
        let rt = runtime("badrestore", 1);
        let spec = JobSpec {
            nprocs: 3,
            params: Arc::new(McaParams::new()),
            proc_main: Arc::new(|_| {}),
            restored: Some(vec![ProcessImage::new()]),
            resume_floor: Some(0),
        };
        assert!(matches!(
            launch(&rt, spec),
            Err(CrError::BadSnapshot { .. })
        ));
        rt.shutdown();
    }

    #[test]
    fn terminate_flag_reaches_ranks() {
        let rt = runtime("term", 1);
        let spec = JobSpec::new(
            2,
            Arc::new(McaParams::new()),
            Arc::new(|ctx: LaunchCtx| {
                while !ctx.terminate.load(Ordering::SeqCst) {
                    ctx.container.gate().checkpoint_point();
                    std::thread::yield_now();
                }
                ctx.container.gate().retire();
            }),
        );
        let handle = launch(&rt, spec).unwrap();
        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn global_snapshot_lazily_created_with_launch_params() {
        let rt = runtime("globalsnap", 1);
        let params = Arc::new(McaParams::new());
        params.set("crs", "blcr_sim");
        let spec = JobSpec::new(
            1,
            params,
            Arc::new(|ctx: LaunchCtx| ctx.container.gate().retire()),
        );
        let handle = launch(&rt, spec).unwrap();
        {
            let snap = handle.global_snapshot().unwrap();
            assert_eq!(snap.nprocs(), 1);
            assert!(snap
                .launch_params()
                .contains(&("crs".to_string(), "blcr_sim".to_string())));
        }
        assert!(handle.global_snapshot_path().exists());
        handle.join().unwrap();
        rt.shutdown();
    }
}
