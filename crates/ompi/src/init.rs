//! `MPI_Init`/`MPI_Finalize` equivalents, the `mpirun`-style launcher, and
//! restart from a global snapshot reference.
//!
//! Per-process startup (the simulated `MPI_Init`):
//!
//! 1. select and install the CRS component (OPAL),
//! 2. register a fabric endpoint (a rank a partial restart respawns takes
//!    the one the recovery registered for it) and rendezvous with the
//!    peers through the modex,
//! 3. build the PML, restore its state when this is a restart,
//! 4. select the CRCP component and interpose it on the PML,
//! 5. register the capture sections (`app`, `pml`, `ompi`),
//! 6. install the three-layer INC stack (OPAL → ORTE → OMPI),
//! 7. on restart: deliver [`FtEventState::Restart`] through the chain and
//!    fire the SELF restart callback,
//! 8. enter the application step loop; checkpointing is enabled once the
//!    first boundary state exists and disabled again at finalize.

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use mca::McaParams;
use netsim::{Endpoint, EndpointId};
use parking_lot::Mutex;

use cr_core::inc::LayerInc;
use cr_core::request::{CheckpointOptions, CheckpointOutcome};
use cr_core::snapshot::GlobalSnapshot;
use cr_core::{CrError, FtEvent, FtEventState, Tracer};
use opal::crs::{crs_framework, SelfCallbacks};
use opal::ProgressEngine;
use orte::job::{launch, JobSpec, LaunchCtx, ProcMain};
use orte::{JobHandle, Runtime};

use crate::app::{run_app, BoundaryCell, MpiApp, RunEnd};
use crate::crcp::{crcp_framework, CrcpFtHandle};
use crate::error::MpiError;
use crate::mpi::Mpi;
use crate::pml::{PmlFtHandle, PmlShared};

/// Launch configuration.
#[derive(Clone)]
pub struct RunConfig {
    /// Number of ranks.
    pub nprocs: u32,
    /// MCA parameters (component selection, tunables).
    pub params: Arc<McaParams>,
}

impl RunConfig {
    /// `nprocs` ranks with default parameters.
    pub fn new(nprocs: u32) -> Self {
        RunConfig {
            nprocs,
            params: Arc::new(McaParams::new()),
        }
    }
}

type RankResult<S> = Option<Result<(S, RunEnd), String>>;

/// Each rank's PML, once its current incarnation has built (and, on a
/// restart, restored) it: what a partial restart replays the survivors'
/// logs from.
type RankPmls = Arc<Mutex<Vec<Option<Arc<PmlShared>>>>>;

/// Spare nodes claimed for a partial restart but not yet spent. Every
/// refusal or fetch error after the claim must return the nodes to the
/// runtime pool — otherwise a refused `restart_ranks` would silently
/// drain it and later attempts would spuriously see "no spare node
/// available". Dropping the lease without [`SpareLease::commit`]
/// re-registers every claimed node.
struct SpareLease<'a> {
    runtime: &'a Runtime,
    nodes: Vec<netsim::NodeId>,
    committed: bool,
}

impl<'a> SpareLease<'a> {
    fn new(runtime: &'a Runtime) -> Self {
        SpareLease {
            runtime,
            nodes: Vec::new(),
            committed: false,
        }
    }

    /// Claim one spare from the pool into the lease.
    fn claim(&mut self) -> Option<netsim::NodeId> {
        let node = self.runtime.claim_spare()?;
        self.nodes.push(node);
        Some(node)
    }

    /// The recovery reached its point of no return: the nodes are spent.
    fn commit(mut self) -> Vec<netsim::NodeId> {
        self.committed = true;
        std::mem::take(&mut self.nodes)
    }
}

impl Drop for SpareLease<'_> {
    fn drop(&mut self) {
        if !self.committed {
            for &node in &self.nodes {
                self.runtime.register_spare(node);
            }
        }
    }
}

/// A running (or finished) MPI job.
pub struct MpiJob<S> {
    handle: Arc<JobHandle>,
    results: Arc<Mutex<Vec<RankResult<S>>>>,
    pmls: RankPmls,
    sync_thread: Mutex<Option<JoinHandle<()>>>,
    // `None` on this channel tells the sync-checkpoint service to exit.
    // The job handle retains the entry closure for respawns, and that
    // closure holds a sender clone — so the service cannot rely on channel
    // disconnection alone.
    sync_tx: Sender<Option<CheckpointOptions>>,
}

impl<S> Drop for MpiJob<S> {
    fn drop(&mut self) {
        // The service may already be gone (after `wait`).
        let _ = self.sync_tx.send(None);
    }
}

impl<S: Send + 'static> MpiJob<S> {
    /// The underlying ORTE job handle.
    pub fn handle(&self) -> &Arc<JobHandle> {
        &self.handle
    }

    /// Request a distributed checkpoint (asynchronous/tool path).
    pub fn checkpoint(&self, options: &CheckpointOptions) -> Result<CheckpointOutcome, CrError> {
        self.handle.checkpoint(options)
    }

    /// Ask the job to terminate cooperatively.
    pub fn request_terminate(&self) {
        self.handle.request_terminate();
    }

    /// Ranks that have already reported a failure (the job may still be
    /// running). Used by the recovery supervisor's watchdog.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.results
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, Some(Err(_))))
            .map(|(rank, _)| rank)
            .collect()
    }

    /// True once every rank has produced a result (success or failure).
    pub fn is_settled(&self) -> bool {
        self.results.lock().iter().all(|slot| slot.is_some())
    }

    /// Partial restart: restore only `opts.ranks` onto spare nodes while
    /// every other rank stays live — O(failed) work instead of O(job).
    ///
    /// The failed ranks' images are fetched replica-first from the global
    /// snapshot at `global_ref` (stable-storage fallback per image), one
    /// spare node is claimed per distinct failed node, and the dead nodes
    /// are fenced. Then, from this thread, one endpoint per rank is
    /// registered on its spare, every survivor's PML is re-pointed at it
    /// and its logged in-flight traffic queued there
    /// ([`PmlShared::rejoin_peer`]), and only then is each rank respawned
    /// onto its endpoint through the normal restart path. No survivor
    /// has to enter MPI and nobody waits on anybody, so a survivor that
    /// is computing or has finished cannot stall the recovery.
    ///
    /// Holds the job's checkpoint serial for the whole recovery, so no
    /// interval can open, commit, or garbage-collect survivor message
    /// logs mid-respawn (an in-flight checkpoint finishes first; a
    /// periodic ticker blocks until the recovery completes).
    ///
    /// Refuses (leaving the job untouched — claimed spares included — so
    /// the caller can fall back to a full restart) when a requested rank
    /// has not actually failed, when a failed rank is left out of the
    /// set, when a survivor has no PML yet, when the sender-side message
    /// log is disabled, when the requested interval is older than the newest
    /// committed one (survivor logs are GC'd up to its quiesce), when a
    /// survivor's log overflowed `crcp_msg_log_cap_kb` since that quiesce
    /// (the replay backlog would be sequence-gapped), when no spare node
    /// is available, or when `source` is replica-only and an image has no
    /// surviving holder.
    ///
    /// A failing rank only leaves its survivors live when
    /// [`orte::JobHandle::set_partial_recovery`] was set beforehand (the
    /// recovery supervisor does this under `RecoveryPolicy::partial`);
    /// without it a failure terminates the job and there is nothing left
    /// to partially restart.
    pub fn restart_ranks(
        &self,
        global_ref: &Path,
        opts: &RestartOptions,
    ) -> Result<PartialRestartOutcome, CrError> {
        let handle = &self.handle;
        let runtime = handle.runtime();
        let nprocs = handle.nprocs();
        let mut ranks = match &opts.ranks {
            Some(r) if !r.is_empty() => r.clone(),
            _ => {
                return Err(CrError::protocol(
                    "partial restart needs a non-empty rank set (RestartOptions::with_ranks)",
                ))
            }
        };
        ranks.sort_unstable();
        ranks.dedup();
        if let Some(&bad) = ranks.iter().find(|&&r| r >= nprocs) {
            return Err(CrError::protocol(format!(
                "partial restart of rank {bad} in a {nprocs}-rank job"
            )));
        }
        // Only ranks that actually failed can be recovered in place:
        // `respawn_rank` joins the old incarnation's app thread, so
        // fencing a live rank would deadlock (besides rolling it back for
        // no reason). And every failed rank must be in the set: the
        // traffic a failed rank sent the restarted ones since the
        // checkpoint died with it, and only its own restart resends it.
        {
            let results = self.results.lock();
            let failed = |r: u32| matches!(results.get(r as usize), Some(Some(Err(_))));
            if let Some(&live) = ranks.iter().find(|&&r| !failed(r)) {
                return Err(CrError::protocol(format!(
                    "partial restart of rank {live}, which has not failed: only \
                     ranks in MpiJob::failed_ranks() can be recovered in place"
                )));
            }
            if let Some(left) = (0..nprocs).find(|r| failed(*r) && !ranks.contains(r)) {
                return Err(CrError::protocol(format!(
                    "partial restart of ranks {ranks:?} leaves out failed rank {left}: \
                     every rank in MpiJob::failed_ranks() must be restarted together"
                )));
            }
        }
        let msg_log = handle
            .params()
            .get_bool_or("crcp_msg_log_enabled", false)
            .unwrap_or(false);
        if !msg_log {
            return Err(CrError::Unsupported {
                detail: "partial restart requires the sender-side message log \
                         (crcp_msg_log_enabled=true): without it survivors cannot \
                         replay the in-flight traffic the restarted ranks missed"
                    .into(),
            });
        }
        // Freeze the checkpoint pipeline for the whole recovery: an
        // interval opening mid-respawn could capture inconsistent state,
        // and one *committing* would advance the watermark and GC logged
        // frames the restarted ranks still need. `JobHandle::checkpoint`
        // takes the same lock, so an in-flight request completes first and
        // a concurrent ticker blocks until recovery is done; the
        // write-behind drain then retires any interval still gathering
        // toward its (promotion-time) commit.
        let _ckpt_guard = handle.checkpoint_guard();
        runtime.drain_writebehind();
        let (global, interval, params) = open_interval(global_ref, opts.interval)?;
        // Survivor message logs are garbage-collected up to the newest
        // committed quiesce, so a rank restored from an older interval
        // could never be replayed gap-free.
        if let Some(latest) = global.latest_interval().filter(|&l| l != interval) {
            return Err(CrError::Unsupported {
                detail: format!(
                    "partial restart must restore the newest committed interval \
                     ({latest}), not {interval}: survivor message logs only reach \
                     back to the newest commit's quiesce (use a full restart for \
                     older intervals)"
                ),
            });
        }

        // The failed nodes, in rank order. A node can only be fenced
        // whole: every rank placed on it must be in the restart set.
        let placement = handle.placement();
        let rank_set: std::collections::BTreeSet<u32> = ranks.iter().copied().collect();
        let mut old_nodes: Vec<netsim::NodeId> = Vec::new();
        for &r in &ranks {
            let Some(&node) = placement.node_of.get(r as usize) else {
                return Err(CrError::protocol(format!("rank {r} has no placement entry")));
            };
            if !old_nodes.contains(&node) {
                old_nodes.push(node);
            }
        }
        for &node in &old_nodes {
            for (pr, &pn) in placement.node_of.iter().enumerate() {
                if pn == node && !rank_set.contains(&(pr as u32)) {
                    return Err(CrError::protocol(format!(
                        "partial restart of ranks {ranks:?} must also include rank \
                         {pr}: it shares failed node {node}, which is fenced whole"
                    )));
                }
            }
        }

        // Survivors must be able to replay a contiguous backlog to the
        // restarted ranks: if any survivor's log overflowed past
        // `crcp_msg_log_cap_kb` since the restore interval's quiesce, the
        // dropped sends can never be resent and the restarted rank would
        // stall on a sequence gap. Refuse while the job is still
        // untouched.
        let watermark = handle.commit_watermark().load(Ordering::SeqCst);
        let pmls = self.pmls.lock().clone();
        let mut survivors = Vec::new();
        let mut gapped = Vec::new();
        for (r, pml) in (0..nprocs).zip(pmls).filter(|(r, _)| !rank_set.contains(r)) {
            let Some(pml) = pml else {
                return Err(CrError::Unsupported {
                    detail: format!(
                        "survivor rank {r} has not built its PML yet, so it has no \
                         message log to replay (retry once it is running)"
                    ),
                });
            };
            if pml.with_state(|st| st.msg_log.gapped_since(watermark)) {
                gapped.push(format!("survivor rank {r}'s message log"));
            }
            survivors.push(pml);
        }
        if !gapped.is_empty() {
            return Err(CrError::Unsupported {
                detail: format!(
                    "{} overflowed crcp_msg_log_cap_kb since interval {interval}'s \
                     quiesce; the replay backlog is sequence-gapped (raise the cap \
                     or fall back to a full restart)",
                    gapped.join(" and ")
                ),
            });
        }

        // One spare per distinct failed node, held in a lease: any
        // refusal or fetch error below must hand the claimed nodes back
        // to the pool (the "leaving the job untouched" contract), which
        // the lease's Drop does unless the recovery reaches its point of
        // no return and commits.
        let mut spare_of: std::collections::HashMap<u32, netsim::NodeId> =
            std::collections::HashMap::new();
        let mut lease = SpareLease::new(runtime);
        for &node in &old_nodes {
            let spare = lease.claim().ok_or_else(|| CrError::Unsupported {
                detail: format!(
                    "no spare node available to rehost the ranks of failed node \
                     {node} (grow orte_spare_nodes or fall back to a full restart)"
                ),
            })?;
            spare_of.insert(node.0, spare);
        }

        let job = handle.job();
        let spare_for = |r: u32| {
            placement
                .node_of
                .get(r as usize)
                .and_then(|n| spare_of.get(&n.0))
                .copied()
                .ok_or_else(|| CrError::protocol(format!("rank {r} has no claimed spare")))
        };
        let targets: Vec<(cr_core::Rank, netsim::NodeId)> = ranks
            .iter()
            .map(|&r| spare_for(r).map(|spare| (cr_core::Rank(r), spare)))
            .collect::<Result<_, _>>()?;
        let wanted: Vec<cr_core::Rank> = targets.iter().map(|&(rank, _)| rank).collect();
        let (images, replica_images) =
            fetch_images(runtime, &global, interval, &wanted, opts, &params)?;

        // Point of no return: fence the dead nodes and drop the failed
        // ranks' stale endpoint advertisements, result slots and PMLs.
        // The spares are spent from here on.
        let spares = lease.commit();
        for &node in &old_nodes {
            if !runtime.node_failed(node) {
                runtime.kill_daemon(node);
            }
        }
        for &r in &ranks {
            runtime.modex().remove(job, &format!("pml.{r}"));
            if let Some(slot) = self.results.lock().get_mut(r as usize) {
                *slot = None;
            }
        }
        let mut pmls = self.pmls.lock();
        for &r in &ranks {
            if let Some(slot) = pmls.get_mut(r as usize) {
                *slot = None;
            }
        }
        drop(pmls);
        // Each rank's replacement endpoint exists before it runs, so every
        // survivor queues its backlog there now. A survivor re-points and
        // resends under its state lock, which its own sends take too: the
        // whole backlog precedes any fresh frame on the channel.
        let endpoints: Vec<Endpoint> =
            targets.iter().map(|&(_, spare)| runtime.fabric().register(spare)).collect();
        for pml in &survivors {
            for (&(rank, _), endpoint) in targets.iter().zip(&endpoints) {
                pml.rejoin_peer(rank.0, endpoint.id(), watermark);
            }
        }
        runtime.tracer().record(
            "crcp.replay.done",
            &format!(
                "{} survivors queued their logged backlogs for ranks {ranks:?}",
                survivors.len()
            ),
        );
        for ((&(rank, spare), image), endpoint) in targets.iter().zip(images).zip(endpoints) {
            handle.respawn_rank(rank, spare, image, endpoint)?;
        }

        runtime.tracer().record(
            "ompi.restart",
            &format!(
                "partial: {} of {nprocs} ranks ({ranks:?}) onto spare nodes {:?} from \
                 interval {interval} ({replica_images} images from peer memory)",
                ranks.len(),
                spares.iter().map(|n| n.0).collect::<Vec<_>>(),
            ),
        );
        Ok(PartialRestartOutcome {
            interval,
            ranks,
            spares,
            replica_images,
        })
    }

    /// Wait for completion and collect every rank's final state.
    pub fn wait(self) -> Result<Vec<(S, RunEnd)>, CrError> {
        self.handle.join()?;
        let _ = self.sync_tx.send(None);
        if let Some(t) = self.sync_thread.lock().take() {
            let _ = t.join();
        }
        let mut results = self.results.lock();
        let mut out = Vec::with_capacity(results.len());
        let mut failures = Vec::new();
        for (rank, slot) in results.drain(..).enumerate() {
            match slot {
                Some(Ok(pair)) => out.push(pair),
                Some(Err(e)) => failures.push(format!("rank {rank}: {e}")),
                None => failures.push(format!("rank {rank}: produced no result")),
            }
        }
        if failures.is_empty() {
            Ok(out)
        } else {
            Err(CrError::protocol(failures.join("; ")))
        }
    }
}

/// The ORTE-layer INC subsystem: quiesces out-of-band runtime services
/// around a checkpoint (here that is bookkeeping plus tracing — the
/// daemons are external to the process).
struct OrteOobFt {
    tracer: Tracer,
}

impl FtEvent for OrteOobFt {
    fn ft_event(&mut self, state: FtEventState) -> Result<(), CrError> {
        self.tracer.record("orte.oob.ft_event", &state.to_string());
        Ok(())
    }
}

/// De-duplicating wrapper: `LayerInc` delivers the entering state on the
/// way down and the resulting state on the way up; for Restart both are
/// the same state and protocols must not run twice. A failed delivery is
/// forgotten: the chain skips the way up of a subsystem that failed, and
/// the next order's `Checkpoint` must still reach it.
struct OnceFt<T: FtEvent + Send> {
    inner: T,
    last: Option<FtEventState>,
}

impl<T: FtEvent + Send> OnceFt<T> {
    fn new(inner: T) -> Self {
        OnceFt { inner, last: None }
    }
}

impl<T: FtEvent + Send> FtEvent for OnceFt<T> {
    fn ft_event(&mut self, state: FtEventState) -> Result<(), CrError> {
        if self.last == Some(state) {
            return Ok(());
        }
        let result = self.inner.ft_event(state);
        self.last = result.is_ok().then_some(state);
        result
    }
}

/// Per-process MPI bring-up and run (steps 1–8 of the module docs).
fn proc_body<A: MpiApp>(
    app: &A,
    ctx: &LaunchCtx,
    endpoint: Option<Endpoint>,
    sync_tx: Sender<Option<CheckpointOptions>>,
    endpoint_id: &OnceLock<EndpointId>,
    pmls: &RankPmls,
) -> Result<(A::State, RunEnd), MpiError> {
    let runtime = &ctx.runtime;
    let me = ctx.name.rank.0;
    let tracer = runtime.tracer().with_actor(&format!("rank{me}"));
    let params = &ctx.params;
    let nprocs = ctx.nprocs;
    let job = ctx.name.job;

    // 1. CRS.
    let self_cbs = SelfCallbacks::new();
    let crs_fw = crs_framework(Arc::clone(&self_cbs));
    let crs = crs_fw.select(params).map_err(|e| {
        MpiError::Cr(CrError::Unsupported {
            detail: e.to_string(),
        })
    })?;
    ctx.container.set_crs(Arc::from(crs));

    // 2. Endpoint + modex rendezvous.
    let endpoint = endpoint.unwrap_or_else(|| runtime.fabric().register(ctx.node));
    let _ = endpoint_id.set(endpoint.id());
    runtime.modex().publish(
        job,
        &format!("pml.{me}"),
        endpoint.id().0.to_le_bytes().to_vec(),
    );
    let mut peers = Vec::with_capacity(nprocs as usize);
    for r in 0..nprocs {
        let raw = runtime
            .modex()
            .wait(job, &format!("pml.{r}"), Duration::from_secs(60))
            .map_err(MpiError::Cr)?;
        let bytes: [u8; 8] = raw.as_slice().try_into().map_err(|_| MpiError::Cr(
            CrError::protocol("malformed modex endpoint entry"),
        ))?;
        peers.push(EndpointId(u64::from_le_bytes(bytes)));
    }

    // 3. PML (+ state restore on restart).
    let pml = PmlShared::new(
        me,
        nprocs,
        endpoint,
        peers,
        Arc::clone(ctx.container.gate()),
        tracer.clone(),
    );
    pml.set_terminate_flag(Arc::clone(&ctx.terminate));
    let next_ctx = Arc::new(AtomicU32::new(2));
    let mut restored_app: Option<Vec<u8>> = None;
    if let Some(image) = &ctx.restored {
        pml.restore(image.require_section("pml").map_err(MpiError::Cr)?)
            .map_err(MpiError::Cr)?;
        Mpi::restore_section(&next_ctx, image.require_section("ompi").map_err(MpiError::Cr)?)
            .map_err(MpiError::Cr)?;
        restored_app = Some(image.require_section("app").map_err(MpiError::Cr)?.to_vec());
    }
    if let Some(slot) = pmls.lock().get_mut(me as usize) {
        *slot = Some(Arc::clone(&pml));
    }

    // 4. CRCP interposition (the wrapper PML). `ft_cr_enabled false`
    //    removes the interposition entirely — the baseline configuration
    //    of the paper's overhead experiment.
    let ft_enabled = params.get_bool_or("ft_cr_enabled", true).map_err(|e| {
        MpiError::Invalid {
            detail: e.to_string(),
        }
    })?;
    if ft_enabled {
        let crcp_fw = crcp_framework(tracer.clone());
        let component = crcp_fw.select(params).map_err(|e| {
            MpiError::Cr(CrError::Unsupported {
                detail: e.to_string(),
            })
        })?;
        let component: Arc<dyn crate::crcp::CrcpComponent> = Arc::from(component);
        // Replay-log GC keys off the job's commit watermark, not the INC
        // chain's `Continue` (which lands at local commit — too early to
        // drop frames a partial restart may still need to replay).
        component.set_commit_watermark(Arc::clone(&ctx.commit_watermark));
        // A rank that refuses an order tells the peers already
        // coordinating for it, instead of leaving them waiting; the
        // orders it refused while starting up are told now.
        let (c, p) = (Arc::clone(&component), Arc::clone(&pml));
        ctx.container
            .set_refuse(Arc::new(move |epoch| c.refuse(&p, epoch)));
        pml.set_crcp(Some(component));
    }
    // With the sender-side message log on, expose its byte count to the
    // runtime through the container probe channel: the global coordinator
    // records it per interval in the snapshot metadata, and
    // `ompi-snapshot-info` surfaces it.
    let msg_log_enabled = params
        .get_bool_or("crcp_msg_log_enabled", false)
        .unwrap_or(false);
    if msg_log_enabled {
        let p = Arc::clone(&pml);
        ctx.container.set_probe(
            "crcp.msglog",
            Arc::new(move || p.with_state(|st| st.msg_log.bytes()).to_string()),
        );
    }

    // 5. Capture sections.
    let boundary = BoundaryCell::new();
    let b = boundary.clone();
    ctx.container
        .register_capture("app", Arc::new(move || Ok(b.get())));
    let p = Arc::clone(&pml);
    ctx.container
        .register_capture("pml", Arc::new(move || p.capture()));
    let nc = Arc::clone(&next_ctx);
    ctx.container.register_capture(
        "ompi",
        Arc::new(move || Ok(codec::to_bytes(&nc.load(Ordering::SeqCst)))),
    );

    // 6. INC stack: OPAL (bottom, runs the CRS), ORTE, OMPI (top).
    let mut opal_layer = LayerInc::new("opal", tracer.clone());
    if params.get_bool_or("opal_progress", false).unwrap_or(false) {
        opal_layer = opal_layer.subsystem(
            "progress",
            Arc::new(Mutex::new(ProgressEngine::start(Duration::from_millis(2)))),
        );
    }
    ctx.container.install_opal_inc(opal_layer);

    let orte_layer = LayerInc::new("orte", tracer.clone()).subsystem(
        "oob",
        Arc::new(Mutex::new(OnceFt::new(OrteOobFt {
            tracer: tracer.clone(),
        }))),
    );
    ctx.container
        .inc()
        .register(move |prev| orte_layer.build(prev, None));

    let ompi_layer = LayerInc::new("ompi", tracer.clone())
        .subsystem(
            "crcp",
            Arc::new(Mutex::new(OnceFt::new(CrcpFtHandle::with_container(
                Arc::clone(&pml),
                Arc::clone(&ctx.container),
            )))),
        )
        .subsystem(
            "pml",
            Arc::new(Mutex::new(OnceFt::new(PmlFtHandle::new(Arc::clone(&pml))))),
        );
    ctx.container
        .inc()
        .register(move |prev| ompi_layer.build(prev, None));

    // The application-facing handle.
    let mpi = Mpi::new(
        Arc::clone(&pml),
        next_ctx,
        Arc::clone(&ctx.container),
        Arc::clone(&self_cbs),
        Arc::clone(&ctx.terminate),
        Some(sync_tx),
        tracer.clone(),
    );

    // 7. Restart notification through the whole chain.
    if ctx.restored.is_some() {
        tracer.record("ompi.init.restart", &format!("rank {me}"));
        ctx.container
            .inc()
            .deliver(FtEventState::Restart)
            .map_err(MpiError::Cr)?;
        if let Some(crs) = ctx.container.crs() {
            crs.post_event(FtEventState::Restart).map_err(MpiError::Cr)?;
        }
    }

    // 8. Run.
    let result = run_app(app, &mpi, &boundary, restored_app);

    // Finalize: close the checkpoint window before tearing anything down.
    ctx.container.disable_checkpointing("MPI_Finalize");
    result
}

fn make_proc_main<A: MpiApp>(
    app: Arc<A>,
    results: Arc<Mutex<Vec<RankResult<A::State>>>>,
    pmls: RankPmls,
    sync_tx: Sender<Option<CheckpointOptions>>,
) -> ProcMain {
    Arc::new(move |mut ctx: LaunchCtx| {
        let rank = ctx.name.rank.index();
        let given = ctx.endpoint.take();
        let endpoint = OnceLock::new();
        // A panicking rank must still record a result, retire its gate,
        // and pull the job down — otherwise peers blocked in receive wait
        // loops poll forever and the job never settles.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proc_body(app.as_ref(), &ctx, given, sync_tx.clone(), &endpoint, &pmls)
        }));
        let outcome = match caught {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                Err(format!("application panicked: {msg}"))
            }
        };
        if outcome.is_err() {
            // Unblock peers waiting on messages this rank will never send
            // — unless an active recoverer has declared itself on the job
            // (`JobHandle::set_partial_recovery`): then the survivors must
            // stay live while only this rank is restored and caught back
            // up from their message logs. The message-log MCA param
            // alone is NOT enough: with the log on but nobody performing
            // partial restarts, a silent skip here would hang `wait()`
            // forever.
            if !ctx.partial_recovery.load(Ordering::SeqCst) {
                ctx.request_terminate();
            }
            // The process is dead from here on: its endpoint goes now,
            // not when the daemon drops the container, so every peer's
            // coordination round hears of it at once.
            if let Some(id) = endpoint.get() {
                ctx.runtime.fabric().kill(*id);
            }
        }
        results.lock()[rank] = Some(outcome);
        // The application thread is done with the checkpoint window.
        ctx.container.gate().retire();
    })
}

fn spawn_job<A: MpiApp>(
    runtime: &Runtime,
    app: Arc<A>,
    config: RunConfig,
    restored: Option<Vec<opal::ProcessImage>>,
    resume_floor: Option<u64>,
) -> Result<MpiJob<A::State>, CrError> {
    let results: Arc<Mutex<Vec<RankResult<A::State>>>> =
        Arc::new(Mutex::new((0..config.nprocs).map(|_| None).collect()));
    let pmls: RankPmls = Arc::new(Mutex::new(vec![None; config.nprocs as usize]));
    let (sync_tx, sync_rx) = mpsc::channel::<Option<CheckpointOptions>>();
    let spec = JobSpec {
        nprocs: config.nprocs,
        params: Arc::clone(&config.params),
        proc_main: make_proc_main(app, Arc::clone(&results), Arc::clone(&pmls), sync_tx.clone()),
        restored,
        resume_floor,
    };
    let handle = Arc::new(launch(runtime, spec)?);

    // Synchronous-request service: application ranks queue checkpoint
    // requests; this thread plays the global coordinator for them.
    let service_handle = Arc::clone(&handle);
    let tracer = runtime.tracer().clone();
    let sync_thread = std::thread::Builder::new()
        .name("ompi-sync-ckpt".into())
        .spawn(move || {
            // Until the stop message (`None`) or the last sender goes.
            while let Ok(Some(options)) = sync_rx.recv() {
                match service_handle.checkpoint(&options) {
                    Ok(outcome) => tracer.record(
                        "ompi.sync_ckpt.done",
                        &outcome.global_snapshot.display().to_string(),
                    ),
                    Err(e) => tracer.record("ompi.sync_ckpt.failed", &e.to_string()),
                }
            }
        })
        .map_err(|e| CrError::Io {
            context: "spawning sync checkpoint service".into(),
            detail: e.to_string(),
        })?;

    Ok(MpiJob {
        handle,
        results,
        pmls,
        sync_thread: Mutex::new(Some(sync_thread)),
        sync_tx,
    })
}

/// Launch `app` on `config.nprocs` ranks (the `mpirun` equivalent).
pub fn mpirun<A: MpiApp>(
    runtime: &Runtime,
    app: Arc<A>,
    config: RunConfig,
) -> Result<MpiJob<A::State>, CrError> {
    spawn_job(runtime, app, config, None, None)
}

/// Where restart pulls the process images from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartSource {
    /// Try surviving peer-memory replicas first, fall back to stable
    /// storage per rank. The default, and what the recovery supervisor
    /// uses: after `k` or fewer node losses every image comes from
    /// memory; beyond that the orphaned ranks come from disk.
    #[default]
    Auto,
    /// Peer-memory replicas only; fail if any rank's image has no
    /// surviving holder. Proves the fast path works with stable storage
    /// unavailable.
    Replica,
    /// Stable storage only — the paper's original broadcast path.
    Stable,
}

impl std::str::FromStr for RestartSource {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(RestartSource::Auto),
            "replica" => Ok(RestartSource::Replica),
            "stable" => Ok(RestartSource::Stable),
            other => Err(format!(
                "unknown restart source {other:?} (expected auto, replica, or stable)"
            )),
        }
    }
}

/// What a partial restart did: which interval the failed ranks resumed
/// from, where they landed, and where their images came from.
#[derive(Debug, Clone)]
pub struct PartialRestartOutcome {
    /// Interval the restarted ranks resumed from.
    pub interval: u64,
    /// The ranks recovered, ascending.
    pub ranks: Vec<u32>,
    /// Spare nodes claimed, one per distinct failed node.
    pub spares: Vec<netsim::NodeId>,
    /// How many images (or chunk sets) came out of peer memory.
    pub replica_images: u32,
}

/// Everything a restart can be told, in one struct. `Default` restores
/// the newest committed interval from the best available tier. Chunks
/// fetched from peer memory are always digest-verified, as the stable tier
/// verifies on read.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RestartOptions {
    /// Which tier(s) images may come from (`ompi-restart --source`).
    pub source: RestartSource,
    /// Interval to restore; `None` picks the newest committed one.
    pub interval: Option<u64>,
    /// Restrict recovery to these ranks (partial restart). Only honoured
    /// by [`MpiJob::restart_ranks`] on a live job; the whole-job
    /// [`restart`] entry point refuses it.
    pub ranks: Option<Vec<u32>>,
}

impl RestartOptions {
    /// Restrict (or widen) where images may come from.
    pub fn with_source(mut self, source: RestartSource) -> Self {
        self.source = source;
        self
    }

    /// Recover only these ranks ([`MpiJob::restart_ranks`]).
    pub fn with_ranks(mut self, ranks: Vec<u32>) -> Self {
        self.ranks = Some(ranks);
        self
    }
}

/// Restart a job from a global snapshot reference (the `ompi-restart`
/// equivalent). Only the directory is needed: the original launch
/// parameters are read from the snapshot metadata (paper §4).
/// `RestartOptions::default()` restores the most recent committed
/// interval, peer memory first ([`RestartSource::Auto`]).
///
/// Every committed interval restores from itself alone: dedup intervals
/// from their chunk manifests, all others from one local snapshot per
/// rank, peer memory first and stable storage for the misses.
pub fn restart<A: MpiApp>(
    runtime: &Runtime,
    app: Arc<A>,
    global_ref: &Path,
    opts: RestartOptions,
) -> Result<MpiJob<A::State>, CrError> {
    if opts.ranks.is_some() {
        return Err(CrError::Unsupported {
            detail: "restart() relaunches the whole job; recovering specific ranks \
                     goes through MpiJob::restart_ranks on the still-live job"
                .into(),
        });
    }
    if opts.source != RestartSource::Replica {
        // Join any in-flight early-release gather first: either it
        // promotes its interval to globally committed (and we restart
        // from it) or it failed (and the interval stays invisible, so we
        // fall back to the newest globally committed one). Restart never
        // reads a partially gathered interval either way.
        runtime.drain_writebehind();
    }
    let (global, interval, params) = open_interval(global_ref, opts.interval)?;
    let params = Arc::new(params);

    let nprocs = global.nprocs();
    let ranks: Vec<cr_core::Rank> = (0..nprocs).map(cr_core::Rank).collect();
    let (images, replica_images) =
        fetch_images(runtime, &global, interval, &ranks, &opts, &params)?;
    runtime.tracer().record(
        "ompi.restart",
        &format!(
            "{} ranks from {} interval {interval} ({replica_images} images from peer memory)",
            images.len(),
            global_ref.display(),
        ),
    );

    let config = RunConfig { nprocs, params };
    spawn_job(runtime, app, config, Some(images), Some(interval))
}

/// The global snapshot at `global_ref`, the committed interval to restore
/// (`wanted`, or the newest), and the launch parameters the snapshot
/// records (paper §4).
fn open_interval(
    global_ref: &Path,
    wanted: Option<u64>,
) -> Result<(GlobalSnapshot, u64, McaParams), CrError> {
    let global = GlobalSnapshot::open(global_ref)?;
    let interval = wanted
        .or(global.latest_interval())
        .ok_or(CrError::BadSnapshot {
            detail: "global snapshot has no committed intervals".into(),
        })?;
    if !global.intervals().contains(&interval) {
        return Err(CrError::BadSnapshot {
            detail: format!("interval {interval} was never committed"),
        });
    }
    let launch = global.launch_params();
    let params = McaParams::from_dump(launch.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    Ok((global, interval, params))
}

/// Obtain the process images of `ranks` at `interval`, in `ranks` order,
/// with how many came out of peer memory (for a manifest interval: how
/// many took at least one chunk from it). The one way a restart gets
/// images: whole-job [`restart`] passes every rank,
/// [`MpiJob::restart_ranks`] the failed ones.
///
/// Intervals committed through the dedup chunk store carry per-rank chunk
/// manifests. Every target's image comes out of one fetch batch over the
/// chunk tiers ([`orte::store::SnapshotStore::fetch_images`]): each
/// distinct chunk of the target set is fetched and verified once, its
/// digest checks and stable reads spread over the `opal_hash_workers`
/// pool. Every other interval holds one self-contained local snapshot per
/// rank: peer memory serves what it can, and each image is then decoded
/// where it lives, in one pass over the same pool — a peer-memory copy in
/// memory, a miss from its local snapshot on stable storage, each byte
/// read once — by the CRS component named in its metadata (which may
/// differ from the restart-time selection parameters). Neither path
/// writes anything on any node.
fn fetch_images(
    runtime: &Runtime,
    global: &GlobalSnapshot,
    interval: u64,
    ranks: &[cr_core::Rank],
    opts: &RestartOptions,
    params: &McaParams,
) -> Result<(Vec<opal::ProcessImage>, u32), CrError> {
    let job = global.job();
    let workers = opal::pool::hash_workers(params);
    if !global.chunk_manifests(interval).is_empty() {
        let source = match opts.source {
            RestartSource::Auto => orte::store::ChunkSource::Auto,
            RestartSource::Replica => orte::store::ChunkSource::ReplicaOnly,
            RestartSource::Stable => orte::store::ChunkSource::StableOnly,
        };
        let manifests = ranks
            .iter()
            .map(|&rank| {
                let rendered =
                    global
                        .chunk_manifest(interval, rank)
                        .ok_or_else(|| CrError::BadSnapshot {
                            detail: format!(
                                "dedup interval {interval} has no chunk manifest for rank {rank}"
                            ),
                        })?;
                codec::ChunkManifest::parse(rendered).map_err(CrError::Codec)
            })
            .collect::<Result<Vec<_>, CrError>>()?;
        let store = orte::store::SnapshotStore::open(runtime, job, global.dir())?;
        let (images, stats) = store.fetch_images(&manifests, source, true, workers)?;
        return Ok((images, stats.replica_images as u32));
    }

    // Peer memory first: each image from the first surviving replica
    // holder the snapshot metadata records (there are none without the
    // replica component); stable storage serves the misses.
    let held: Vec<_> = ranks
        .iter()
        .map(|&rank| {
            let holders = match opts.source {
                RestartSource::Stable => Vec::new(),
                _ => global.replica_holders(interval, rank),
            };
            let (image, _) = (!holders.is_empty())
                .then(|| orte::replica::fetch_image(runtime, job, interval, rank, &holders))
                .flatten()?;
            Some(image)
        })
        .collect();
    let missing: Vec<u32> = ranks
        .iter()
        .zip(&held)
        .filter_map(|(rank, image)| image.is_none().then_some(rank.0))
        .collect();
    if opts.source == RestartSource::Replica && !missing.is_empty() {
        return Err(CrError::BadSnapshot {
            detail: format!(
                "replica-only restart impossible: {} of {} needed images (ranks \
                 {missing:?}) have no surviving replica holder",
                missing.len(),
                ranks.len(),
            ),
        });
    }
    if !missing.is_empty() {
        // Never race an in-flight write-behind drain to the files.
        runtime.drain_writebehind();
    }

    // One pass over the pool decodes every image where it lives; a
    // stable read reports the on-disk bytes of the snapshot it read.
    let crs_fw = crs_framework(SelfCallbacks::new());
    let decode = |local: &cr_core::LocalSnapshot, context: &[u8]| {
        let crs = crs_fw
            .instantiate(local.crs_component(), params)
            .map_err(|e| CrError::Unsupported {
                detail: e.to_string(),
            })?;
        crs.restart(local, context)
    };
    let work: Vec<_> = ranks.iter().zip(held).collect();
    let decoded = opal::pool::map_claimed(&work, workers, |(&rank, image), _: &mut ()| {
        if let Some(image) = image {
            let dir = global
                .interval_dir(interval)
                .join(cr_core::snapshot::local_dir_name(rank));
            let (local, context) = image.open(&dir)?;
            return Ok((decode(&local, context)?, 0));
        }
        let local = global.local_snapshot(interval, rank)?;
        let image = decode(&local, &local.read_context()?)?;
        Ok((image, local.size_bytes()?))
    })?;

    let (mut replica_files, mut replica_bytes, mut stable_bytes) = (0, 0, 0);
    for ((_, image), (_, read)) in work.iter().zip(&decoded) {
        if let Some(image) = image {
            replica_files += image.files.len();
            replica_bytes += image.total_bytes();
        } else {
            stable_bytes += read;
        }
    }
    let (stable, replica) = (missing.len(), ranks.len() - missing.len());
    if replica > 0 {
        runtime.tracer().record(
            "filem.replica.preload",
            &format!("{replica} local snapshots, {replica_files} files, {replica_bytes} bytes"),
        );
    }
    if stable > 0 {
        runtime.tracer().record(
            "filem.preload",
            &format!("{stable} local snapshots, {} files, {stable_bytes} bytes", 2 * stable),
        );
    }
    let images = decoded.into_iter().map(|(image, _)| image).collect();
    Ok((images, replica as u32))
}
