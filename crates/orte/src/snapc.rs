//! SNAPC — the snapshot coordination framework (paper §5.1/§6.1).
//!
//! A SNAPC component owns the distributed checkpoint lifecycle: accept the
//! request, verify every process is willing, initiate per-process local
//! checkpoints, monitor progress, aggregate local snapshots into the
//! global snapshot on stable storage, and hand the user back the single
//! global snapshot reference.
//!
//! Components:
//!
//! * **`full`** — the paper's centralized design (Figure 1): the *global
//!   coordinator* (here: the thread invoking the checkpoint, playing
//!   `mpirun`) drives *local coordinators* (the per-node daemons) over
//!   OOB; each daemon drives its local processes' *application
//!   coordinators* (the notification threads); local snapshots land on
//!   node-local disk and are gathered to stable storage by FILEM, then the
//!   scratch copies are removed.
//! * **`tree`** — hierarchical coordination: the request fans out through
//!   a binomial tree of daemons and results aggregate back up it, so the
//!   global coordinator handles O(1) messages — the "hierarchal tree
//!   structure" technique §5.1 names as a motivating alternative. `full`
//!   is the same protocol over a depth-1 tree: every node a childless root.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mca::Framework;
use netsim::{EndpointId, NodeId};

use cr_core::request::{CheckpointOptions, CheckpointOutcome, CkptStats};
use cr_core::snapshot::IntervalRecord;
use cr_core::{CrError, JobId, Rank};

use crate::filem::{filem_framework, CopyRequest};
use crate::sched::copy_all_scheduled;
use crate::job::JobHandle;
use crate::oob::{daemon_addr, Caller, DaemonMsg, DaemonReply, RankCkpt, TreeSpec};
use crate::runtime::Runtime;

/// Concurrent transfers per wave of every gather and drain the wave
/// executor ([`copy_all_scheduled`]) runs for a checkpoint.
const GATHER_LANES: usize = 4;

/// A snapshot coordination component (global coordinator side).
pub trait SnapcComponent: Send + Sync {
    /// Component name.
    fn name(&self) -> &'static str;

    /// Run a full distributed checkpoint of `job`.
    fn checkpoint_job(
        &self,
        job: &JobHandle,
        options: &CheckpointOptions,
    ) -> Result<CheckpointOutcome, CrError>;
}

/// Assemble the SNAPC framework.
pub fn snapc_framework() -> Framework<dyn SnapcComponent> {
    let mut fw: Framework<dyn SnapcComponent> = Framework::new("snapc");
    fw.register("full", 20, "centralized global/local/app coordinators", |_| {
        Box::new(FullSnapc)
    });
    fw.register(
        "tree",
        15,
        "hierarchical coordination over a binomial daemon tree",
        |_| Box::new(TreeSnapc),
    );
    fw
}

// ---------------------------------------------------------------------------
// shared gather tail
// ---------------------------------------------------------------------------

/// Ask every live node's daemon to remove its interval scratch copies and
/// wait for the acknowledgements (a failed node's scratch died with it).
fn cleanup_scratch(
    runtime: &Runtime,
    job: JobId,
    interval: u64,
    nodes: &[NodeId],
) -> Result<(), CrError> {
    let hnp = Caller::new(runtime.fabric(), NodeId(0));
    let live: Vec<EndpointId> = nodes
        .iter()
        .filter_map(|node| daemon_addr(runtime, *node).ok())
        .collect();
    for daemon in &live {
        hnp.send(*daemon, &DaemonMsg::Cleanup { job, interval })?;
    }
    hnp.collect("scratch cleanup", live.len(), |_| Ok(()))
}

/// The start of every interval's commit record: each rank with the
/// hostname it runs on.
fn rank_hosts(job: &JobHandle) -> IntervalRecord {
    let hostname = |rank| job.runtime().topology().hostname(job.node_of(rank));
    IntervalRecord {
        ranks: (0..job.nprocs())
            .map(|r| (Rank(r), hostname(Rank(r)).to_string()))
            .collect(),
        ..IntervalRecord::default()
    }
}

/// Gather/commit/cleanup tail shared by the `full` and `tree` components.
///
/// `results` is the flat `(node, per-rank checkpoint)` listing the daemons
/// reported.
///
/// With any classic FILEM component the tail is the paper's Figure 1-F:
/// copy every local snapshot to stable storage over the wave executor's
/// bounded lanes ([`GATHER_LANES`]), commit the interval, then remove the
/// scratch copies. `snapc_early_release=true` pipelines this commit: the
/// interval is *locally* committed (every capture on
/// node-local disk), the request returns immediately, and the gather,
/// promotion to global commit, and scratch cleanup run on a registered
/// write-behind thread concurrently with resumed application progress. A
/// node failure mid-gather leaves the interval local-committed — invisible
/// to restart, which falls back to the newest globally committed one.
///
/// With `filem=replica` the durable commit happens into *peer memory*
/// first: every rank's image is ring-replicated into `k + 1` daemons'
/// stores ([`crate::replica::replicate`]), the holder locations are
/// recorded in the global metadata, and the interval is committed — that
/// is the moment the checkpoint becomes restorable (from memory). The
/// copy to stable storage then runs as an asynchronous *write-behind*
/// drain, registered with the runtime so disk-path restarts and shutdown
/// can wait for it. Scratch cleanup rides behind the drain, which reads
/// from the scratch copies.
///
/// Invariant (model-checked by `cr-model commit`, which runs the
/// `cr_core::snapshot::CommitListing` behind every `GlobalSnapshot`
/// commit call, see `crates/model/src/commit.rs` and DESIGN.md §2.4): a
/// restart-visible (`GlobalCommitted`) interval always has a fully drained
/// gather, and an interval's commit state climbs the lattice monotonically
/// under every interleaving of local commit, gather completion,
/// promotion, and mid-gather node death. The returned `CkptStats::commit`
/// is read back from the snapshot authority
/// (`GlobalSnapshot::commit_state`), never minted here — enforced by the
/// `commit-state` cr-lint rule.
///
/// With `filem_dedup_enabled=true` the tail is replaced wholesale by the
/// content-addressed commit ([`crate::store::dedup_commit`]): each rank
/// left its chunk manifest plus a pack of the chunks the interval's base
/// lacks; the packs are merged and each packed chunk verified once, only
/// chunks the stable [`opal::store::ChunkStore`] has never seen are
/// written (and pushed to the peer-memory chunk tier), references are
/// taken *before* the manifests are recorded, and the interval commits
/// with a dedup ratio in its stats. The refcount lifecycle is
/// model-checked by `cr-model gc`.
///
/// Besides the stats, returns the bytes the request waited for per
/// `(from node, to node)` link: none with early release.
fn gather_commit_cleanup(
    job: &JobHandle,
    interval: u64,
    interval_dir: &std::path::Path,
    results: &[(u32, RankCkpt)],
    tag: &str,
) -> Result<(CkptStats, BTreeMap<(u32, u32), u64>), CrError> {
    let runtime = job.runtime();
    let tracer = runtime.tracer();
    let params = job.params();
    let nodes = job.placement().nodes();
    let job_id = job.job();

    let filem_fw = filem_framework();
    let selection = filem_fw
        .resolve(params)
        .map_err(|e| CrError::Unsupported {
            detail: e.to_string(),
        })?
        .name;
    let filem = filem_fw.select(params).map_err(|e| CrError::Unsupported {
        detail: e.to_string(),
    })?;

    let early_release = params
        .get_bool_or("snapc_early_release", false)
        .unwrap_or(false);
    let batch: Vec<CopyRequest> = results
        .iter()
        .map(|(node, ckpt)| CopyRequest {
            src: ckpt.dir.clone(),
            src_node: NodeId(*node),
            dest: interval_dir.join(cr_core::snapshot::local_dir_name(Rank(ckpt.rank))),
            dest_node: NodeId(0),
        })
        .collect();

    // One record per interval, handed whole to the one commit call its path
    // makes. Partial-restart accounting: ranks running with the CRCP
    // message log expose its footprint through a container probe; the
    // per-rank bytes let `ompi-snapshot-info` show how much in-flight
    // traffic a partial restart would have to replay. Ranks without the
    // probe (log disabled) leave the list empty.
    let mut record = rank_hosts(job);
    record.msg_log_bytes = (0..job.nprocs())
        .filter_map(|r| {
            job.container(Rank(r))
                .probe("crcp.msglog")
                .and_then(|s| s.parse().ok())
                .map(|b| (Rank(r), b))
        })
        .collect();

    let dedup = params
        .get_bool_or("filem_dedup_enabled", false)
        .unwrap_or(false);
    if dedup {
        // Content-addressed commit: chunk manifests + refcounted blobs
        // replace whole-image gathers. Only never-before-seen chunks move.
        let committed = crate::store::dedup_commit(job, interval, results, record, tag)?;
        cleanup_scratch(runtime, job_id, interval, &nodes)?;
        return Ok(committed);
    }

    if selection == "replica" {
        let factor = params
            .get_parsed_or("filem_replica_factor", 1u32)
            .unwrap_or(1);
        let images: Vec<(Rank, u32, PathBuf)> = results
            .iter()
            .map(|(node, c)| (Rank(c.rank), *node, c.dir.clone()))
            .collect();
        let outcome = crate::replica::replicate(runtime, job_id, interval, &images, factor)?;
        tracer.record(
            "filem.gather",
            &format!("{} bytes to peer memory (factor {factor}){tag}", outcome.bytes),
        );
        let mut replicated = BTreeMap::new();
        for ((node, ckpt), (_, holders)) in results.iter().zip(&outcome.holders) {
            for holder in holders {
                *replicated.entry((*node, *holder)).or_insert(0) += ckpt.bytes;
            }
        }
        record.replica_holders = outcome.holders;
        let commit = {
            let mut global = job.global_snapshot()?;
            global.commit_interval(interval, &record)?;
            global.commit_state(interval)
        };
        // Write-behind: the stable-storage copy (and the scratch cleanup
        // behind it) runs off the critical path, over the bounded gather
        // lanes so the drain itself spreads over the links.
        let drain_rt = runtime.clone();
        let drain = move || {
            match copy_all_scheduled(&*filem, &batch, GATHER_LANES) {
                Ok((report, _)) => {
                    drain_rt.tracer().record(
                        "filem.drain",
                        &format!("{} files, {} bytes", report.files, report.bytes),
                    );
                    if let Err(e) = cleanup_scratch(&drain_rt, job_id, interval, &nodes) {
                        drain_rt.tracer().record("filem.drain.error", &e.to_string());
                    }
                }
                Err(e) => {
                    drain_rt.tracer().record("filem.drain.error", &e.to_string());
                }
            }
        };
        let handle = std::thread::Builder::new()
            .name("filem-drain".into())
            .spawn(drain)
            .map_err(|e| CrError::protocol(format!("spawn drain thread: {e}")))?;
        runtime.register_drain(handle);
        // Peer memory *is* the durable commit for the replica component;
        // `commit` reads back GlobalCommitted from the authority above.
        return Ok((CkptStats::plain(outcome.bytes, commit), replicated));
    }

    if early_release {
        // Pipelined commit: the ranks already resumed at their quiesce
        // gates; record the interval as locally committed and hand the
        // gather to a write-behind worker. Restart cannot see the
        // interval until the promotion below lands.
        let commit = {
            let mut global = job.global_snapshot()?;
            global.local_commit_interval(interval, &record)?;
            global.commit_state(interval)
        };
        tracer.record(
            "snapc.global.local_commit",
            &format!("interval {interval}{tag}"),
        );
        let bytes: u64 = results.iter().map(|(_, c)| c.bytes).sum();
        let delay_ms = params
            .get_parsed_or("snapc_gather_delay_ms", 0u64)
            .unwrap_or(0);
        let cell = job.global_snapshot_cell();
        let src_nodes: Vec<NodeId> = batch.iter().map(|r| r.src_node).collect();
        let drain_rt = runtime.clone();
        let watermark = job.commit_watermark();
        let tag = tag.to_string();
        let gather = move || {
            if delay_ms > 0 {
                // Fault-window knob for tests/ablation: widens the span in
                // which the interval is local-committed only.
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            }
            // A dead source node's local scratch is unreachable; its
            // interval must stay local-committed (restart falls back).
            if let Some(dead) = src_nodes.iter().find(|n| drain_rt.node_failed(**n)) {
                drain_rt.tracer().record(
                    "filem.gather.error",
                    &format!(
                        "interval {interval}: source {dead} failed mid-gather; \
                         interval stays local-committed"
                    ),
                );
                return;
            }
            match copy_all_scheduled(&*filem, &batch, GATHER_LANES) {
                Ok((report, sched)) => {
                    drain_rt.tracer().record(
                        "filem.sched.plan",
                        &format!("interval {interval}: {}{tag}", sched.render()),
                    );
                    let promoted = match cell.lock().as_mut() {
                        Some(global) => global.promote_interval(interval, &sched.render()),
                        None => Err(CrError::protocol(
                            "global snapshot cell empty during promotion",
                        )),
                    };
                    match promoted {
                        Ok(()) => {
                            drain_rt.tracer().record(
                                "filem.gather",
                                &format!("{} files, {} bytes{tag}", report.files, report.bytes),
                            );
                            if let Err(e) =
                                cleanup_scratch(&drain_rt, job_id, interval, &nodes)
                            {
                                drain_rt
                                    .tracer()
                                    .record("filem.gather.error", &e.to_string());
                            }
                            watermark.fetch_max(
                                interval + 1,
                                std::sync::atomic::Ordering::SeqCst,
                            );
                            drain_rt.tracer().record(
                                "snapc.global.global_commit",
                                &format!("interval {interval}"),
                            );
                        }
                        Err(e) => drain_rt
                            .tracer()
                            .record("filem.gather.error", &e.to_string()),
                    }
                }
                Err(e) => drain_rt.tracer().record(
                    "filem.gather.error",
                    &format!("interval {interval}: {e}"),
                ),
            }
        };
        let handle = std::thread::Builder::new()
            .name("filem-gather".into())
            .spawn(gather)
            .map_err(|e| CrError::protocol(format!("spawn gather thread: {e}")))?;
        runtime.register_drain(handle);
        // LocalCommitted here: the promotion lands in the gather thread.
        return Ok((CkptStats::plain(bytes, commit), BTreeMap::new()));
    }

    // Classic path: blocking gather to stable storage (Figure 1-F) over
    // the bounded worker pool, processes already resumed. Waves spread
    // over the links so one node's uplink is never doubled up while
    // another's sits idle.
    let (report, sched) = copy_all_scheduled(&*filem, &batch, GATHER_LANES)?;
    tracer.record(
        "filem.sched.plan",
        &format!("interval {interval}: {}{tag}", sched.render()),
    );
    tracer.record(
        "filem.gather",
        &format!("{} files, {} bytes{tag}", report.files, report.bytes),
    );
    record.gather_stats = Some(sched.render());
    let commit = {
        let mut global = job.global_snapshot()?;
        global.commit_interval(interval, &record)?;
        global.commit_state(interval)
    };
    cleanup_scratch(runtime, job_id, interval, &nodes)?;
    Ok((CkptStats::plain(report.bytes, commit), sched.bytes_per_link))
}

// ---------------------------------------------------------------------------
// full and tree
// ---------------------------------------------------------------------------

/// Verify every rank is checkpointable; error listing refusers otherwise
/// (all-or-nothing, paper §5.1).
fn verify_checkpointable(
    job: &JobHandle,
    hnp: &Caller,
    daemons: &[TreeSpec],
) -> Result<(), CrError> {
    for daemon in daemons {
        hnp.send(
            EndpointId(daemon.endpoint),
            &DaemonMsg::QueryCheckpointable { job: job.job() },
        )?;
    }
    let mut refusing = Vec::new();
    hnp.collect("checkpointable query", daemons.len(), |reply| match reply {
        DaemonReply::Checkpointable { ranks, .. } => {
            refusing.extend(
                ranks
                    .into_iter()
                    .filter(|(_, ok)| !ok)
                    .map(|(r, _)| Rank(r)),
            );
            Ok(())
        }
        other => Err(other.unexpected()),
    })?;
    if refusing.is_empty() {
        Ok(())
    } else {
        refusing.sort_unstable();
        Err(CrError::NotCheckpointable { ranks: refusing })
    }
}

/// Checkpoint every rank of `job` through `roots`: each root daemon
/// checkpoints its whole subtree and answers once, `root_done` seeing the
/// node of every answer as it arrives. All roots are contacted before any
/// reply is awaited — every rank must enter coordination concurrently.
/// Returns the flat `(node, per-rank checkpoint)` listing sorted by
/// (node, rank), so nothing downstream depends on reply arrival order.
fn checkpoint_subtrees(
    job: &JobHandle,
    hnp: &Caller,
    interval: u64,
    epoch: u64,
    base: Option<u64>,
    tag: &str,
    roots: Vec<TreeSpec>,
    root_done: impl Fn(u32),
) -> Result<Vec<(u32, RankCkpt)>, CrError> {
    let expected = roots.len();
    for root in roots {
        let request = DaemonMsg::CheckpointTree {
            job: job.job(),
            interval,
            epoch,
            base,
            children: root.children,
        };
        hnp.send(EndpointId(root.endpoint), &request)?;
    }
    let mut results: Vec<(u32, RankCkpt)> = Vec::new();
    hnp.collect(&format!("checkpoint{tag}"), expected, |reply| match reply {
        DaemonReply::TreeDone { node, results: sub } => {
            root_done(node);
            results.extend(sub);
            Ok(())
        }
        other => Err(other.unexpected()),
    })?;
    if results.len() != job.nprocs() as usize {
        return Err(CrError::protocol(format!(
            "checkpoint{tag} returned {} results for {} ranks",
            results.len(),
            job.nprocs()
        )));
    }
    results.sort_by_key(|(node, ckpt)| (*node, ckpt.rank));
    Ok(results)
}

/// The daemons of `job`'s placement as childless subtrees, node order.
fn placement_daemons(job: &JobHandle) -> Result<Vec<TreeSpec>, CrError> {
    job.placement()
        .nodes()
        .into_iter()
        .map(|node| {
            Ok(TreeSpec {
                endpoint: daemon_addr(job.runtime(), node)?.0,
                node: node.0,
                children: Vec::new(),
            })
        })
        .collect()
}

/// The coordination `full` and `tree` share; `shape` arranges the
/// placement's daemons into the roots the global coordinator contacts
/// itself.
fn coordinate(
    job: &JobHandle,
    tag: &str,
    shape: impl FnOnce(Vec<TreeSpec>) -> Vec<TreeSpec>,
    root_done: impl Fn(u32),
) -> Result<CheckpointOutcome, CrError> {
    let runtime = job.runtime();
    let hnp = Caller::new(runtime.fabric(), NodeId(0));
    let daemons = placement_daemons(job)?;

    // All-or-nothing: refuse before any process is disturbed.
    verify_checkpointable(job, &hnp, &daemons)?;

    // Begin the interval on stable storage (uncommitted until the end),
    // noting first the base a dedup-mode rank packs against: the newest
    // committed interval, when the dedup store holds its chunks. (Only
    // that one is looked at, so a job without dedup pays one lookup per
    // checkpoint, not one per interval it ever committed.)
    let (base, interval, interval_dir) = {
        let mut global = job.global_snapshot()?;
        let base = global
            .latest_interval()
            .filter(|i| !global.chunk_manifests(*i).is_empty());
        let (interval, dir) = global.begin_interval()?;
        (base, interval, dir)
    };
    runtime.tracer().record(
        "snapc.global.initiate",
        &format!("interval {interval}{tag}"),
    );
    let epoch = job.next_epoch();

    let results =
        checkpoint_subtrees(job, &hnp, interval, epoch, base, tag, shape(daemons), root_done)
        .inspect_err(|_| {
            // Leave the interval uncommitted (invisible) and report.
            let _ = std::fs::remove_dir_all(&interval_dir);
        })?;

    // Aggregate, commit, and clean up (peer-memory first with
    // `filem=replica`, synchronous stable-storage gather otherwise).
    let (mut stats, waited) = gather_commit_cleanup(job, interval, &interval_dir, &results, tag)?;
    // The price of what the request waited for, kept only for
    // `benchmark/`; it goes with ROADMAP item 12.
    let topology = job.runtime().topology();
    stats.sim_ns = waited
        .iter()
        .map(|(&(a, b), &bytes)| topology.cost(NodeId(a), NodeId(b), bytes as usize).as_nanos())
        .sum();

    Ok(CheckpointOutcome {
        global_snapshot: job.global_snapshot_path(),
        interval,
        ranks: job.nprocs(),
        stats,
    })
}

/// The paper's centralized coordinator: the global coordinator contacts
/// every local coordinator itself.
pub struct FullSnapc;

impl SnapcComponent for FullSnapc {
    fn name(&self) -> &'static str {
        "full"
    }

    fn checkpoint_job(
        &self,
        job: &JobHandle,
        _options: &CheckpointOptions,
    ) -> Result<CheckpointOutcome, CrError> {
        let tracer = job.runtime().tracer();
        coordinate(
            job,
            "",
            |daemons| daemons,
            |node| tracer.record("snapc.global.local_done", &format!("node {node}")),
        )
    }
}

/// Hierarchical coordinator: the request fans out through a binomial tree
/// of daemons instead of the global coordinator contacting every node
/// itself — the "hierarchal tree structure" flexibility the paper's SNAPC
/// framework is designed to admit (§5.1). Results aggregate back up the
/// same tree, so the HNP handles O(1) messages regardless of node count.
pub struct TreeSnapc;

/// Arrange `daemons` (childless) into one binomial tree rooted at the
/// first: daemon i's children are i + 2^k for every k below i's lowest
/// set bit (every k, for the root) with i + 2^k in range.
fn binomial_tree(daemons: Vec<TreeSpec>) -> Vec<TreeSpec> {
    let mut placed: Vec<Option<TreeSpec>> = daemons.into_iter().map(Some).collect();
    // Highest index first: a daemon's children all sit above it, so each
    // is complete by the time its parent takes it.
    for i in (0..placed.len()).rev() {
        let mut children = Vec::new();
        let mut mask = 1usize;
        while i & mask == 0 && i + mask < placed.len() {
            children.extend(placed.get_mut(i + mask).and_then(Option::take));
            mask <<= 1;
        }
        if let Some(Some(daemon)) = placed.get_mut(i) {
            daemon.children = children;
        }
    }
    placed.into_iter().flatten().collect()
}

impl SnapcComponent for TreeSnapc {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn checkpoint_job(
        &self,
        job: &JobHandle,
        _options: &CheckpointOptions,
    ) -> Result<CheckpointOutcome, CrError> {
        // One message to the tree root; the daemons do the fan-out.
        coordinate(job, " (tree)", binomial_tree, |_| ())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::{launch, JobSpec, LaunchCtx};
    use crate::runtime::Runtime;
    use cr_core::inc::LayerInc;
    use cr_core::snapshot::GlobalSnapshot;
    use cr_core::CommitState;
    use mca::McaParams;
    use netsim::{LinkSpec, Topology};
    use opal::crs::{crs_framework, SelfCallbacks};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    pub(crate) fn runtime(tag: &str, nodes: u32) -> Runtime {
        let dir = std::env::temp_dir().join(format!(
            "orte_snapc_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Runtime::new(Topology::uniform(nodes, LinkSpec::gigabit_ethernet()), dir).unwrap()
    }

    /// Checkpointable spinning app: sets up CRS + OPAL INC, spins on the
    /// gate until terminated.
    fn spinning_app() -> crate::job::ProcMain {
        Arc::new(|ctx: LaunchCtx| {
            let fw = crs_framework(SelfCallbacks::new());
            ctx.container
                .set_crs(Arc::from(fw.select(&ctx.params).unwrap()));
            let rank = ctx.name.rank;
            ctx.container.register_capture(
                "app",
                Arc::new(move || Ok(codec::to_bytes(&format!("state of rank {rank}")))),
            );
            ctx.container
                .install_opal_inc(LayerInc::new("opal", ctx.runtime.tracer().clone()));
            ctx.container.enable_checkpointing();
            while !ctx.terminate.load(Ordering::SeqCst) {
                ctx.container.gate().checkpoint_point();
                std::thread::yield_now();
            }
            ctx.container.gate().retire();
        })
    }

    pub(crate) fn launch_spinning(rt: &Runtime, nprocs: u32, params: Arc<McaParams>) -> crate::job::JobHandle {
        let handle = launch(rt, JobSpec::new(nprocs, params, spinning_app())).unwrap();
        // Give ranks a moment to install their CRS.
        for r in 0..nprocs {
            while handle.container(Rank(r)).crs().is_none() {
                std::thread::yield_now();
            }
        }
        handle
    }

    #[test]
    fn full_checkpoint_produces_restorable_global_snapshot() {
        let rt = runtime("full", 2);
        let params = Arc::new(McaParams::new());
        let handle = launch_spinning(&rt, 4, params);
        let outcome = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        assert_eq!(outcome.ranks, 4);
        assert_eq!(outcome.interval, 0);
        assert_eq!(outcome.stats.commit, CommitState::GlobalCommitted);

        let global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
        assert_eq!(global.intervals(), vec![0]);
        let locals = global.local_snapshots(0).unwrap();
        assert_eq!(locals.len(), 4);
        for (i, local) in locals.iter().enumerate() {
            assert_eq!(local.rank(), Rank(i as u32));
            assert_eq!(local.crs_component(), "blcr_sim");
            let bytes = local.read_context().unwrap();
            assert!(!bytes.is_empty());
        }
        // Node-local scratch copies were cleaned up.
        for node in handle.placement().nodes() {
            let daemon = rt.ensure_daemon(node);
            assert!(!daemon.local_interval_dir(handle.job(), 0).exists());
        }

        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn consecutive_intervals_accumulate() {
        let rt = runtime("intervals", 2);
        let handle = launch_spinning(&rt, 2, Arc::new(McaParams::new()));
        for expected in 0..3 {
            let outcome = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
            assert_eq!(outcome.interval, expected);
        }
        let global = GlobalSnapshot::open(&handle.global_snapshot_path()).unwrap();
        assert_eq!(global.intervals(), vec![0, 1, 2]);
        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn non_checkpointable_rank_fails_whole_request_without_side_effects() {
        let rt = runtime("optout", 2);
        let handle = launch_spinning(&rt, 3, Arc::new(McaParams::new()));
        handle.container(Rank(2)).set_checkpointable(false);
        let err = handle.checkpoint(&CheckpointOptions::tool()).unwrap_err();
        match err {
            CrError::NotCheckpointable { ranks } => assert_eq!(ranks, vec![Rank(2)]),
            other => panic!("unexpected error {other:?}"),
        }
        // No interval was begun or committed.
        let global = GlobalSnapshot::open(&handle.global_snapshot_path());
        if let Ok(g) = global {
            assert!(g.intervals().is_empty());
        }
        // The job is still alive and checkpointable after re-enabling.
        handle.container(Rank(2)).set_checkpointable(true);
        handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    /// Every checkpoint goes through the daemons: `direct` is refused by
    /// name.
    #[test]
    fn direct_is_an_unknown_component() {
        let params = McaParams::new();
        params.set("snapc", "direct");
        let err = snapc_framework().select(&params).err();
        assert_eq!(
            err,
            Some(mca::SelectError::UnknownComponent {
                framework: "snapc".into(),
                requested: "direct".into(),
                available: vec!["full", "tree"],
            })
        );
    }

    #[test]
    fn checkpoint_and_terminate_stops_the_job() {
        let rt = runtime("ckptterm", 1);
        let handle = launch_spinning(&rt, 2, Arc::new(McaParams::new()));
        let outcome = handle
            .checkpoint(&CheckpointOptions::tool().and_terminate())
            .unwrap();
        assert!(outcome.global_snapshot.exists());
        // Terminate flag was set by checkpoint(); join completes.
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn figure1_event_ordering_holds() {
        let rt = runtime("fig1", 2);
        let handle = launch_spinning(&rt, 2, Arc::new(McaParams::new()));
        rt.tracer().clear();
        handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        let tracer = rt.tracer();
        // A: request precedes B: initiate precedes C: local initiate
        // precedes D: app done precedes E: local done precedes F: gather
        // precedes the reference being returned.
        tracer.assert_order("snapc.global.request", "snapc.global.initiate");
        tracer.assert_order("snapc.global.initiate", "snapc.local.initiate");
        tracer.assert_order("snapc.local.initiate", "opal.crs.checkpoint");
        tracer.assert_order("opal.crs.checkpoint", "snapc.app.done");
        tracer.assert_order("snapc.app.done", "snapc.local.done");
        tracer.assert_order("snapc.local.done", "filem.gather");
        tracer.assert_order("filem.gather", "snapc.global.reference_returned");
        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn early_release_returns_before_gather_and_promotes_after_drain() {
        let rt = runtime("early", 2);
        let params = Arc::new(McaParams::new());
        params.set("snapc_early_release", "true");
        params.set("snapc_gather_delay_ms", "150");
        let handle = launch_spinning(&rt, 4, params);
        rt.tracer().clear();
        let outcome = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        // The request came back with only the local commit done, having
        // waited for no transfer.
        assert_eq!(outcome.stats.commit, CommitState::LocalCommitted);
        assert_eq!(outcome.stats.sim_ns, 0);
        {
            let global = handle.global_snapshot().unwrap();
            assert_eq!(global.commit_state(0), CommitState::LocalCommitted);
        }
        rt.tracer()
            .assert_order("snapc.global.local_commit", "snapc.global.reference_returned");

        // Joining the write-behind gather promotes the interval.
        rt.drain_writebehind();
        {
            let global = handle.global_snapshot().unwrap();
            assert_eq!(global.commit_state(0), CommitState::GlobalCommitted);
        }
        // The gather ran after the reference was already returned.
        rt.tracer()
            .assert_order("snapc.global.reference_returned", "filem.gather");
        rt.tracer()
            .assert_order("filem.gather", "snapc.global.global_commit");

        // A fresh reader sees a complete, restorable interval.
        let global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
        assert_eq!(global.intervals(), vec![0]);
        assert_eq!(global.local_snapshots(0).unwrap().len(), 4);

        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn early_release_intervals_do_not_collide() {
        let rt = runtime("early_seq", 2);
        let params = Arc::new(McaParams::new());
        params.set("snapc_early_release", "true");
        params.set("snapc_gather_delay_ms", "100");
        let handle = launch_spinning(&rt, 2, params);
        // Second request fires while the first interval is still only
        // locally committed; numbering must still advance.
        let first = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        let second = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        assert_eq!(first.interval, 0);
        assert_eq!(second.interval, 1);
        rt.drain_writebehind();
        let global = GlobalSnapshot::open(&handle.global_snapshot_path()).unwrap();
        assert_eq!(global.intervals(), vec![0, 1]);
        assert_eq!(global.commit_state(0), CommitState::GlobalCommitted);
        assert_eq!(global.commit_state(1), CommitState::GlobalCommitted);
        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn failed_local_checkpoint_leaves_interval_uncommitted() {
        let rt = runtime("failure", 1);
        let params = Arc::new(McaParams::new());
        params.set("crs_blcr_sim_fail_every", "1"); // every checkpoint fails
        let handle = launch_spinning(&rt, 2, params);
        let err = handle.checkpoint(&CheckpointOptions::tool()).unwrap_err();
        assert!(err.to_string().contains("injected failure"));
        let global = GlobalSnapshot::open(&handle.global_snapshot_path()).unwrap();
        assert!(global.intervals().is_empty());
        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;
    use crate::snapc::tests::{launch_spinning, runtime};
    use cr_core::request::CheckpointOptions;
    use cr_core::snapshot::GlobalSnapshot;
    use mca::McaParams;
    use std::sync::Arc;

    fn childless(nodes: u32) -> Vec<TreeSpec> {
        (0..nodes)
            .map(|node| TreeSpec {
                endpoint: 100 + u64::from(node),
                node,
                children: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn binomial_tree_covers_all_nodes_once() {
        let roots = binomial_tree(childless(7));
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!((root.node, root.endpoint), (0, 100));
        // Collect every node covered by the root's children.
        fn collect(spec: &TreeSpec, out: &mut Vec<u32>) {
            out.push(spec.node);
            assert_eq!(spec.endpoint, 100 + u64::from(spec.node));
            for c in &spec.children {
                collect(c, out);
            }
        }
        let mut covered = Vec::new();
        for c in &root.children {
            collect(c, &mut covered);
        }
        covered.sort_unstable();
        // Root (node 0) is not in its own child list; everyone else once.
        assert_eq!(covered, (1..7).collect::<Vec<u32>>());
        // Root has ceil(log2(7)) = 3 children: 1, 2, 4.
        let roots: Vec<u32> = root.children.iter().map(|c| c.node).collect();
        assert_eq!(roots, vec![1, 2, 4]);
        assert!(binomial_tree(Vec::new()).is_empty());
    }

    #[test]
    fn full_and_tree_return_the_same_listing_and_restorable_snapshots() {
        let rt = runtime("full_vs_tree", 4);
        let handle = launch_spinning(&rt, 8, Arc::new(McaParams::new()));
        let hnp = Caller::new(rt.fabric(), NodeId(0));
        let listing = |interval: u64, roots: Vec<TreeSpec>| -> Vec<(u32, u32)> {
            checkpoint_subtrees(&handle, &hnp, interval, interval, None, "", roots, |_| ())
                .unwrap()
                .iter()
                .map(|(node, ckpt)| (*node, ckpt.rank))
                .collect()
        };
        let daemons = placement_daemons(&handle).unwrap();
        let full = listing(100, daemons.clone());
        let tree = listing(101, binomial_tree(daemons));
        assert_eq!(full, tree);
        let mut sorted: Vec<(u32, u32)> = (0..8).map(|r| (handle.node_of(Rank(r)).0, r)).collect();
        sorted.sort_unstable();
        assert_eq!(full, sorted, "sorted by (node, rank), every rank once");

        // Through either component the same job commits a restorable
        // interval.
        let opts = CheckpointOptions::tool();
        for component in [&FullSnapc as &dyn SnapcComponent, &TreeSnapc] {
            let outcome = component.checkpoint_job(&handle, &opts).unwrap();
            let global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
            let locals = global.local_snapshots(outcome.interval).unwrap();
            assert_eq!(locals.len(), 8, "{}", component.name());
            for (r, local) in locals.iter().enumerate() {
                assert_eq!(local.rank(), Rank(r as u32));
                assert!(!local.read_context().unwrap().is_empty());
            }
        }

        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn tree_checkpoint_produces_complete_snapshot() {
        let rt = runtime("tree", 4);
        let params = Arc::new(McaParams::new());
        params.set("snapc", "tree");
        let handle = launch_spinning(&rt, 8, params);
        rt.tracer().clear();
        let outcome = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        assert_eq!(outcome.ranks, 8);

        let global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
        let locals = global.local_snapshots(outcome.interval).unwrap();
        assert_eq!(locals.len(), 8);

        // The fan-out actually went through the tree: forwards recorded,
        // and the HNP received exactly one aggregated reply (no per-node
        // local_done events at the global coordinator).
        assert!(rt.tracer().count_prefix("snapc.tree.forward") >= 3);
        assert_eq!(rt.tracer().count_prefix("snapc.global.local_done"), 0);

        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn tree_on_single_node_degenerates_cleanly() {
        let rt = runtime("tree1", 1);
        let params = Arc::new(McaParams::new());
        params.set("snapc", "tree");
        let handle = launch_spinning(&rt, 2, params);
        let outcome = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
        assert_eq!(outcome.ranks, 2);
        handle.request_terminate();
        handle.join().unwrap();
        rt.shutdown();
    }
}
