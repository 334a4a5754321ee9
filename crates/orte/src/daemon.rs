//! The per-node daemon (`orted`) — SNAPC's *local coordinator*.
//!
//! One daemon runs on every node that hosts application processes. For
//! checkpointing it (paper Figure 1, boxes C–E):
//!
//! * reports which of its local processes are checkpointable,
//! * on a checkpoint request, prepares the node-local interval directory
//!   and notifies **all** of its local processes before collecting any
//!   completion — every rank must enter the coordination protocol
//!   concurrently or the bookmark exchange deadlocks,
//! * reports the produced local snapshot references back to the global
//!   coordinator, and
//! * removes node-local scratch snapshots after they have been gathered to
//!   stable storage.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use netsim::{EndpointId, Fabric, NodeId};
use parking_lot::Mutex;

use cr_core::request::CheckpointOptions;
use cr_core::{CrError, JobId, Rank, Tracer};
use opal::container::{CkptReply, OpalCtrl};
use opal::ProcessContainer;

use crate::oob::{self, Caller, DaemonMsg, DaemonReply, RankCkpt, TreeSpec};
use crate::replica::ReplicaStore;

/// Pending per-rank checkpoint completions (phase 1 output of a local
/// checkpoint).
type PendingLocal = Vec<(Rank, mpsc::Receiver<Result<CkptReply, CrError>>)>;

/// A process registered with its node daemon.
struct LocalProc {
    container: Arc<ProcessContainer>,
    ctrl: Sender<OpalCtrl>,
}

/// Handle to a running per-node daemon.
pub struct Orted {
    node: NodeId,
    endpoint_id: EndpointId,
    fabric: Fabric,
    node_dir: PathBuf,
    tracer: Tracer,
    procs: Mutex<HashMap<(JobId, Rank), LocalProc>>,
    replicas: ReplicaStore,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Orted {
    /// Spawn the daemon thread for `node`, with `node_dir` as its
    /// node-local scratch directory.
    pub fn spawn(fabric: Fabric, node: NodeId, node_dir: PathBuf, tracer: Tracer) -> Arc<Orted> {
        let endpoint = fabric.register(node);
        let daemon = Arc::new(Orted {
            node,
            endpoint_id: endpoint.id(),
            fabric,
            node_dir,
            tracer,
            procs: Mutex::new(HashMap::new()),
            replicas: ReplicaStore::new(),
            thread: Mutex::new(None),
        });
        let runner = Arc::clone(&daemon);
        let handle = std::thread::Builder::new()
            .name(format!("orted-{node}"))
            .spawn(move || oob::serve(&endpoint, |msg| runner.handle(msg)))
            .expect("spawn orted");
        *daemon.thread.lock() = Some(handle);
        daemon
    }

    /// This daemon's OOB address.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint_id
    }

    /// Node this daemon manages.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This daemon's in-memory replica store (volatile peer memory: dies
    /// with the daemon, which is the point).
    pub fn replicas(&self) -> &ReplicaStore {
        &self.replicas
    }

    /// Node-local directory that holds interval scratch snapshots for a
    /// job/interval pair.
    pub fn local_interval_dir(&self, job: JobId, interval: u64) -> PathBuf {
        self.node_dir
            .join("ckpt")
            .join(job.to_string())
            .join(interval.to_string())
    }

    /// Register a local process (called by the launcher).
    pub fn register_proc(
        &self,
        job: JobId,
        rank: Rank,
        container: Arc<ProcessContainer>,
        ctrl: Sender<OpalCtrl>,
    ) {
        self.procs
            .lock()
            .insert((job, rank), LocalProc { container, ctrl });
    }

    /// Wake every local process of `job` from a blocking wait (the job is
    /// terminating).
    pub fn wake_job(&self, job: JobId) {
        let gates: Vec<_> = self
            .procs
            .lock()
            .iter()
            .filter(|((j, _), _)| *j == job)
            .map(|(_, p)| Arc::clone(&p.container))
            .collect();
        for container in gates {
            container.gate().wake();
        }
    }

    /// Remove a job's processes from this daemon (job teardown).
    pub fn deregister_job(&self, job: JobId) {
        self.procs.lock().retain(|(j, _), _| *j != job);
    }

    /// Ask the daemon thread to exit and wait for it.
    pub fn shutdown(&self) {
        // Best effort: the daemon may already be gone.
        let _ = Caller::new(&self.fabric, self.node).send(self.endpoint_id, &DaemonMsg::Shutdown);
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }

    // -- daemon thread ------------------------------------------------------

    /// The one reply to one request; `None` for the request to stop. The
    /// serving endpoint only ever carries requests: replies to what this
    /// daemon forwards arrive on a [`Caller`]'s private endpoint.
    fn handle(&self, msg: DaemonMsg) -> Option<DaemonReply> {
        let node = self.node.0;
        Some(match msg {
            DaemonMsg::Shutdown => return None,
            DaemonMsg::QueryCheckpointable { job } => {
                let mut ranks: Vec<(u32, bool)> = self
                    .procs
                    .lock()
                    .iter()
                    .filter(|((j, _), _)| *j == job)
                    .map(|((_, r), p)| (r.0, p.container.is_checkpointable()))
                    .collect();
                ranks.sort_unstable();
                DaemonReply::Checkpointable { node, ranks }
            }
            DaemonMsg::CheckpointTree {
                job,
                interval,
                epoch,
                base,
                children,
            } => match self.checkpoint_tree(job, interval, epoch, base, children) {
                Ok(results) => DaemonReply::TreeDone { node, results },
                Err(e) => DaemonReply::Error {
                    node,
                    detail: e.to_string(),
                },
            },
            DaemonMsg::Cleanup { job, interval } => {
                let dir = self.local_interval_dir(job, interval);
                let _ = std::fs::remove_dir_all(&dir);
                self.tracer
                    .record("filem.local.remove", &dir.display().to_string());
                DaemonReply::Ack { node }
            }
            DaemonMsg::ReplicaPut {
                job,
                interval,
                image,
            } => {
                self.replicas.put(job, interval, image);
                DaemonReply::Ack { node }
            }
            DaemonMsg::ReplicaFetch {
                job,
                interval,
                rank,
            } => DaemonReply::ReplicaImageReply {
                node,
                image: self.replicas.get(job, interval, rank),
            },
            DaemonMsg::ReplicaExpire { job, interval } => DaemonReply::Removed {
                node,
                removed: self.replicas.expire_interval(job, interval),
            },
            DaemonMsg::ReplicaInventory { job } => DaemonReply::ReplicaHolding {
                node,
                entries: self.replicas.inventory(job),
            },
            DaemonMsg::ChunkPut { job, chunks } => {
                for (id, bytes) in chunks {
                    self.replicas.put_chunk(job, id, bytes.into());
                }
                DaemonReply::Ack { node }
            }
            DaemonMsg::ChunkFetch { job, ids } => DaemonReply::ChunkData {
                node,
                chunks: ids
                    .iter()
                    .map(|id| self.replicas.get_chunk(job, id).map(Into::into))
                    .collect(),
            },
            DaemonMsg::ChunkExpire { job, ids } => DaemonReply::Removed {
                node,
                removed: self.replicas.expire_chunks(job, &ids),
            },
        })
    }

    /// Checkpoint this node's subtree: forward into the child subtrees
    /// first (children proceed concurrently), then checkpoint the local
    /// ranks, then aggregate local and subtree results. With no children
    /// this is the plain local checkpoint. `base` travels unchanged to the
    /// children and to every local rank's CRS.
    fn checkpoint_tree(
        &self,
        job: JobId,
        interval: u64,
        epoch: u64,
        base: Option<u64>,
        children: Vec<TreeSpec>,
    ) -> Result<Vec<(u32, RankCkpt)>, CrError> {
        // A leaf forwards nothing, so it registers no reply endpoint: each
        // registration takes the fabric's write lock against every rank's
        // sends, which the small checkpoints feel.
        let subtrees = children.len();
        let forward = (subtrees > 0).then(|| Caller::new(&self.fabric, self.node));
        if let Some(forward) = &forward {
            for child in children {
                forward.send(
                    EndpointId(child.endpoint),
                    &DaemonMsg::CheckpointTree {
                        job,
                        interval,
                        epoch,
                        base,
                        children: child.children,
                    },
                )?;
                self.tracer.record(
                    "snapc.tree.forward",
                    &format!("{} -> node {}", self.node, child.node),
                );
            }
        }
        let waits = self.notify_local(job, interval, epoch, base)?;
        let mut results: Vec<(u32, RankCkpt)> = self
            .collect_local(interval, waits)?
            .into_iter()
            .map(|ckpt| (self.node.0, ckpt))
            .collect();
        if let Some(forward) = &forward {
            forward.collect("subtree checkpoint", subtrees, |reply| match reply {
                DaemonReply::TreeDone { results: sub, .. } => {
                    results.extend(sub);
                    Ok(())
                }
                other => Err(other.unexpected()),
            })?;
        }
        Ok(results)
    }

    /// Phase 1 of a local checkpoint: prepare the interval directory and
    /// notify every local process (without waiting in between — all ranks
    /// must enter coordination concurrently).
    fn notify_local(
        &self,
        job: JobId,
        interval: u64,
        epoch: u64,
        base: Option<u64>,
    ) -> Result<PendingLocal, CrError> {
        let dir = self.local_interval_dir(job, interval);
        std::fs::create_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        self.tracer.record(
            "snapc.local.initiate",
            &format!("{} interval {interval}", self.node),
        );

        let mut waits: PendingLocal = Vec::new();
        {
            let procs = self.procs.lock();
            let mut local: Vec<(&(JobId, Rank), &LocalProc)> =
                procs.iter().filter(|((j, _), _)| *j == job).collect();
            local.sort_by_key(|((_, r), _)| *r);
            for ((_, rank), proc_entry) in local {
                let (rtx, rrx) = mpsc::channel();
                proc_entry
                    .ctrl
                    .send(OpalCtrl::Checkpoint {
                        snapshot_parent: dir.clone(),
                        interval,
                        epoch,
                        base,
                        options: CheckpointOptions::tool(),
                        reply: rtx,
                    })
                    .map_err(|_| CrError::PeerLost {
                        detail: format!("process {rank} notification channel closed"),
                    })?;
                waits.push((*rank, rrx));
            }
        }

        if waits.is_empty() {
            return Err(CrError::protocol(format!(
                "daemon on {} has no processes of {job}",
                self.node
            )));
        }
        Ok(waits)
    }

    /// Phase 2 of a local checkpoint: collect completions.
    fn collect_local(
        &self,
        interval: u64,
        waits: PendingLocal,
    ) -> Result<Vec<RankCkpt>, CrError> {
        let mut results = Vec::with_capacity(waits.len());
        let mut failures = Vec::new();
        for (rank, rrx) in waits {
            match rrx.recv() {
                Ok(Ok(reply)) => {
                    self.tracer
                        .record("snapc.app.done", &format!("rank {rank}"));
                    results.push(RankCkpt {
                        rank: rank.0,
                        dir: reply.snapshot_dir,
                        bytes: reply.size_bytes,
                    });
                }
                Ok(Err(e)) => failures.push(format!("rank {rank}: {e}")),
                Err(_) => failures.push(format!("rank {rank}: notification thread died")),
            }
        }
        if !failures.is_empty() {
            return Err(CrError::protocol(failures.join("; ")));
        }
        self.tracer.record(
            "snapc.local.done",
            &format!("{} interval {interval}", self.node),
        );
        Ok(results)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cr_core::inc::LayerInc;
    use cr_core::ProcessName;
    use mca::McaParams;
    use netsim::{LinkSpec, Topology};
    use opal::crs::{crs_framework, SelfCallbacks};
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(crate) fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "orte_daemon_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Minimal checkpointable process: container + notification thread +
    /// an app thread spinning on the gate.
    pub(crate) fn spawn_proc(
        job: JobId,
        rank: Rank,
        tracer: &Tracer,
        stop: Arc<AtomicBool>,
    ) -> (Arc<ProcessContainer>, Sender<OpalCtrl>, JoinHandle<()>) {
        spawn_held_proc(job, rank, tracer, stop, Arc::new(AtomicBool::new(false)))
    }

    /// Like [`spawn_proc`], but the app stays off its safe point for as
    /// long as `hold` is set.
    fn spawn_held_proc(
        job: JobId,
        rank: Rank,
        tracer: &Tracer,
        stop: Arc<AtomicBool>,
        hold: Arc<AtomicBool>,
    ) -> (Arc<ProcessContainer>, Sender<OpalCtrl>, JoinHandle<()>) {
        let container = ProcessContainer::new(ProcessName::new(job, rank), "node00", tracer.clone());
        let fw = crs_framework(SelfCallbacks::new());
        container.set_crs(Arc::from(fw.select(&McaParams::new()).unwrap()));
        container.register_capture("app", Arc::new(move || Ok(vec![0xAB; 64])));
        container.install_opal_inc(LayerInc::new("opal", tracer.clone()));
        container.enable_checkpointing();
        let (tx, rx) = mpsc::channel();
        container.spawn_notification_thread(rx);
        let gate = Arc::clone(container.gate());
        let app = std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if !hold.load(Ordering::SeqCst) {
                    gate.checkpoint_point();
                }
                std::thread::yield_now();
            }
            gate.retire();
        });
        (container, tx, app)
    }

    fn local_checkpoint(job: JobId) -> DaemonMsg {
        DaemonMsg::CheckpointTree {
            job,
            interval: 0,
            epoch: 0,
            base: None,
            children: Vec::new(),
        }
    }

    #[test]
    fn daemon_checkpoints_all_local_procs() {
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let tracer = Tracer::new();
        let dir = tmpdir("local");
        let daemon = Orted::spawn(fabric.clone(), NodeId(1), dir, tracer.clone());

        let stop = Arc::new(AtomicBool::new(false));
        let job = JobId(5);
        let mut apps = Vec::new();
        for r in 0..3 {
            let (container, tx, app) = spawn_proc(job, Rank(r), &tracer, Arc::clone(&stop));
            daemon.register_proc(job, Rank(r), container, tx);
            apps.push(app);
        }

        // Act as the global coordinator.
        let hnp = Caller::new(&fabric, NodeId(0));
        match hnp
            .call(daemon.endpoint(), &local_checkpoint(job))
            .unwrap()
            .0
        {
            DaemonReply::TreeDone { node, results } => {
                assert_eq!(node, 1);
                assert_eq!(results.len(), 3);
                for (from, ckpt) in &results {
                    assert_eq!(*from, 1);
                    assert!(ckpt.dir.exists(), "rank {} snapshot missing", ckpt.rank);
                    assert!(ckpt.bytes > 0);
                }
            }
            other => panic!("unexpected reply {other:?}"),
        }

        // Cleanup removes the scratch directory.
        let (reply, _) = hnp
            .call(daemon.endpoint(), &DaemonMsg::Cleanup { job, interval: 0 })
            .unwrap();
        assert_eq!(reply, DaemonReply::Ack { node: 1 });
        assert!(!daemon.local_interval_dir(job, 0).exists());

        stop.store(true, Ordering::SeqCst);
        for app in apps {
            app.join().unwrap();
        }
        daemon.shutdown();
    }

    #[test]
    fn query_checkpointable_reflects_opt_out() {
        let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
        let tracer = Tracer::new();
        let daemon = Orted::spawn(fabric.clone(), NodeId(0), tmpdir("query"), tracer.clone());
        let stop = Arc::new(AtomicBool::new(true)); // app exits at once
        let job = JobId(7);
        let (c0, tx0, a0) = spawn_proc(job, Rank(0), &tracer, Arc::clone(&stop));
        let (c1, tx1, a1) = spawn_proc(job, Rank(1), &tracer, Arc::clone(&stop));
        c1.set_checkpointable(false);
        daemon.register_proc(job, Rank(0), Arc::clone(&c0), tx0);
        daemon.register_proc(job, Rank(1), Arc::clone(&c1), tx1);

        let hnp = Caller::new(&fabric, NodeId(0));
        let (reply, _) = hnp
            .call(daemon.endpoint(), &DaemonMsg::QueryCheckpointable { job })
            .unwrap();
        assert_eq!(
            reply,
            DaemonReply::Checkpointable {
                node: 0,
                ranks: vec![(0, true), (1, false)],
            }
        );
        a0.join().unwrap();
        a1.join().unwrap();
        daemon.shutdown();
    }

    #[test]
    fn checkpoint_with_no_procs_is_an_error() {
        let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
        let daemon = Orted::spawn(fabric.clone(), NodeId(0), tmpdir("empty"), Tracer::new());
        let hnp = Caller::new(&fabric, NodeId(0));
        let err = hnp
            .call(daemon.endpoint(), &local_checkpoint(JobId(1)))
            .unwrap_err();
        assert!(matches!(err, CrError::Protocol { .. }), "{err}");
        daemon.shutdown();
    }

    #[test]
    fn failing_rank_fails_the_node_but_daemon_survives() {
        let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
        let tracer = Tracer::new();
        let daemon = Orted::spawn(fabric.clone(), NodeId(0), tmpdir("fail"), tracer.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let job = JobId(2);
        let (c0, tx0, a0) = spawn_proc(job, Rank(0), &tracer, Arc::clone(&stop));
        // Rank 1's window is closed: its checkpoint will fail.
        let (c1, tx1, a1) = spawn_proc(job, Rank(1), &tracer, Arc::clone(&stop));
        c1.disable_checkpointing("testing failure path");
        daemon.register_proc(job, Rank(0), c0, tx0);
        daemon.register_proc(job, Rank(1), c1, tx1);

        let hnp = Caller::new(&fabric, NodeId(0));
        let err = hnp
            .call(daemon.endpoint(), &local_checkpoint(job))
            .unwrap_err();
        assert!(err.to_string().contains("rank 1"), "{err}");
        // Daemon still answers queries.
        hnp.call(daemon.endpoint(), &DaemonMsg::QueryCheckpointable { job })
            .unwrap();
        stop.store(true, Ordering::SeqCst);
        a0.join().unwrap();
        a1.join().unwrap();
        daemon.shutdown();
    }

    /// A forwarding daemon reads its children's replies on a private
    /// endpoint: a request that reaches its serving endpoint while a child
    /// is still checkpointing is queued as a request, never mistaken for a
    /// reply.
    #[test]
    fn request_arriving_mid_forward_is_not_a_reply() {
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let tracer = Tracer::new();
        let spawn = |node, tag| Orted::spawn(fabric.clone(), NodeId(node), tmpdir(tag), tracer.clone());
        let (root, child) = (spawn(0, "fwd_root"), spawn(1, "fwd_child"));
        let stop = Arc::new(AtomicBool::new(false));
        let hold = Arc::new(AtomicBool::new(true));
        let job = JobId(9);
        let (c0, tx0, a0) = spawn_proc(job, Rank(0), &tracer, Arc::clone(&stop));
        let (c1, tx1, a1) =
            spawn_held_proc(job, Rank(1), &tracer, Arc::clone(&stop), Arc::clone(&hold));
        root.register_proc(job, Rank(0), c0, tx0);
        child.register_proc(job, Rank(1), c1, tx1);

        let checkpoint = Caller::new(&fabric, NodeId(0));
        checkpoint
            .send(
                root.endpoint(),
                &DaemonMsg::CheckpointTree {
                    job,
                    interval: 0,
                    epoch: 0,
                    base: None,
                    children: vec![TreeSpec {
                        endpoint: child.endpoint().0,
                        node: 1,
                        children: Vec::new(),
                    }],
                },
            )
            .unwrap();
        // Lands on the root's serving endpoint while rank 1 is held off
        // its safe point, i.e. while the root waits for its child.
        let inventory = Caller::new(&fabric, NodeId(0));
        inventory
            .send(root.endpoint(), &DaemonMsg::ReplicaInventory { job })
            .unwrap();
        hold.store(false, Ordering::SeqCst);

        match checkpoint.recv().unwrap().0 {
            DaemonReply::TreeDone { node, results } => {
                assert_eq!(node, 0);
                let mut ranks: Vec<(u32, u32)> =
                    results.iter().map(|(n, c)| (*n, c.rank)).collect();
                ranks.sort_unstable();
                assert_eq!(ranks, vec![(0, 0), (1, 1)]);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(
            inventory.recv().unwrap().0,
            DaemonReply::ReplicaHolding {
                node: 0,
                entries: Vec::new(),
            }
        );

        stop.store(true, Ordering::SeqCst);
        a0.join().unwrap();
        a1.join().unwrap();
        root.shutdown();
        child.shutdown();
    }
}
