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
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::Sender;
use netsim::{EndpointId, Fabric, NodeId};
use parking_lot::Mutex;

use cr_core::request::CheckpointOptions;
use cr_core::{CrError, JobId, Rank, Tracer};
use opal::container::{CkptReply, OpalCtrl};
use opal::ProcessContainer;

use crate::oob::{recv_oob, send_oob, DaemonMsg, DaemonReply, RankCkpt};
use crate::replica::ReplicaStore;

/// Pending per-rank checkpoint completions (phase 1 output of a local
/// checkpoint).
type PendingLocal = Vec<(Rank, crossbeam::channel::Receiver<Result<CkptReply, CrError>>)>;

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
            .spawn(move || runner.serve(endpoint))
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

    /// Remove a job's processes from this daemon (job teardown).
    pub fn deregister_job(&self, job: JobId) {
        self.procs.lock().retain(|(j, _), _| *j != job);
    }

    /// Ranks of `job` hosted on this node, ascending.
    pub fn local_ranks(&self, job: JobId) -> Vec<Rank> {
        let mut ranks: Vec<Rank> = self
            .procs
            .lock()
            .keys()
            .filter(|(j, _)| *j == job)
            .map(|(_, r)| *r)
            .collect();
        ranks.sort_unstable();
        ranks
    }

    /// Ask the daemon thread to exit and wait for it.
    pub fn shutdown(&self) {
        {
            // Best effort: the daemon may already be gone.
            let ctl = self.fabric.register(self.node);
            let _ = send_oob(&self.fabric, ctl.id(), self.endpoint_id, &DaemonMsg::Shutdown);
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }

    // -- daemon thread ------------------------------------------------------

    fn serve(self: Arc<Self>, endpoint: netsim::Endpoint) {
        loop {
            let msg: DaemonMsg = match recv_oob(&endpoint) {
                Ok(m) => m,
                Err(_) => return, // fabric torn down
            };
            match msg {
                DaemonMsg::Shutdown => return,
                DaemonMsg::QueryCheckpointable { job, reply_to } => {
                    let ranks: Vec<(u32, bool)> = {
                        let procs = self.procs.lock();
                        let mut v: Vec<(u32, bool)> = procs
                            .iter()
                            .filter(|((j, _), _)| *j == job)
                            .map(|((_, r), p)| (r.0, p.container.is_checkpointable()))
                            .collect();
                        v.sort_unstable();
                        v
                    };
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::Checkpointable {
                            node: self.node.0,
                            ranks,
                        },
                    );
                }
                DaemonMsg::CheckpointLocal {
                    job,
                    interval,
                    reply_to,
                } => {
                    let reply = match self.checkpoint_local(job, interval) {
                        Ok(results) => DaemonReply::LocalDone {
                            node: self.node.0,
                            results,
                        },
                        Err(e) => DaemonReply::Error {
                            node: self.node.0,
                            detail: e.to_string(),
                        },
                    };
                    let _ =
                        send_oob(&self.fabric, self.endpoint_id, EndpointId(reply_to), &reply);
                }
                DaemonMsg::CheckpointTree {
                    job,
                    interval,
                    children,
                    reply_to,
                } => {
                    let reply = match self.checkpoint_tree(job, interval, &children, &endpoint) {
                        Ok(results) => DaemonReply::TreeDone {
                            node: self.node.0,
                            results,
                        },
                        Err(e) => DaemonReply::Error {
                            node: self.node.0,
                            detail: e.to_string(),
                        },
                    };
                    let _ =
                        send_oob(&self.fabric, self.endpoint_id, EndpointId(reply_to), &reply);
                }
                DaemonMsg::Cleanup {
                    job,
                    interval,
                    reply_to,
                } => {
                    let dir = self.local_interval_dir(job, interval);
                    let _ = std::fs::remove_dir_all(&dir);
                    self.tracer
                        .record("filem.local.remove", &dir.display().to_string());
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::CleanupAck { node: self.node.0 },
                    );
                }
                DaemonMsg::ReplicaPut {
                    job,
                    interval,
                    image,
                    reply_to,
                } => {
                    self.replicas.put(job, interval, image);
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::ReplicaStored { node: self.node.0 },
                    );
                }
                DaemonMsg::ReplicaFetch {
                    job,
                    interval,
                    rank,
                    reply_to,
                } => {
                    let image = self.replicas.get(job, interval, rank);
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::ReplicaImageReply {
                            node: self.node.0,
                            image,
                        },
                    );
                }
                DaemonMsg::ReplicaExpire {
                    job,
                    interval,
                    reply_to,
                } => {
                    let removed = self.replicas.expire_interval(job, interval);
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::ReplicaExpired {
                            node: self.node.0,
                            removed,
                        },
                    );
                }
                DaemonMsg::ReplicaInventory { job, reply_to } => {
                    let entries = self.replicas.inventory(job);
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::ReplicaHolding {
                            node: self.node.0,
                            entries,
                        },
                    );
                }
                DaemonMsg::ChunkPut {
                    job,
                    chunks,
                    reply_to,
                } => {
                    for (id, bytes) in chunks {
                        self.replicas.put_chunk(job, id, bytes);
                    }
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::ChunkStored { node: self.node.0 },
                    );
                }
                DaemonMsg::ChunkFetch { job, ids, reply_to } => {
                    let chunks = ids
                        .iter()
                        .map(|id| self.replicas.get_chunk(job, id))
                        .collect();
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::ChunkData {
                            node: self.node.0,
                            chunks,
                        },
                    );
                }
                DaemonMsg::ChunkExpire { job, ids, reply_to } => {
                    let removed = self.replicas.expire_chunks(job, &ids);
                    let _ = send_oob(
                        &self.fabric,
                        self.endpoint_id,
                        EndpointId(reply_to),
                        &DaemonReply::ChunkExpired {
                            node: self.node.0,
                            removed,
                        },
                    );
                }
            }
        }
    }

    /// Drive the local checkpoint of every local rank of `job`.
    fn checkpoint_local(
        &self,
        job: JobId,
        interval: u64,
    ) -> Result<Vec<RankCkpt>, CrError> {
        let waits = self.notify_local(job, interval)?;
        self.collect_local(interval, waits)
    }

    /// Hierarchical checkpoint: forward into the subtrees first (children
    /// proceed concurrently), then checkpoint the local ranks, then
    /// aggregate local and subtree results.
    fn checkpoint_tree(
        &self,
        job: JobId,
        interval: u64,
        children: &[crate::oob::TreeSpec],
        endpoint: &netsim::Endpoint,
    ) -> Result<Vec<(u32, RankCkpt)>, CrError> {
        for child in children {
            send_oob(
                &self.fabric,
                self.endpoint_id,
                EndpointId(child.endpoint),
                &DaemonMsg::CheckpointTree {
                    job,
                    interval,
                    children: child.children.clone(),
                    reply_to: self.endpoint_id.0,
                },
            )?;
            self.tracer.record(
                "snapc.tree.forward",
                &format!("{} -> node {}", self.node, child.node),
            );
        }
        let waits = self.notify_local(job, interval)?;
        let mut results: Vec<(u32, RankCkpt)> = self
            .collect_local(interval, waits)?
            .into_iter()
            .map(|ckpt| (self.node.0, ckpt))
            .collect();
        let mut failures = Vec::new();
        for _ in children {
            match crate::oob::recv_oob_timeout::<DaemonReply>(
                endpoint,
                std::time::Duration::from_secs(120),
            )? {
                DaemonReply::TreeDone {
                    results: sub_results,
                    ..
                } => {
                    results.extend(
                        sub_results,
                    );
                }
                DaemonReply::Error { node, detail } => {
                    failures.push(format!("subtree node {node}: {detail}"));
                }
                other => failures.push(format!("unexpected subtree reply: {other:?}")),
            }
        }
        if failures.is_empty() {
            Ok(results)
        } else {
            Err(CrError::protocol(failures.join("; ")))
        }
    }

    /// Phase 1 of a local checkpoint: prepare the interval directory and
    /// notify every local process (without waiting in between — all ranks
    /// must enter coordination concurrently).
    fn notify_local(
        &self,
        job: JobId,
        interval: u64,
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
                let (rtx, rrx) = crossbeam::channel::bounded(1);
                proc_entry
                    .ctrl
                    .send(OpalCtrl::Checkpoint {
                        snapshot_parent: dir.clone(),
                        interval,
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
mod tests {
    use super::*;
    use cr_core::inc::LayerInc;
    use cr_core::ProcessName;
    use mca::McaParams;
    use netsim::{LinkSpec, Topology};
    use opal::crs::{crs_framework, SelfCallbacks};
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
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
    fn spawn_proc(
        job: JobId,
        rank: Rank,
        tracer: &Tracer,
        stop: Arc<std::sync::atomic::AtomicBool>,
    ) -> (Arc<ProcessContainer>, Sender<OpalCtrl>, JoinHandle<()>) {
        let container = ProcessContainer::new(ProcessName::new(job, rank), "node00", tracer.clone());
        let fw = crs_framework(SelfCallbacks::new());
        container.set_crs(Arc::from(fw.select(&McaParams::new()).unwrap()));
        container.register_capture("app", Arc::new(move || Ok(vec![0xAB; 64])));
        container.install_opal_inc(LayerInc::new("opal", tracer.clone()));
        container.enable_checkpointing();
        let (tx, rx) = crossbeam::channel::unbounded();
        container.spawn_notification_thread(rx);
        let gate = Arc::clone(container.gate());
        let app = std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                gate.checkpoint_point();
                std::thread::yield_now();
            }
            gate.retire();
        });
        (container, tx, app)
    }

    #[test]
    fn daemon_checkpoints_all_local_procs() {
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let tracer = Tracer::new();
        let dir = tmpdir("local");
        let daemon = Orted::spawn(fabric.clone(), NodeId(1), dir, tracer.clone());

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let job = JobId(5);
        let mut apps = Vec::new();
        for r in 0..3 {
            let (container, tx, app) = spawn_proc(job, Rank(r), &tracer, Arc::clone(&stop));
            daemon.register_proc(job, Rank(r), container, tx);
            apps.push(app);
        }
        assert_eq!(daemon.local_ranks(job), vec![Rank(0), Rank(1), Rank(2)]);

        // Act as the global coordinator.
        let hnp = fabric.register(NodeId(0));
        send_oob(
            &fabric,
            hnp.id(),
            daemon.endpoint(),
            &DaemonMsg::CheckpointLocal {
                job,
                interval: 0,
                reply_to: hnp.id().0,
            },
        )
        .unwrap();
        let reply: DaemonReply = recv_oob(&hnp).unwrap();
        match reply {
            DaemonReply::LocalDone { node, results } => {
                assert_eq!(node, 1);
                assert_eq!(results.len(), 3);
                for ckpt in &results {
                    assert!(ckpt.dir.exists(), "rank {} snapshot missing", ckpt.rank);
                    assert!(ckpt.bytes > 0);
                }
            }
            other => panic!("unexpected reply {other:?}"),
        }

        // Cleanup removes the scratch directory.
        send_oob(
            &fabric,
            hnp.id(),
            daemon.endpoint(),
            &DaemonMsg::Cleanup {
                job,
                interval: 0,
                reply_to: hnp.id().0,
            },
        )
        .unwrap();
        let reply: DaemonReply = recv_oob(&hnp).unwrap();
        assert_eq!(reply, DaemonReply::CleanupAck { node: 1 });
        assert!(!daemon.local_interval_dir(job, 0).exists());

        stop.store(true, std::sync::atomic::Ordering::SeqCst);
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
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(true)); // app exits at once
        let job = JobId(7);
        let (c0, tx0, a0) = spawn_proc(job, Rank(0), &tracer, Arc::clone(&stop));
        let (c1, tx1, a1) = spawn_proc(job, Rank(1), &tracer, Arc::clone(&stop));
        c1.set_checkpointable(false);
        daemon.register_proc(job, Rank(0), Arc::clone(&c0), tx0);
        daemon.register_proc(job, Rank(1), Arc::clone(&c1), tx1);

        let hnp = fabric.register(NodeId(0));
        send_oob(
            &fabric,
            hnp.id(),
            daemon.endpoint(),
            &DaemonMsg::QueryCheckpointable {
                job,
                reply_to: hnp.id().0,
            },
        )
        .unwrap();
        let reply: DaemonReply = recv_oob(&hnp).unwrap();
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
        let hnp = fabric.register(NodeId(0));
        send_oob(
            &fabric,
            hnp.id(),
            daemon.endpoint(),
            &DaemonMsg::CheckpointLocal {
                job: JobId(1),
                interval: 0,
                reply_to: hnp.id().0,
            },
        )
        .unwrap();
        let reply: DaemonReply =
            crate::oob::recv_oob_timeout(&hnp, Duration::from_secs(5)).unwrap();
        assert!(matches!(reply, DaemonReply::Error { .. }));
        daemon.shutdown();
    }

    #[test]
    fn failing_rank_fails_the_node_but_daemon_survives() {
        let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
        let tracer = Tracer::new();
        let daemon = Orted::spawn(fabric.clone(), NodeId(0), tmpdir("fail"), tracer.clone());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let job = JobId(2);
        let (c0, tx0, a0) = spawn_proc(job, Rank(0), &tracer, Arc::clone(&stop));
        // Rank 1's window is closed: its checkpoint will fail.
        let (c1, tx1, a1) = spawn_proc(job, Rank(1), &tracer, Arc::clone(&stop));
        c1.disable_checkpointing("testing failure path");
        daemon.register_proc(job, Rank(0), c0, tx0);
        daemon.register_proc(job, Rank(1), c1, tx1);

        let hnp = fabric.register(NodeId(0));
        send_oob(
            &fabric,
            hnp.id(),
            daemon.endpoint(),
            &DaemonMsg::CheckpointLocal {
                job,
                interval: 0,
                reply_to: hnp.id().0,
            },
        )
        .unwrap();
        let reply: DaemonReply = recv_oob(&hnp).unwrap();
        match reply {
            DaemonReply::Error { detail, .. } => assert!(detail.contains("rank 1")),
            other => panic!("expected error, got {other:?}"),
        }
        // Daemon still answers queries.
        send_oob(
            &fabric,
            hnp.id(),
            daemon.endpoint(),
            &DaemonMsg::QueryCheckpointable {
                job,
                reply_to: hnp.id().0,
            },
        )
        .unwrap();
        let _: DaemonReply = recv_oob(&hnp).unwrap();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        a0.join().unwrap();
        a1.join().unwrap();
        daemon.shutdown();
    }
}
