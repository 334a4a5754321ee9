//! The simulated universe: fabric + filesystems + daemons + naming.
//!
//! A [`Runtime`] is what a physical cluster plus its shared filesystem is
//! to real Open MPI: the environment jobs are launched into. It owns
//!
//! * the netsim [`Fabric`] all traffic runs over,
//! * a **base directory** on the host filesystem, carved into per-node
//!   scratch directories (`nodes/node00/...` — "local disk") and a shared
//!   `stable/` directory (the RAID/NFS stable storage of paper §5.2),
//! * the per-node daemons, created on demand, and
//! * the [`Modex`] rendezvous store and job-id allocation.
//!
//! Nothing here knows about checkpoint *contents*: the write-behind drain
//! and the per-node scratch trees move whatever SNAPC committed.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use netsim::{Fabric, NetView, NodeId, Topology};
use parking_lot::Mutex;

use cr_core::{CrError, JobId, Tracer};

use crate::daemon::Orted;
use crate::modex::Modex;

struct RtInner {
    fabric: Fabric,
    base_dir: PathBuf,
    modex: Modex,
    tracer: Tracer,
    next_job: AtomicU32,
    daemons: Mutex<HashMap<NodeId, Arc<Orted>>>,
    drains: Mutex<Vec<std::thread::JoinHandle<()>>>,
    failed: Mutex<HashSet<NodeId>>,
    /// Spare-node pool for partial restart: nodes held out of placement
    /// at launch (`orte_spare_nodes`) and handed out one at a time when a
    /// failed rank needs a new home.
    spares: Mutex<Vec<NodeId>>,
    /// The durable FT event journal, once enabled: every tracer record is
    /// appended to it through the `TraceSink` bridge.
    journal: Mutex<Option<Arc<journal::JournalSink>>>,
}

/// Cheap-to-clone handle to the simulated cluster environment.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Bring up a runtime over `topology`, rooted at `base_dir` on the
    /// host filesystem.
    pub fn new(topology: Topology, base_dir: impl Into<PathBuf>) -> Result<Self, CrError> {
        let base_dir = base_dir.into();
        let stable = base_dir.join("stable");
        std::fs::create_dir_all(&stable)
            .map_err(|e| CrError::io(stable.display().to_string(), &e))?;
        let fabric = Fabric::new(topology);
        for node in fabric.topology().nodes() {
            let dir = base_dir.join("nodes").join(node.to_string());
            std::fs::create_dir_all(&dir)
                .map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        }
        Ok(Runtime {
            inner: Arc::new(RtInner {
                fabric,
                base_dir,
                modex: Modex::new(),
                tracer: Tracer::new(),
                next_job: AtomicU32::new(1),
                daemons: Mutex::new(HashMap::new()),
                drains: Mutex::new(Vec::new()),
                failed: Mutex::new(HashSet::new()),
                spares: Mutex::new(Vec::new()),
                journal: Mutex::new(None),
            }),
        })
    }

    /// The message fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        self.inner.fabric.topology()
    }

    /// Contention-aware pricing view over the fabric: bulk transfers
    /// registered here share link bandwidth with each other and with OOB
    /// traffic.
    pub fn netview(&self) -> NetView<'_> {
        self.inner.fabric.netview()
    }

    /// The rendezvous store.
    pub fn modex(&self) -> &Modex {
        &self.inner.modex
    }

    /// The shared event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Stable storage directory (survives node failures by assumption).
    pub fn stable_dir(&self) -> PathBuf {
        self.inner.base_dir.join("stable")
    }

    /// Node-local scratch directory of `node`.
    pub fn node_dir(&self, node: NodeId) -> PathBuf {
        self.inner.base_dir.join("nodes").join(node.to_string())
    }

    /// Base directory of the whole runtime.
    pub fn base_dir(&self) -> &Path {
        &self.inner.base_dir
    }

    /// Allocate a fresh job id.
    pub fn alloc_job(&self) -> JobId {
        JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed))
    }

    /// Route every tracer record into a durable hash-chained journal file.
    ///
    /// Idempotent: once a journal is attached, later calls return its path
    /// without reopening (so repeated `launch` calls share one chain).
    /// `dir` defaults to `<base_dir>/journal`; the file inside it is
    /// [`journal::FILE_NAME`]. Reopening an existing file re-verifies the
    /// whole chain and keeps appending after its tail, so the journal
    /// accumulates across restarts of the same runtime directory.
    pub fn enable_journal(
        &self,
        dir: Option<&Path>,
        fsync_every: u64,
    ) -> Result<PathBuf, CrError> {
        let path = {
            let mut slot = self.inner.journal.lock();
            if let Some(sink) = slot.as_ref() {
                return Ok(sink.path().to_path_buf());
            }
            let path = dir
                .map(Path::to_path_buf)
                .unwrap_or_else(|| self.inner.base_dir.join("journal"))
                .join(journal::FILE_NAME);
            let sink = Arc::new(journal::JournalSink::open(&path, fsync_every)?);
            self.inner
                .tracer
                .set_sink(Arc::clone(&sink) as Arc<dyn cr_core::trace::TraceSink>);
            *slot = Some(sink);
            path
        };
        // Recorded after the journal lock is released; the sink is already
        // attached, so this is the first (or first-after-reopen) entry.
        self.inner
            .tracer
            .record("journal.open", &path.display().to_string());
        Ok(path)
    }

    /// Path of the attached journal file, if any.
    pub fn journal_path(&self) -> Option<PathBuf> {
        self.inner
            .journal
            .lock()
            .as_ref()
            .map(|s| s.path().to_path_buf())
    }

    /// The attached journal sink, if any (for stats and flushing).
    pub fn journal_sink(&self) -> Option<Arc<journal::JournalSink>> {
        self.inner.journal.lock().as_ref().map(Arc::clone)
    }

    /// The daemon of `node`, starting it if necessary.
    pub fn ensure_daemon(&self, node: NodeId) -> Arc<Orted> {
        self.inner.failed.lock().remove(&node);
        let mut daemons = self.inner.daemons.lock();
        Arc::clone(daemons.entry(node).or_insert_with(|| {
            self.inner.tracer.record("orte.daemon.spawn", &node.to_string());
            Orted::spawn(
                self.inner.fabric.clone(),
                node,
                self.node_dir(node),
                self.inner.tracer.with_actor(&node.to_string()),
            )
        }))
    }

    /// Daemons currently running, node order.
    pub fn daemons(&self) -> Vec<Arc<Orted>> {
        let map = self.inner.daemons.lock();
        let mut v: Vec<(NodeId, Arc<Orted>)> =
            map.iter().map(|(n, d)| (*n, Arc::clone(d))).collect();
        v.sort_by_key(|(n, _)| *n);
        v.into_iter().map(|(_, d)| d).collect()
    }

    /// Kill one node's daemon, simulating node loss: its thread stops and
    /// its in-memory state (including any replica store contents) is gone.
    /// Node-local scratch files are left behind, as a dead node's disk
    /// would be — unreachable until the "node" comes back.
    pub fn kill_daemon(&self, node: NodeId) {
        self.inner.failed.lock().insert(node);
        let daemon = self.inner.daemons.lock().remove(&node);
        if let Some(daemon) = daemon {
            self.inner.tracer.record("orte.daemon.kill", &node.to_string());
            daemon.shutdown();
        }
    }

    /// True when `node` was killed and has not been brought back. In-flight
    /// gathers consult this: a dead node's local scratch is unreachable,
    /// so copies sourced from it must fail rather than silently read the
    /// host filesystem.
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.inner.failed.lock().contains(&node)
    }

    /// Add `node` to the partial-restart spare pool (idempotent). The PLM
    /// holds these nodes out of placement; `claim_spare` hands them back
    /// one at a time when a failed rank needs a new home.
    pub fn register_spare(&self, node: NodeId) {
        let mut spares = self.inner.spares.lock();
        if !spares.contains(&node) {
            spares.push(node);
            self.inner
                .tracer
                .record("orte.spare.register", &node.to_string());
        }
    }

    /// Take one healthy node out of the spare pool, or `None` when the
    /// pool is exhausted (the caller must then fall back to a full
    /// restart). Nodes that failed while parked in the pool are skipped
    /// and dropped.
    pub fn claim_spare(&self) -> Option<NodeId> {
        let mut spares = self.inner.spares.lock();
        while !spares.is_empty() {
            let node = spares.remove(0);
            if self.inner.failed.lock().contains(&node) {
                continue;
            }
            self.inner
                .tracer
                .record("orte.spare.claim", &node.to_string());
            return Some(node);
        }
        None
    }

    /// Current spare-pool membership, pool order.
    pub fn spare_nodes(&self) -> Vec<NodeId> {
        self.inner.spares.lock().clone()
    }

    /// Track a write-behind drain thread (FILEM `replica`'s asynchronous
    /// gather to stable storage). Joined by
    /// [`Runtime::drain_writebehind`] and on [`Runtime::shutdown`].
    pub fn register_drain(&self, handle: std::thread::JoinHandle<()>) {
        self.inner.drains.lock().push(handle);
    }

    /// Wait for every outstanding write-behind drain to reach stable
    /// storage. Restart paths that fall back to disk call this first so
    /// they never race an in-flight gather.
    pub fn drain_writebehind(&self) {
        let drains: Vec<std::thread::JoinHandle<()>> =
            self.inner.drains.lock().drain(..).collect();
        for handle in drains {
            let _ = handle.join();
        }
    }

    /// Stop all daemons (idempotent; also invoked by tests for hygiene).
    ///
    /// Write-behind drains are joined first: stable storage is fully
    /// populated before the runtime disappears, so a fresh host process
    /// can always restart from disk.
    pub fn shutdown(&self) {
        self.drain_writebehind();
        let daemons: Vec<Arc<Orted>> = {
            let mut map = self.inner.daemons.lock();
            map.drain().map(|(_, d)| d).collect()
        };
        for daemon in daemons {
            daemon.shutdown();
        }
        // Journal stays attached (restart may keep recording) but what was
        // appended so far is made durable.
        let sink = self.inner.journal.lock().as_ref().map(Arc::clone);
        if let Some(sink) = sink {
            let _ = sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkSpec;

    fn tmpbase(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "orte_rt_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn directories_created() {
        let rt = Runtime::new(
            Topology::uniform(3, LinkSpec::gigabit_ethernet()),
            tmpbase("dirs"),
        )
        .unwrap();
        assert!(rt.stable_dir().is_dir());
        for node in rt.topology().nodes() {
            assert!(rt.node_dir(node).is_dir());
        }
    }

    #[test]
    fn job_ids_are_unique() {
        let rt = Runtime::new(
            Topology::uniform(1, LinkSpec::gigabit_ethernet()),
            tmpbase("jobs"),
        )
        .unwrap();
        let a = rt.alloc_job();
        let b = rt.alloc_job();
        assert_ne!(a, b);
    }

    #[test]
    fn daemons_created_once_per_node() {
        let rt = Runtime::new(
            Topology::uniform(2, LinkSpec::gigabit_ethernet()),
            tmpbase("daemons"),
        )
        .unwrap();
        let d1 = rt.ensure_daemon(NodeId(1));
        let d1b = rt.ensure_daemon(NodeId(1));
        assert_eq!(d1.endpoint(), d1b.endpoint());
        assert_eq!(rt.daemons().len(), 1);
        rt.ensure_daemon(NodeId(0));
        assert_eq!(rt.daemons().len(), 2);
        rt.shutdown();
        assert!(rt.daemons().is_empty());
    }

    #[test]
    fn killed_nodes_are_marked_failed_until_respawned() {
        let rt = Runtime::new(
            Topology::uniform(2, LinkSpec::gigabit_ethernet()),
            tmpbase("failed"),
        )
        .unwrap();
        rt.ensure_daemon(NodeId(1));
        assert!(!rt.node_failed(NodeId(1)));
        rt.kill_daemon(NodeId(1));
        assert!(rt.node_failed(NodeId(1)));
        assert!(!rt.node_failed(NodeId(0)));
        rt.ensure_daemon(NodeId(1));
        assert!(!rt.node_failed(NodeId(1)));
        rt.shutdown();
    }

    #[test]
    fn spare_pool_skips_failed_nodes() {
        let rt = Runtime::new(
            Topology::uniform(4, LinkSpec::gigabit_ethernet()),
            tmpbase("spares"),
        )
        .unwrap();
        assert_eq!(rt.claim_spare(), None);
        rt.register_spare(NodeId(2));
        rt.register_spare(NodeId(3));
        rt.register_spare(NodeId(2)); // idempotent
        assert_eq!(rt.spare_nodes(), vec![NodeId(2), NodeId(3)]);
        rt.ensure_daemon(NodeId(2));
        rt.kill_daemon(NodeId(2));
        // The dead spare is skipped and dropped; the healthy one is handed out.
        assert_eq!(rt.claim_spare(), Some(NodeId(3)));
        assert_eq!(rt.claim_spare(), None);
        assert!(rt.spare_nodes().is_empty());
        rt.shutdown();
    }

    #[test]
    fn journal_captures_runtime_events_and_survives_kill() {
        let rt = Runtime::new(
            Topology::uniform(2, LinkSpec::gigabit_ethernet()),
            tmpbase("journal"),
        )
        .unwrap();
        assert!(rt.journal_path().is_none());
        let path = rt.enable_journal(None, 0).unwrap();
        // Idempotent: second call returns the same path without reopening.
        assert_eq!(rt.enable_journal(None, 0).unwrap(), path);
        rt.ensure_daemon(NodeId(1));
        rt.kill_daemon(NodeId(1));
        rt.shutdown();
        let entries = journal::read_entries(&path).unwrap();
        let phases: Vec<&str> = entries.iter().map(|e| e.phase.as_str()).collect();
        assert_eq!(phases[0], "journal.open");
        assert!(phases.contains(&"orte.daemon.spawn"));
        assert!(phases.contains(&"orte.daemon.kill"));
        // The journal lives on the host filesystem at runtime level: the
        // node's death does not take it down, and the file verifies clean.
        let report = journal::verify(&path).unwrap();
        assert!(report.ok(), "{}", report.render());
        let sink = rt.journal_sink().expect("sink still attached");
        assert_eq!(sink.append_errors(), 0);
    }

    #[test]
    fn clones_share_everything() {
        let rt = Runtime::new(
            Topology::uniform(1, LinkSpec::gigabit_ethernet()),
            tmpbase("clone"),
        )
        .unwrap();
        let rt2 = rt.clone();
        let job = rt.alloc_job();
        rt2.modex().publish(job, "k", vec![1]);
        assert_eq!(rt.modex().get(job, "k"), Some(vec![1]));
        rt.shutdown();
    }
}
