//! Local and global snapshot references (paper §4).
//!
//! A *snapshot reference* is a single named directory that stands for a
//! checkpoint. Users preserve the directory; everything else — which
//! checkpointer produced which files, what the original launch parameters
//! were, which rank ran where — lives in metadata files inside it. This is
//! the paper's answer to earlier systems that made users track raw
//! checkpointer files and re-type the original `mpirun` arguments at
//! restart time.
//!
//! On-disk layout:
//!
//! ```text
//! <stable-storage>/ompi_global_snapshot_<jobid>.ckpt/       # global reference
//!   global_snapshot_meta.data
//!   <interval>/                                             # one per checkpoint
//!     opal_snapshot_<rank>.ckpt/                            # local reference
//!       snapshot_meta.data
//!       <context file named by the CRS component>
//! ```
//!
//! Interval numbers are monotone per global reference; a restarted job
//! continues numbering past the interval it was restored from (invariant 5
//! in DESIGN.md).

use std::fs;
use std::path::{Path, PathBuf};

use codec::MetaDoc;

use crate::error::CrError;
use crate::ids::{JobId, Rank};

/// Name of the metadata file inside a local snapshot directory.
pub const LOCAL_META_FILE: &str = "snapshot_meta.data";
/// Name of the metadata file inside a global snapshot directory.
pub const GLOBAL_META_FILE: &str = "global_snapshot_meta.data";
/// Default context file name used by CRS components.
pub const DEFAULT_CONTEXT_FILE: &str = "ompi_context.bin";

/// Directory name of a global snapshot reference for `job`.
pub fn global_dir_name(job: JobId) -> String {
    format!("ompi_global_snapshot_{}.ckpt", job.0)
}

/// Directory name of a local snapshot reference for `rank`.
pub fn local_dir_name(rank: Rank) -> String {
    format!("opal_snapshot_{}.ckpt", rank.0)
}

fn read_meta(path: &Path) -> Result<MetaDoc, CrError> {
    let text = fs::read_to_string(path).map_err(|e| CrError::io(path.display().to_string(), &e))?;
    MetaDoc::parse(&text).map_err(CrError::from)
}

fn write_meta(path: &Path, meta: &MetaDoc) -> Result<(), CrError> {
    fs::write(path, meta.render()).map_err(|e| CrError::io(path.display().to_string(), &e))
}

// ---------------------------------------------------------------------------
// Local snapshot reference
// ---------------------------------------------------------------------------

/// A single-process snapshot: directory + metadata + one context file.
#[derive(Debug, Clone)]
pub struct LocalSnapshot {
    dir: PathBuf,
    meta: MetaDoc,
}

impl LocalSnapshot {
    /// Create a fresh local snapshot directory under `parent`.
    ///
    /// `crs_component` is recorded so restart can instantiate the same
    /// checkpointer, whatever the restart-time selection parameters say.
    pub fn create(
        parent: &Path,
        rank: Rank,
        crs_component: &str,
        interval: u64,
        hostname: &str,
    ) -> Result<Self, CrError> {
        let dir = parent.join(local_dir_name(rank));
        fs::create_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        let mut meta = MetaDoc::new();
        meta.set("snapshot", "crs", crs_component);
        meta.set("snapshot", "interval", interval.to_string());
        meta.set("snapshot", "context_file", DEFAULT_CONTEXT_FILE);
        meta.set("process", "rank", rank.0.to_string());
        meta.set("process", "hostname", hostname);
        let snap = LocalSnapshot { dir, meta };
        snap.save_meta()?;
        Ok(snap)
    }

    /// Open an existing local snapshot directory.
    pub fn open(dir: &Path) -> Result<Self, CrError> {
        let meta_path = dir.join(LOCAL_META_FILE);
        if !meta_path.is_file() {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "{} is not a local snapshot reference (missing {LOCAL_META_FILE})",
                    dir.display()
                ),
            });
        }
        let meta = read_meta(&meta_path)?;
        let snap = LocalSnapshot {
            dir: dir.to_path_buf(),
            meta,
        };
        // Validate the required keys up front so later accessors are
        // infallible.
        snap.meta.require("snapshot", "crs")?;
        snap.meta.require("process", "rank")?;
        Ok(snap)
    }

    /// Directory of this reference.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Which CRS component produced this snapshot.
    pub fn crs_component(&self) -> &str {
        self.meta.get("snapshot", "crs").expect("validated on open")
    }

    /// Rank this snapshot images.
    pub fn rank(&self) -> Rank {
        Rank(self
            .meta
            .get_parsed("process", "rank")
            .expect("validated on open"))
    }

    /// Checkpoint interval this snapshot belongs to.
    pub fn interval(&self) -> u64 {
        self.meta.get_parsed("snapshot", "interval").unwrap_or(0)
    }

    /// Hostname the process ran on when checkpointed.
    pub fn hostname(&self) -> Option<&str> {
        self.meta.get("process", "hostname")
    }

    /// Path of the binary context file.
    pub fn context_path(&self) -> PathBuf {
        let name = self
            .meta
            .get("snapshot", "context_file")
            .unwrap_or(DEFAULT_CONTEXT_FILE);
        self.dir.join(name)
    }

    /// Write the process image, wrapped in a checksummed frame.
    pub fn write_context(&self, payload: &[u8]) -> Result<(), CrError> {
        let path = self.context_path();
        fs::write(&path, codec::write_frame(payload))
            .map_err(|e| CrError::io(path.display().to_string(), &e))
    }

    /// Read and validate the process image.
    pub fn read_context(&self) -> Result<Vec<u8>, CrError> {
        let path = self.context_path();
        let raw = fs::read(&path).map_err(|e| CrError::io(path.display().to_string(), &e))?;
        Ok(codec::read_frame(&raw)?.to_vec())
    }

    /// Record an application/checkpointer-specific parameter.
    pub fn set_param(&mut self, key: &str, value: &str) -> Result<(), CrError> {
        self.meta.set("params", key, value);
        self.save_meta()
    }

    /// Read back a parameter set with [`LocalSnapshot::set_param`].
    pub fn param(&self, key: &str) -> Option<&str> {
        self.meta.get("params", key)
    }

    /// Total size of the snapshot on disk (context + metadata), in bytes.
    pub fn size_bytes(&self) -> Result<u64, CrError> {
        let mut total = 0;
        let entries =
            fs::read_dir(&self.dir).map_err(|e| CrError::io(self.dir.display().to_string(), &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| CrError::io(self.dir.display().to_string(), &e))?;
            let md = entry
                .metadata()
                .map_err(|e| CrError::io(self.dir.display().to_string(), &e))?;
            if md.is_file() {
                total += md.len();
            }
        }
        Ok(total)
    }

    fn save_meta(&self) -> Result<(), CrError> {
        write_meta(&self.dir.join(LOCAL_META_FILE), &self.meta)
    }
}

// ---------------------------------------------------------------------------
// Global snapshot reference
// ---------------------------------------------------------------------------

/// Commit progress of one checkpoint interval — a small lattice, ordered
/// `Uncommitted < LocalCommitted < GlobalCommitted`.
///
/// With pipelined commit, SNAPC first records that every rank's capture
/// landed on node-local disk (*local commit*: the application may resume,
/// but node failure can still lose the interval) and only after the FILEM
/// gather reaches stable storage promotes the interval to *global commit*
/// (restorable after any failure). Restart-facing accessors
/// ([`GlobalSnapshot::intervals`], [`GlobalSnapshot::latest_interval`],
/// [`GlobalSnapshot::local_snapshots`]) see only globally committed
/// intervals, so a restart can never read a partially gathered one.
///
/// This module is the lattice's single authority: components change a
/// commit state only through [`GlobalSnapshot::commit_interval`],
/// [`GlobalSnapshot::local_commit_interval`], and
/// [`GlobalSnapshot::promote_interval`], and read it back with
/// [`GlobalSnapshot::commit_state`] — the `commit-state` cr-lint rule
/// rejects `CommitState` values minted anywhere else, and the `cr-model`
/// `commit` model verifies the protocol's promotion monotonicity under
/// every interleaving (DESIGN.md §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommitState {
    /// Begun but not yet recorded anywhere durable.
    Uncommitted,
    /// Every rank's capture is on node-local disk; the gather to stable
    /// storage is still in flight.
    LocalCommitted,
    /// Fully gathered to stable storage (or equivalently durable peer
    /// memory); restorable.
    GlobalCommitted,
}

impl std::fmt::Display for CommitState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CommitState::Uncommitted => "uncommitted",
            CommitState::LocalCommitted => "local-committed",
            CommitState::GlobalCommitted => "global-committed",
        };
        write!(f, "{s}")
    }
}

/// A job-wide snapshot: a directory aggregating one local snapshot per rank
/// for each checkpoint interval, plus job-level metadata.
#[derive(Debug, Clone)]
pub struct GlobalSnapshot {
    dir: PathBuf,
    meta: MetaDoc,
}

impl GlobalSnapshot {
    /// Create a fresh global snapshot reference for `job` under `base`.
    pub fn create(base: &Path, job: JobId, nprocs: u32) -> Result<Self, CrError> {
        let dir = base.join(global_dir_name(job));
        fs::create_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        let mut meta = MetaDoc::new();
        meta.set("global", "jobid", job.0.to_string());
        meta.set("global", "nprocs", nprocs.to_string());
        let snap = GlobalSnapshot { dir, meta };
        snap.save_meta()?;
        Ok(snap)
    }

    /// Open an existing global snapshot reference.
    pub fn open(dir: &Path) -> Result<Self, CrError> {
        let meta_path = dir.join(GLOBAL_META_FILE);
        if !meta_path.is_file() {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "{} is not a global snapshot reference (missing {GLOBAL_META_FILE})",
                    dir.display()
                ),
            });
        }
        let meta = read_meta(&meta_path)?;
        let snap = GlobalSnapshot {
            dir: dir.to_path_buf(),
            meta,
        };
        snap.meta.require("global", "jobid")?;
        snap.meta.require("global", "nprocs")?;
        Ok(snap)
    }

    /// Directory of this reference.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The job this snapshot belongs to.
    pub fn job(&self) -> JobId {
        JobId(self
            .meta
            .get_parsed("global", "jobid")
            .expect("validated on open"))
    }

    /// Number of ranks in the job.
    pub fn nprocs(&self) -> u32 {
        self.meta
            .get_parsed("global", "nprocs")
            .expect("validated on open")
    }

    /// Committed intervals, ascending.
    pub fn intervals(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .meta
            .get_all("global", "interval")
            .into_iter()
            .filter_map(|s| s.parse().ok())
            .collect();
        v.sort_unstable();
        v
    }

    /// Most recent committed interval.
    pub fn latest_interval(&self) -> Option<u64> {
        self.intervals().into_iter().max()
    }

    /// Directory of one interval's local snapshots.
    pub fn interval_dir(&self, interval: u64) -> PathBuf {
        self.dir.join(interval.to_string())
    }

    /// Start a new interval: allocates the next number (monotone past both
    /// committed intervals and any the job was restored from) and creates
    /// its directory. The interval is invisible to readers until
    /// [`GlobalSnapshot::commit_interval`] runs — a crash mid-checkpoint
    /// must never leave a half-written interval looking restorable.
    pub fn begin_interval(&mut self) -> Result<(u64, PathBuf), CrError> {
        // Number past locally committed intervals too: with early release a
        // new interval can begin while the previous one's gather is still
        // in flight, and the two must never collide.
        let next = self
            .intervals()
            .into_iter()
            .chain(self.local_committed_intervals())
            .max()
            .map(|n| n + 1)
            .unwrap_or_else(|| self.resume_floor());
        let dir = self.interval_dir(next);
        fs::create_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        Ok((next, dir))
    }

    /// Record that a restarted job resumed from interval `n` of another
    /// snapshot: future intervals number from `n + 1`.
    pub fn set_resume_floor(&mut self, resumed_from: u64) -> Result<(), CrError> {
        self.meta
            .set("global", "resume_floor", (resumed_from + 1).to_string());
        self.save_meta()
    }

    fn resume_floor(&self) -> u64 {
        self.meta.get_parsed("global", "resume_floor").unwrap_or(0)
    }

    /// Commit an interval: record each rank's local reference and hostname
    /// in the metadata and persist it. Only committed intervals are
    /// restorable.
    pub fn commit_interval(
        &mut self,
        interval: u64,
        ranks: &[(Rank, String)],
    ) -> Result<(), CrError> {
        let section = format!("interval_{interval}");
        for (rank, hostname) in ranks {
            self.meta
                .append(&section, &format!("rank_{}_ref", rank.0), local_dir_name(*rank));
            self.meta
                .append(&section, &format!("rank_{}_host", rank.0), hostname.clone());
        }
        self.meta.append("global", "interval", interval.to_string());
        self.save_meta()
    }

    /// Locally commit an interval: record each rank's local reference and
    /// hostname exactly as [`GlobalSnapshot::commit_interval`] would, but
    /// list the interval as *locally* committed only. It stays invisible
    /// to restart-facing accessors until
    /// [`GlobalSnapshot::promote_interval`] marks the gather complete; a
    /// failure mid-gather therefore falls back to the newest globally
    /// committed interval.
    pub fn local_commit_interval(
        &mut self,
        interval: u64,
        ranks: &[(Rank, String)],
    ) -> Result<(), CrError> {
        let section = format!("interval_{interval}");
        for (rank, hostname) in ranks {
            self.meta
                .append(&section, &format!("rank_{}_ref", rank.0), local_dir_name(*rank));
            self.meta
                .append(&section, &format!("rank_{}_host", rank.0), hostname.clone());
        }
        self.meta
            .append("global", "local_interval", interval.to_string());
        self.save_meta()
    }

    /// Promote a locally committed interval to globally committed, once
    /// its gather has fully landed on stable storage.
    pub fn promote_interval(&mut self, interval: u64) -> Result<(), CrError> {
        if !self.local_committed_intervals().contains(&interval) {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "cannot promote interval {interval}: it was never locally committed"
                ),
            });
        }
        self.meta
            .remove_value("global", "local_interval", &interval.to_string());
        self.meta.append("global", "interval", interval.to_string());
        self.save_meta()
    }

    /// Intervals recorded as locally committed but not yet promoted,
    /// ascending.
    pub fn local_committed_intervals(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .meta
            .get_all("global", "local_interval")
            .into_iter()
            .filter_map(|s| s.parse().ok())
            .collect();
        v.sort_unstable();
        v
    }

    /// Commit progress of `interval` (see [`CommitState`]).
    pub fn commit_state(&self, interval: u64) -> CommitState {
        if self.intervals().contains(&interval) {
            CommitState::GlobalCommitted
        } else if self.local_committed_intervals().contains(&interval) {
            CommitState::LocalCommitted
        } else {
            CommitState::Uncommitted
        }
    }

    /// Record which nodes hold in-memory replicas of each rank's image for
    /// `interval` (the FILEM `replica` component's location metadata).
    ///
    /// `holders` maps each rank to the node ids whose daemons accepted a
    /// copy, primary first. Restart consults this section to try
    /// peer-memory recovery before falling back to stable storage;
    /// snapshots written without the replica component simply lack the
    /// section and restart goes straight to disk.
    pub fn record_replica_holders(
        &mut self,
        interval: u64,
        holders: &[(Rank, Vec<u32>)],
    ) -> Result<(), CrError> {
        let section = format!("replica_{interval}");
        for (rank, nodes) in holders {
            let list = nodes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",");
            self.meta
                .set(&section, &format!("rank_{}_nodes", rank.0), list);
        }
        self.save_meta()
    }

    /// Nodes recorded as holding in-memory replicas of `rank`'s image for
    /// `interval`, primary first. Empty when the snapshot was gathered
    /// without the replica component.
    pub fn replica_holders(&self, interval: u64, rank: Rank) -> Vec<u32> {
        self.meta
            .get(&format!("replica_{interval}"), &format!("rank_{}_nodes", rank.0))
            .map(|list| list.split(',').filter_map(|n| n.parse().ok()).collect())
            .unwrap_or_default()
    }

    /// Record each rank's rendered chunk manifest for a dedup interval
    /// (the `filem_dedup_enabled` commit path).  The manifest maps the
    /// rank's image sections to content-addressed chunk ids in the global
    /// reference's chunk store; restart fetches those chunks directly.
    ///
    /// This record is the store's *liveness root*: the commit path takes
    /// chunk references before recording it, and
    /// [`GlobalSnapshot::retire_interval`] drops it before the references
    /// are released, so the refcount GC can never sweep a chunk a live
    /// manifest still names.
    pub fn record_chunk_manifests(
        &mut self,
        interval: u64,
        manifests: &[(Rank, String)],
    ) -> Result<(), CrError> {
        let section = format!("manifest_{interval}");
        for (rank, manifest) in manifests {
            self.meta
                .set(&section, &format!("rank_{}", rank.0), manifest.clone());
        }
        self.save_meta()
    }

    /// Rendered chunk manifest of `rank` at `interval`, when the interval
    /// was committed through the dedup chunk store. `None` for full-image
    /// intervals — restart uses this to pick its path.
    pub fn chunk_manifest(&self, interval: u64, rank: Rank) -> Option<&str> {
        self.meta
            .get(&format!("manifest_{interval}"), &format!("rank_{}", rank.0))
    }

    /// Every rank's chunk manifest at `interval`, rank-ascending. Empty
    /// for non-dedup intervals.
    pub fn chunk_manifests(&self, interval: u64) -> Vec<(Rank, &str)> {
        (0..self.nprocs())
            .filter_map(|r| self.chunk_manifest(interval, Rank(r)).map(|m| (Rank(r), m)))
            .collect()
    }

    /// Record the runtime's spare-node pool (`orte_spare_nodes`): the node
    /// ids held out of placement for partial restart. Job-level, not
    /// per-interval — the pool is fixed at launch. Snapshots taken with no
    /// spares simply lack the key.
    pub fn record_spare_pool(&mut self, nodes: &[u32]) -> Result<(), CrError> {
        let list = nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.meta.set("global", "spare_nodes", list);
        self.save_meta()
    }

    /// Spare-node pool recorded at checkpoint time, ascending. Empty when
    /// the job ran without `orte_spare_nodes`.
    pub fn spare_pool(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .meta
            .get("global", "spare_nodes")
            .map(|list| list.split(',').filter_map(|n| n.parse().ok()).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Record each rank's partial-restart message-log footprint at
    /// `interval` (entries retained by the `crcp_msg_log_enabled` sender
    /// log, in bytes), read from the containers after the gather commits.
    /// Ranks with an empty log are recorded too — the zero distinguishes
    /// "log enabled, nothing pending" from "log disabled" (absent
    /// section).
    pub fn record_msg_log_bytes(
        &mut self,
        interval: u64,
        per_rank: &[(Rank, u64)],
    ) -> Result<(), CrError> {
        let section = format!("msglog_{interval}");
        for (rank, bytes) in per_rank {
            self.meta
                .set(&section, &format!("rank_{}", rank.0), bytes.to_string());
        }
        self.save_meta()
    }

    /// Per-rank message-log bytes recorded for `interval`, rank-ascending.
    /// Empty when the interval was taken without the message log.
    pub fn msg_log_bytes(&self, interval: u64) -> Vec<(Rank, u64)> {
        let section = format!("msglog_{interval}");
        (0..self.nprocs())
            .filter_map(|r| {
                self.meta
                    .get(&section, &format!("rank_{r}"))
                    .and_then(|s| s.parse().ok())
                    .map(|b| (Rank(r), b))
            })
            .collect()
    }

    /// Record the rendered gather-schedule stats line for `interval`
    /// (wave count, peak link concurrency, wall clock, per-link
    /// bytes — see `orte::sched::GatherSchedStats::render`), so
    /// `ompi-snapshot-info` can show how the gather was scheduled.
    pub fn record_gather_stats(&mut self, interval: u64, rendered: &str) -> Result<(), CrError> {
        self.meta
            .set(&format!("gather_{interval}"), "stats", rendered.to_string());
        self.save_meta()
    }

    /// The gather-schedule stats line recorded for `interval`, if the
    /// interval was committed through the scheduled gather path.
    pub fn gather_stats(&self, interval: u64) -> Option<&str> {
        self.meta.get(&format!("gather_{interval}"), "stats")
    }

    /// Retire a committed interval: delete its on-disk directory and drop
    /// its metadata (interval listing, per-rank references, replica
    /// locations, gather stats, message-log bytes, chunk manifests). Used
    /// to expire superseded checkpoints. Every interval restores from
    /// itself alone, so any committed interval may retire in any order.
    pub fn retire_interval(&mut self, interval: u64) -> Result<(), CrError> {
        let dir = self.interval_dir(interval);
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        }
        self.meta
            .remove_value("global", "interval", &interval.to_string());
        self.meta
            .remove_value("global", "local_interval", &interval.to_string());
        self.meta.remove_section(&format!("interval_{interval}"));
        self.meta.remove_section(&format!("replica_{interval}"));
        self.meta.remove_section(&format!("gather_{interval}"));
        self.meta.remove_section(&format!("msglog_{interval}"));
        // Dedup GC ordering: this persists the manifest removal *before*
        // the caller decrefs and sweeps the interval's chunks (see the
        // `gc` model) — a crash here leaks references, never dangles them.
        self.meta.remove_section(&format!("manifest_{interval}"));
        self.save_meta()
    }

    /// Store the original launch parameters (MCA dump) so restart needs no
    /// user-supplied configuration.
    pub fn record_launch_params<'a>(
        &mut self,
        params: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<(), CrError> {
        for (k, v) in params {
            self.meta.set("launch", k, v);
        }
        self.save_meta()
    }

    /// Launch parameters recorded at checkpoint time.
    pub fn launch_params(&self) -> Vec<(String, String)> {
        self.meta
            .sections()
            .iter()
            .filter(|s| s.name() == "launch")
            .flat_map(|s| s.entries().iter().cloned())
            .collect()
    }

    /// Hostname rank `rank` ran on in `interval` (its "last known" home).
    pub fn rank_hostname(&self, interval: u64, rank: Rank) -> Option<&str> {
        self.meta
            .get(&format!("interval_{interval}"), &format!("rank_{}_host", rank.0))
    }

    /// Open one rank's local snapshot within `interval`.
    pub fn local_snapshot(&self, interval: u64, rank: Rank) -> Result<LocalSnapshot, CrError> {
        let section = format!("interval_{interval}");
        let key = format!("rank_{}_ref", rank.0);
        let rel = self.meta.get(&section, &key).ok_or(CrError::BadSnapshot {
            detail: format!("interval {interval} has no local reference for rank {rank}"),
        })?;
        LocalSnapshot::open(&self.interval_dir(interval).join(rel))
    }

    /// Open every rank's local snapshot within `interval`, rank order.
    pub fn local_snapshots(&self, interval: u64) -> Result<Vec<LocalSnapshot>, CrError> {
        if !self.intervals().contains(&interval) {
            return Err(CrError::BadSnapshot {
                detail: format!("interval {interval} was never committed"),
            });
        }
        (0..self.nprocs())
            .map(|r| self.local_snapshot(interval, Rank(r)))
            .collect()
    }

    /// Total on-disk footprint of one interval, in bytes.
    pub fn interval_size_bytes(&self, interval: u64) -> Result<u64, CrError> {
        self.local_snapshots(interval)?
            .iter()
            .map(|l| l.size_bytes())
            .sum()
    }

    fn save_meta(&self) -> Result<(), CrError> {
        write_meta(&self.dir.join(GLOBAL_META_FILE), &self.meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cr_core_snap_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn local_snapshot_lifecycle() {
        let base = tmpdir("local");
        let mut snap =
            LocalSnapshot::create(&base, Rank(3), "blcr_sim", 2, "node01").unwrap();
        snap.write_context(b"image bytes").unwrap();
        snap.set_param("app_phase", "42").unwrap();

        let reopened = LocalSnapshot::open(snap.dir()).unwrap();
        assert_eq!(reopened.rank(), Rank(3));
        assert_eq!(reopened.crs_component(), "blcr_sim");
        assert_eq!(reopened.interval(), 2);
        assert_eq!(reopened.hostname(), Some("node01"));
        assert_eq!(reopened.param("app_phase"), Some("42"));
        assert_eq!(reopened.read_context().unwrap(), b"image bytes");
        assert!(reopened.size_bytes().unwrap() > 0);
    }

    #[test]
    fn local_open_rejects_non_snapshot_dir() {
        let base = tmpdir("notasnap");
        let err = LocalSnapshot::open(&base).unwrap_err();
        assert!(err.to_string().contains("snapshot_meta.data"));
    }

    #[test]
    fn corrupted_context_detected() {
        let base = tmpdir("corrupt");
        let snap = LocalSnapshot::create(&base, Rank(0), "self", 0, "node00").unwrap();
        snap.write_context(b"pristine state").unwrap();
        // Flip a byte in the stored context file.
        let path = snap.context_path();
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        fs::write(&path, raw).unwrap();
        assert!(matches!(
            snap.read_context(),
            Err(CrError::Codec(codec::Error::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn global_snapshot_lifecycle() {
        let base = tmpdir("global");
        let mut global = GlobalSnapshot::create(&base, JobId(9), 2).unwrap();
        global
            .record_launch_params([("crs", "blcr_sim"), ("np", "2")])
            .unwrap();

        let (interval, dir) = global.begin_interval().unwrap();
        assert_eq!(interval, 0);
        for r in 0..2 {
            let local =
                LocalSnapshot::create(&dir, Rank(r), "blcr_sim", interval, "node00").unwrap();
            local.write_context(format!("rank {r}").as_bytes()).unwrap();
        }
        global
            .commit_interval(interval, &[(Rank(0), "node00".into()), (Rank(1), "node00".into())])
            .unwrap();

        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.job(), JobId(9));
        assert_eq!(reopened.nprocs(), 2);
        assert_eq!(reopened.intervals(), vec![0]);
        assert_eq!(reopened.latest_interval(), Some(0));
        let locals = reopened.local_snapshots(0).unwrap();
        assert_eq!(locals.len(), 2);
        assert_eq!(locals[1].read_context().unwrap(), b"rank 1");
        assert_eq!(reopened.rank_hostname(0, Rank(1)), Some("node00"));
        let params = reopened.launch_params();
        assert!(params.contains(&("crs".to_string(), "blcr_sim".to_string())));
        assert!(reopened.interval_size_bytes(0).unwrap() > 0);
    }

    #[test]
    fn intervals_are_monotone() {
        let base = tmpdir("intervals");
        let mut global = GlobalSnapshot::create(&base, JobId(1), 1).unwrap();
        for expected in 0..3 {
            let (interval, dir) = global.begin_interval().unwrap();
            assert_eq!(interval, expected);
            LocalSnapshot::create(&dir, Rank(0), "self", interval, "node00").unwrap();
            global
                .commit_interval(interval, &[(Rank(0), "node00".into())])
                .unwrap();
        }
        assert_eq!(global.intervals(), vec![0, 1, 2]);
    }

    #[test]
    fn uncommitted_interval_is_invisible() {
        let base = tmpdir("uncommitted");
        let mut global = GlobalSnapshot::create(&base, JobId(1), 1).unwrap();
        let (interval, _dir) = global.begin_interval().unwrap();
        // Crash before commit: reopening must not list the interval.
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert!(reopened.intervals().is_empty());
        assert!(reopened.local_snapshots(interval).is_err());
    }

    #[test]
    fn resume_floor_continues_numbering() {
        let base = tmpdir("resume");
        let mut global = GlobalSnapshot::create(&base, JobId(2), 1).unwrap();
        global.set_resume_floor(4).unwrap();
        let (interval, _) = global.begin_interval().unwrap();
        assert_eq!(interval, 5, "restart resumes numbering past interval 4");
    }

    #[test]
    fn missing_rank_reference_reported() {
        let base = tmpdir("missingrank");
        let mut global = GlobalSnapshot::create(&base, JobId(3), 2).unwrap();
        let (interval, dir) = global.begin_interval().unwrap();
        // Only rank 0 written and committed; rank 1 forgotten.
        LocalSnapshot::create(&dir, Rank(0), "self", interval, "node00").unwrap();
        global
            .commit_interval(interval, &[(Rank(0), "node00".into())])
            .unwrap();
        let err = global.local_snapshots(interval).unwrap_err();
        assert!(err.to_string().contains("rank 1"));
    }

    #[test]
    fn replica_holders_roundtrip_and_retire() {
        let base = tmpdir("replicas");
        let mut global = GlobalSnapshot::create(&base, JobId(5), 2).unwrap();
        for _ in 0..2 {
            let (interval, dir) = global.begin_interval().unwrap();
            for r in 0..2 {
                LocalSnapshot::create(&dir, Rank(r), "self", interval, "node00").unwrap();
            }
            global
                .commit_interval(
                    interval,
                    &[(Rank(0), "node00".into()), (Rank(1), "node01".into())],
                )
                .unwrap();
            global
                .record_replica_holders(
                    interval,
                    &[(Rank(0), vec![0, 1]), (Rank(1), vec![1, 0])],
                )
                .unwrap();
        }
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.replica_holders(0, Rank(0)), vec![0, 1]);
        assert_eq!(reopened.replica_holders(1, Rank(1)), vec![1, 0]);
        // Unknown interval or pre-replica snapshot: empty, not an error.
        assert!(reopened.replica_holders(7, Rank(0)).is_empty());

        let mut global = reopened;
        global.retire_interval(0).unwrap();
        assert_eq!(global.intervals(), vec![1]);
        assert!(!global.interval_dir(0).exists());
        assert!(global.replica_holders(0, Rank(0)).is_empty());
        assert!(global.local_snapshots(0).is_err());
        // Interval 1 untouched.
        assert_eq!(global.local_snapshots(1).unwrap().len(), 2);
        assert_eq!(global.replica_holders(1, Rank(0)), vec![0, 1]);
    }

    /// Commit `intervals` empty committed intervals on a fresh global.
    fn committed_global(tag: &str, nprocs: u32, intervals: u64) -> GlobalSnapshot {
        let base = tmpdir(tag);
        let mut global = GlobalSnapshot::create(&base, JobId(11), nprocs).unwrap();
        for _ in 0..intervals {
            let (interval, dir) = global.begin_interval().unwrap();
            for r in 0..nprocs {
                LocalSnapshot::create(&dir, Rank(r), "self", interval, "node00").unwrap();
            }
            let info: Vec<(Rank, String)> =
                (0..nprocs).map(|r| (Rank(r), "node00".into())).collect();
            global.commit_interval(interval, &info).unwrap();
        }
        global
    }

    #[test]
    fn intervals_retire_in_any_order() {
        let mut global = committed_global("retireorder", 1, 3);
        // Oldest, then newest, then the middle one: no interval pins another.
        global.retire_interval(0).unwrap();
        assert_eq!(global.intervals(), vec![1, 2]);
        assert_eq!(global.local_snapshots(2).unwrap().len(), 1);
        global.retire_interval(2).unwrap();
        assert_eq!(global.intervals(), vec![1]);
        assert_eq!(global.local_snapshots(1).unwrap().len(), 1);
        global.retire_interval(1).unwrap();
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert!(reopened.intervals().is_empty());
    }

    #[test]
    fn chunk_manifests_roundtrip_and_die_with_retire() {
        let mut global = committed_global("manifests", 2, 2);
        global
            .record_chunk_manifests(
                1,
                &[(Rank(0), "v1 c4096|app=8:0.ab.8".into()), (Rank(1), "v1 c4096|app=8:0.ab.8".into())],
            )
            .unwrap();
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.chunk_manifest(1, Rank(0)), Some("v1 c4096|app=8:0.ab.8"));
        assert_eq!(reopened.chunk_manifests(1).len(), 2);
        // Classic intervals have no manifests.
        assert_eq!(reopened.chunk_manifest(0, Rank(0)), None);
        assert!(reopened.chunk_manifests(0).is_empty());

        let mut global = reopened;
        global.retire_interval(1).unwrap();
        assert_eq!(global.chunk_manifest(1, Rank(0)), None);
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert!(reopened.chunk_manifests(1).is_empty());
    }

    #[test]
    fn spare_pool_and_msg_log_roundtrip_and_retire() {
        let mut global = committed_global("partialmeta", 2, 2);
        global.record_spare_pool(&[4, 3]).unwrap();
        global
            .record_msg_log_bytes(1, &[(Rank(0), 1024), (Rank(1), 0)])
            .unwrap();
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.spare_pool(), vec![3, 4]);
        assert_eq!(reopened.msg_log_bytes(1), vec![(Rank(0), 1024), (Rank(1), 0)]);
        // Pre-message-log intervals and pre-spare snapshots: empty.
        assert!(reopened.msg_log_bytes(0).is_empty());
        // The per-interval log record dies with its interval; the pool is
        // job-level and survives.
        let mut global = reopened;
        global.retire_interval(1).unwrap();
        assert!(global.msg_log_bytes(1).is_empty());
        assert_eq!(global.spare_pool(), vec![3, 4]);
    }

    #[test]
    fn commit_state_lattice_orders() {
        assert!(CommitState::Uncommitted < CommitState::LocalCommitted);
        assert!(CommitState::LocalCommitted < CommitState::GlobalCommitted);
        assert_eq!(CommitState::LocalCommitted.to_string(), "local-committed");
    }

    #[test]
    fn local_commit_is_invisible_until_promoted() {
        let base = tmpdir("localcommit");
        let mut global = GlobalSnapshot::create(&base, JobId(6), 1).unwrap();
        let (interval, dir) = global.begin_interval().unwrap();
        assert_eq!(global.commit_state(interval), CommitState::Uncommitted);
        LocalSnapshot::create(&dir, Rank(0), "self", interval, "node00").unwrap();
        global
            .local_commit_interval(interval, &[(Rank(0), "node00".into())])
            .unwrap();

        // Locally committed: recorded, but no restart-facing accessor
        // may surface it.
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.commit_state(interval), CommitState::LocalCommitted);
        assert_eq!(reopened.local_committed_intervals(), vec![interval]);
        assert!(reopened.intervals().is_empty());
        assert_eq!(reopened.latest_interval(), None);
        assert!(reopened.local_snapshots(interval).is_err());

        let mut global = reopened;
        global.promote_interval(interval).unwrap();
        assert_eq!(global.commit_state(interval), CommitState::GlobalCommitted);
        assert!(global.local_committed_intervals().is_empty());
        assert_eq!(global.intervals(), vec![interval]);
        assert_eq!(global.local_snapshots(interval).unwrap().len(), 1);
        // Per-rank metadata is identical to a direct commit's.
        assert_eq!(global.rank_hostname(interval, Rank(0)), Some("node00"));
    }

    #[test]
    fn promote_requires_prior_local_commit() {
        let base = tmpdir("promotebad");
        let mut global = GlobalSnapshot::create(&base, JobId(6), 1).unwrap();
        let (interval, _dir) = global.begin_interval().unwrap();
        let err = global.promote_interval(interval).unwrap_err();
        assert!(err.to_string().contains("never locally committed"));
    }

    #[test]
    fn begin_interval_numbers_past_local_commits() {
        let base = tmpdir("numbering");
        let mut global = GlobalSnapshot::create(&base, JobId(6), 1).unwrap();
        let (i0, d0) = global.begin_interval().unwrap();
        LocalSnapshot::create(&d0, Rank(0), "self", i0, "node00").unwrap();
        global
            .local_commit_interval(i0, &[(Rank(0), "node00".into())])
            .unwrap();
        // Gather for i0 still in flight; a new interval must not collide.
        let (i1, _d1) = global.begin_interval().unwrap();
        assert_eq!(i1, i0 + 1);
    }

    #[test]
    fn retire_drops_local_commit_record() {
        let base = tmpdir("retirelocal");
        let mut global = GlobalSnapshot::create(&base, JobId(6), 1).unwrap();
        let (interval, dir) = global.begin_interval().unwrap();
        LocalSnapshot::create(&dir, Rank(0), "self", interval, "node00").unwrap();
        global
            .local_commit_interval(interval, &[(Rank(0), "node00".into())])
            .unwrap();
        global.retire_interval(interval).unwrap();
        assert_eq!(global.commit_state(interval), CommitState::Uncommitted);
        assert!(global.local_committed_intervals().is_empty());
    }

    #[test]
    fn dir_names_match_open_mpi_convention() {
        assert_eq!(global_dir_name(JobId(42)), "ompi_global_snapshot_42.ckpt");
        assert_eq!(local_dir_name(Rank(7)), "opal_snapshot_7.ckpt");
    }
}
