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

use std::collections::BTreeSet;
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

fn read_meta(path: &Path) -> Result<String, CrError> {
    fs::read_to_string(path).map_err(|e| CrError::io(path.display().to_string(), &e))
}

/// Replace the file at `path` with `bytes`: write the sibling `<name>.tmp`,
/// then rename it over the target. A reader (or a crash at any point) sees
/// the old file or the new one whole, never a prefix; a temp file left
/// behind is never read and is overwritten by the next replace. Every file
/// a snapshot reference or the chunk store writes goes through here. No
/// fsync: after power loss the rename may not have reached the disk.
pub fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), CrError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes).map_err(|e| CrError::io(tmp.display().to_string(), &e))?;
    fs::rename(&tmp, path).map_err(|e| CrError::io(path.display().to_string(), &e))
}

fn write_meta(dir: &Path, file: &str, meta: &MetaDoc) -> Result<(), CrError> {
    replace_file(&dir.join(file), meta.render().as_bytes())
}

// ---------------------------------------------------------------------------
// Local snapshot reference
// ---------------------------------------------------------------------------

/// A single-process snapshot: directory + metadata + one context file.
///
/// A snapshot being taken lives in memory: [`LocalSnapshot::create`] makes
/// only the directory, [`LocalSnapshot::write_context`] and
/// [`LocalSnapshot::set_param`] fill it in, and [`LocalSnapshot::finish`]
/// writes the metadata file once, last. A directory that
/// [`LocalSnapshot::open`]s is therefore complete.
#[derive(Debug, Clone)]
pub struct LocalSnapshot {
    dir: PathBuf,
    meta: MetaDoc,
}

impl LocalSnapshot {
    /// Start a local snapshot under `parent`: creates the directory, not
    /// the metadata file (see [`LocalSnapshot::finish`]).
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
        Ok(LocalSnapshot { dir, meta })
    }

    /// Write the metadata file, making the directory a local snapshot
    /// reference. Call once, after the context and every parameter.
    pub fn finish(&self) -> Result<(), CrError> {
        write_meta(&self.dir, LOCAL_META_FILE, &self.meta)
    }

    /// Open an existing local snapshot directory: read its metadata file,
    /// then [`parse`](Self::parse) it.
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
        Self::parse(dir, &read_meta(&meta_path)?)
    }

    /// The local snapshot at `dir` whose metadata file reads `text`,
    /// wherever that text was read from (the directory, or a copy of it
    /// held in peer memory).
    pub fn parse(dir: &Path, text: &str) -> Result<Self, CrError> {
        let snap = LocalSnapshot {
            dir: dir.to_path_buf(),
            meta: MetaDoc::parse(text)?,
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

    /// Name of the binary context file within the directory.
    pub fn context_file(&self) -> &str {
        self.meta
            .get("snapshot", "context_file")
            .unwrap_or(DEFAULT_CONTEXT_FILE)
    }

    /// Path of the binary context file.
    pub fn context_path(&self) -> PathBuf {
        self.dir.join(self.context_file())
    }

    /// Write the context file. `framed` is the process image already
    /// inside its checksummed frame ([`codec::to_framed_bytes`],
    /// [`codec::write_frame`]), so the buffer the image was encoded into
    /// is the buffer that reaches the disk.
    pub fn write_context(&self, framed: &[u8]) -> Result<(), CrError> {
        debug_assert!(codec::read_frame(framed).is_ok(), "context is not a frame");
        replace_file(&self.context_path(), framed)
    }

    /// Read and validate the process image: the frame's payload, in the
    /// buffer the file was read into.
    pub fn read_context(&self) -> Result<Vec<u8>, CrError> {
        let path = self.context_path();
        let raw = fs::read(&path).map_err(|e| CrError::io(path.display().to_string(), &e))?;
        codec::into_payload(raw).map_err(|e| self.bad_context(e))
    }

    /// The error for a context that fails its frame check `e`: it names
    /// the rank, the interval and the context file, and keeps the codec's
    /// detail (for a flipped byte, the stored and computed checksums).
    pub fn bad_context(&self, e: codec::Error) -> CrError {
        CrError::BadSnapshot {
            detail: format!(
                "rank {} interval {}: context {} fails its frame check: {e}",
                self.rank().0,
                self.interval(),
                self.context_path().display()
            ),
        }
    }

    /// Record an application/checkpointer-specific parameter (persisted by
    /// [`LocalSnapshot::finish`]).
    pub fn set_param(&mut self, key: &str, value: &str) {
        self.meta.set("params", key, value);
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
/// [`GlobalSnapshot::local_commit_interval`],
/// [`GlobalSnapshot::promote_interval`] and
/// [`GlobalSnapshot::retire_interval`], and read it back with
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

/// Which intervals of a global reference are committed, and where a
/// restarted job's numbering starts: the `[global]` `interval` and
/// `local_interval` lists and `resume_floor`, as one value with no I/O.
///
/// Every commit-state change of a [`GlobalSnapshot`] is one call here,
/// persisted whole by the reference's single metadata write; `cr-model
/// commit` runs the same calls under every interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CommitListing {
    global: BTreeSet<u64>,
    local: BTreeSet<u64>,
    floor: u64,
}

impl CommitListing {
    fn read(meta: &MetaDoc) -> Self {
        let list = |key| meta.get_all("global", key).into_iter().filter_map(|s| s.parse().ok()).collect();
        let floor = meta.get_parsed("global", "resume_floor").unwrap_or(0);
        CommitListing { global: list("interval"), local: list("local_interval"), floor }
    }

    /// Turn `meta`'s lists, which say `old`, into this listing's: drop
    /// what left a list and append what joined it (the floor is written
    /// once, at create).
    fn write(&self, old: &CommitListing, meta: &mut MetaDoc) {
        for (key, old, new) in [("interval", &old.global, &self.global), ("local_interval", &old.local, &self.local)] {
            for interval in old.difference(new) {
                meta.remove_value("global", key, &interval.to_string());
            }
            for interval in new.difference(old) {
                meta.append("global", key, interval.to_string());
            }
        }
    }

    /// The number the next interval gets: past every committed and
    /// locally committed interval (with early release a new interval can
    /// begin while the previous one's gather is in flight), else the
    /// floor. An interval that never committed leaves no trace, so its
    /// retry gets its number again.
    pub fn next_interval(&self) -> u64 {
        self.global.iter().chain(&self.local).max().map_or(self.floor, |n| n + 1)
    }

    /// List `interval` as globally committed.
    pub fn commit(&mut self, interval: u64) {
        self.local.remove(&interval);
        self.global.insert(interval);
    }

    /// List `interval` as locally committed.
    pub fn local_commit(&mut self, interval: u64) {
        self.local.insert(interval);
    }

    /// Move a locally committed interval to globally committed; refuses
    /// one that was never locally committed.
    pub fn promote(&mut self, interval: u64) -> Result<(), CrError> {
        if !self.local.remove(&interval) {
            return Err(CrError::BadSnapshot {
                detail: format!("cannot promote interval {interval}: it was never locally committed"),
            });
        }
        self.global.insert(interval);
        Ok(())
    }

    /// Unlist `interval`, whatever its state.
    pub fn retire(&mut self, interval: u64) {
        self.global.remove(&interval);
        self.local.remove(&interval);
    }

    /// Commit progress of `interval`.
    pub fn commit_state(&self, interval: u64) -> CommitState {
        if self.global.contains(&interval) {
            CommitState::GlobalCommitted
        } else if self.local.contains(&interval) {
            CommitState::LocalCommitted
        } else {
            CommitState::Uncommitted
        }
    }

    /// Globally committed intervals, ascending.
    pub fn intervals(&self) -> Vec<u64> {
        self.global.iter().copied().collect()
    }

    /// Locally committed intervals not yet promoted, ascending.
    pub fn local_committed_intervals(&self) -> Vec<u64> {
        self.local.iter().copied().collect()
    }

    /// Most recent globally committed interval: the one a restart reads.
    pub fn latest_interval(&self) -> Option<u64> {
        self.global.last().copied()
    }
}

/// What is known about a job when its global reference is created, written
/// by [`GlobalSnapshot::create`].
#[derive(Debug, Clone, Default)]
pub struct LaunchRecord {
    /// The original launch parameters (MCA dump), so restart needs no
    /// user-supplied configuration.
    pub params: Vec<(String, String)>,
    /// The runtime's spare-node pool (`orte_spare_nodes`): node ids held
    /// out of placement for partial restart. Job-level — the pool is fixed
    /// at launch; with no spares the key is not written.
    pub spare_pool: Vec<u32>,
    /// The interval of another snapshot this job was restarted from:
    /// intervals here number from the one after it.
    pub resumed_from: Option<u64>,
}

/// Everything one interval's commit records, written in one piece by
/// [`GlobalSnapshot::commit_interval`] or
/// [`GlobalSnapshot::local_commit_interval`]. Empty fields write nothing, so
/// the absence of a section keeps its meaning (no replica component, no
/// dedup store, message log disabled, no gather to stable storage).
#[derive(Debug, Clone, Default)]
pub struct IntervalRecord {
    /// Each rank with the hostname it ran on; its local reference is
    /// [`local_dir_name`] inside the interval directory.
    pub ranks: Vec<(Rank, String)>,
    /// Per rank, the node ids whose daemons hold an in-memory replica of
    /// its image, primary first (the FILEM `replica` component). Restart
    /// tries these before stable storage.
    pub replica_holders: Vec<(Rank, Vec<u32>)>,
    /// Per rank, its rendered chunk manifest (`filem_dedup_enabled`): the
    /// map from image sections to chunk ids in the global reference's chunk
    /// store. This is the store's *liveness root*: the commit path takes
    /// chunk references before committing it and
    /// [`GlobalSnapshot::retire_interval`] drops it before they are
    /// released, so the refcount GC never sweeps a chunk a live manifest
    /// names.
    pub chunk_manifests: Vec<(Rank, String)>,
    /// Per rank, the bytes its `crcp_msg_log_enabled` sender log retained
    /// at commit. A rank with an empty log is listed with zero, which
    /// differs from "log disabled" (empty list).
    pub msg_log_bytes: Vec<(Rank, u64)>,
    /// The gather's stats line, `files=N bytes=B wall_us=W` (an older tree
    /// also has `waves=`, `peak=` and `links=`), shown by
    /// `ompi-snapshot-info`.
    pub gather_stats: Option<String>,
}

fn node_list(nodes: &[u32]) -> String {
    nodes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A job-wide snapshot: a directory aggregating one local snapshot per rank
/// for each checkpoint interval, plus job-level metadata.
///
/// The metadata file is written whole, through [`replace_file`], by exactly
/// five methods: [`GlobalSnapshot::create`], and one per commit-state
/// transition — [`GlobalSnapshot::commit_interval`],
/// [`GlobalSnapshot::local_commit_interval`],
/// [`GlobalSnapshot::promote_interval`],
/// [`GlobalSnapshot::retire_interval`]. On disk the reference is always the
/// state before or after one of those calls.
#[derive(Debug, Clone)]
pub struct GlobalSnapshot {
    dir: PathBuf,
    meta: MetaDoc,
    /// What `meta`'s listing says, kept parsed.
    listing: CommitListing,
}

impl GlobalSnapshot {
    /// Create a fresh global snapshot reference for `job` under `base`.
    pub fn create(
        base: &Path,
        job: JobId,
        nprocs: u32,
        launch: &LaunchRecord,
    ) -> Result<Self, CrError> {
        let dir = base.join(global_dir_name(job));
        fs::create_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        let mut meta = MetaDoc::new();
        meta.set("global", "jobid", job.0.to_string());
        meta.set("global", "nprocs", nprocs.to_string());
        if let Some(resumed_from) = launch.resumed_from {
            meta.set("global", "resume_floor", (resumed_from + 1).to_string());
        }
        if !launch.spare_pool.is_empty() {
            meta.set("global", "spare_nodes", node_list(&launch.spare_pool));
        }
        for (k, v) in &launch.params {
            meta.set("launch", k, v.as_str());
        }
        write_meta(&dir, GLOBAL_META_FILE, &meta)?;
        let listing = CommitListing::read(&meta);
        Ok(GlobalSnapshot { dir, meta, listing })
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
        let meta = MetaDoc::parse(&read_meta(&meta_path)?)?;
        let snap = GlobalSnapshot {
            dir: dir.to_path_buf(),
            listing: CommitListing::read(&meta),
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
        self.listing.intervals()
    }

    /// Most recent committed interval.
    pub fn latest_interval(&self) -> Option<u64> {
        self.listing.latest_interval()
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
        let next = self.listing.next_interval();
        let dir = self.interval_dir(next);
        fs::create_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        Ok((next, dir))
    }

    /// Commit an interval: write its whole [`IntervalRecord`] and list it as
    /// globally committed. Only committed intervals are restorable.
    pub fn commit_interval(
        &mut self,
        interval: u64,
        record: &IntervalRecord,
    ) -> Result<(), CrError> {
        let mut listing = self.listing.clone();
        listing.commit(interval);
        self.write_interval(listing, interval, record)
    }

    /// Locally commit an interval: write its [`IntervalRecord`] exactly as
    /// [`GlobalSnapshot::commit_interval`] would, but list the interval as
    /// *locally* committed only. It stays invisible to restart-facing
    /// accessors until [`GlobalSnapshot::promote_interval`] marks the
    /// gather complete; a failure mid-gather therefore falls back to the
    /// newest globally committed interval.
    pub fn local_commit_interval(
        &mut self,
        interval: u64,
        record: &IntervalRecord,
    ) -> Result<(), CrError> {
        let mut listing = self.listing.clone();
        listing.local_commit(interval);
        self.write_interval(listing, interval, record)
    }

    /// The one body of the two commit calls; `listing` lists the interval.
    fn write_interval(
        &mut self,
        listing: CommitListing,
        interval: u64,
        record: &IntervalRecord,
    ) -> Result<(), CrError> {
        let mut meta = self.meta.clone();
        let section = format!("interval_{interval}");
        for (rank, hostname) in &record.ranks {
            meta.append(
                &section,
                &format!("rank_{}_ref", rank.0),
                local_dir_name(*rank),
            );
            meta.append(
                &section,
                &format!("rank_{}_host", rank.0),
                hostname.as_str(),
            );
        }
        let section = format!("replica_{interval}");
        for (rank, nodes) in &record.replica_holders {
            meta.set(
                &section,
                &format!("rank_{}_nodes", rank.0),
                node_list(nodes),
            );
        }
        let section = format!("manifest_{interval}");
        for (rank, manifest) in &record.chunk_manifests {
            meta.set(&section, &format!("rank_{}", rank.0), manifest.as_str());
        }
        let section = format!("msglog_{interval}");
        for (rank, bytes) in &record.msg_log_bytes {
            meta.set(&section, &format!("rank_{}", rank.0), bytes.to_string());
        }
        if let Some(stats) = &record.gather_stats {
            meta.set(&format!("gather_{interval}"), "stats", stats.as_str());
        }
        self.persist(meta, listing)
    }

    /// Promote a locally committed interval to globally committed, once
    /// its gather has fully landed on stable storage; `gather_stats` is the
    /// finished gather's [`IntervalRecord::gather_stats`] line.
    pub fn promote_interval(&mut self, interval: u64, gather_stats: &str) -> Result<(), CrError> {
        let mut listing = self.listing.clone();
        listing.promote(interval)?;
        let mut meta = self.meta.clone();
        meta.set(&format!("gather_{interval}"), "stats", gather_stats);
        self.persist(meta, listing)
    }

    /// Intervals recorded as locally committed but not yet promoted,
    /// ascending.
    pub fn local_committed_intervals(&self) -> Vec<u64> {
        self.listing.local_committed_intervals()
    }

    /// Commit progress of `interval` (see [`CommitState`]).
    pub fn commit_state(&self, interval: u64) -> CommitState {
        self.listing.commit_state(interval)
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

    /// The gather stats line recorded for `interval`, if the interval was
    /// committed through a gather to stable storage.
    pub fn gather_stats(&self, interval: u64) -> Option<&str> {
        self.meta.get(&format!("gather_{interval}"), "stats")
    }

    /// Retire a committed interval: drop its metadata (interval listing,
    /// per-rank references, replica locations, gather stats, message-log
    /// bytes, chunk manifests), then delete its on-disk directory. Used to
    /// expire superseded checkpoints. Every interval restores from itself
    /// alone, so any committed interval may retire in any order.
    ///
    /// The metadata goes first, so a crash in here leaks files and never
    /// leaves a listed interval without them. The same holds for a dedup
    /// interval's chunks: the manifest removal is on disk *before* the
    /// caller decrefs and sweeps (see the `gc` model).
    pub fn retire_interval(&mut self, interval: u64) -> Result<(), CrError> {
        let mut listing = self.listing.clone();
        listing.retire(interval);
        let mut meta = self.meta.clone();
        for kind in ["interval", "replica", "gather", "msglog", "manifest"] {
            meta.remove_section(&format!("{kind}_{interval}"));
        }
        self.persist(meta, listing)?;
        let dir = self.interval_dir(interval);
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        }
        Ok(())
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

    /// Write `meta` listing `listing` as the metadata file, then adopt
    /// both: when the write fails, neither the file nor `self` has
    /// changed.
    fn persist(&mut self, mut meta: MetaDoc, listing: CommitListing) -> Result<(), CrError> {
        listing.write(&self.listing, &mut meta);
        write_meta(&self.dir, GLOBAL_META_FILE, &meta)?;
        self.meta = meta;
        self.listing = listing;
        Ok(())
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

    /// An [`IntervalRecord`] of just these `(rank, hostname)` pairs.
    fn on(ranks: &[(u32, &str)]) -> IntervalRecord {
        IntervalRecord {
            ranks: ranks
                .iter()
                .map(|(r, h)| (Rank(*r), h.to_string()))
                .collect(),
            ..IntervalRecord::default()
        }
    }

    /// A complete (finished) local snapshot with no context.
    fn finished_local(dir: &Path, rank: u32, interval: u64) {
        let local = LocalSnapshot::create(dir, Rank(rank), "self", interval, "node00").unwrap();
        local.finish().unwrap();
    }

    #[test]
    fn local_snapshot_lifecycle() {
        let base = tmpdir("local");
        let mut snap =
            LocalSnapshot::create(&base, Rank(3), "blcr_sim", 2, "node01").unwrap();
        // Until it is finished there is no metadata file and nothing opens.
        assert!(!snap.dir().join(LOCAL_META_FILE).exists());
        assert!(LocalSnapshot::open(snap.dir()).is_err());
        snap.write_context(&codec::write_frame(b"image bytes"))
            .unwrap();
        snap.set_param("app_phase", "42");
        snap.set_param("sections", "app,pml");
        assert!(
            LocalSnapshot::open(snap.dir()).is_err(),
            "context alone is not a reference"
        );
        snap.finish().unwrap();

        let reopened = LocalSnapshot::open(snap.dir()).unwrap();
        assert_eq!(reopened.rank(), Rank(3));
        assert_eq!(reopened.crs_component(), "blcr_sim");
        assert_eq!(reopened.interval(), 2);
        assert_eq!(reopened.hostname(), Some("node01"));
        assert_eq!(reopened.param("app_phase"), Some("42"));
        assert_eq!(reopened.param("sections"), Some("app,pml"));
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
        snap.write_context(&codec::write_frame(b"pristine state"))
            .unwrap();
        // Flip a byte in the stored context file.
        let path = snap.context_path();
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        fs::write(&path, raw).unwrap();
        let err = snap.read_context().unwrap_err();
        let CrError::BadSnapshot { detail } = &err else {
            panic!("wanted BadSnapshot, got: {err}");
        };
        assert!(
            detail.starts_with("rank 0 interval 0: context "),
            "{detail}"
        );
        assert!(detail.contains(&path.display().to_string()), "{detail}");
        assert!(
            detail.contains("stored 0x") && detail.contains("computed 0x"),
            "{detail}"
        );
    }

    /// A fresh global reference with an empty launch record.
    fn fresh_global(tag: &str, job: u32, nprocs: u32) -> GlobalSnapshot {
        GlobalSnapshot::create(&tmpdir(tag), JobId(job), nprocs, &LaunchRecord::default()).unwrap()
    }

    #[test]
    fn global_snapshot_lifecycle() {
        let mut global = fresh_global("global", 9, 2);
        let (interval, dir) = global.begin_interval().unwrap();
        assert_eq!(interval, 0);
        for r in 0..2 {
            let local =
                LocalSnapshot::create(&dir, Rank(r), "blcr_sim", interval, "node00").unwrap();
            local
                .write_context(&codec::write_frame(format!("rank {r}").as_bytes()))
                .unwrap();
            local.finish().unwrap();
        }
        global
            .commit_interval(interval, &on(&[(0, "node00"), (1, "node00")]))
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
        assert!(reopened.interval_size_bytes(0).unwrap() > 0);
    }

    #[test]
    fn create_carries_the_whole_launch_record() {
        let base = tmpdir("launch");
        let launch = LaunchRecord {
            params: vec![("crs".into(), "blcr_sim".into()), ("np".into(), "2".into())],
            spare_pool: vec![4, 3],
            resumed_from: Some(4),
        };
        let global = GlobalSnapshot::create(&base, JobId(2), 2, &launch).unwrap();
        let mut reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.launch_params(), launch.params);
        assert_eq!(reopened.spare_pool(), vec![3, 4]);
        let (interval, _) = reopened.begin_interval().unwrap();
        assert_eq!(interval, 5, "restart resumes numbering past interval 4");
        // Nothing recorded: no spares, numbering from zero.
        let mut plain = fresh_global("launch_plain", 2, 1);
        assert!(plain.spare_pool().is_empty());
        assert!(plain.launch_params().is_empty());
        assert_eq!(plain.begin_interval().unwrap().0, 0);
    }

    #[test]
    fn intervals_are_monotone() {
        let mut global = fresh_global("intervals", 1, 1);
        for expected in 0..3 {
            let (interval, dir) = global.begin_interval().unwrap();
            assert_eq!(interval, expected);
            finished_local(&dir, 0, interval);
            global
                .commit_interval(interval, &on(&[(0, "node00")]))
                .unwrap();
        }
        assert_eq!(global.intervals(), vec![0, 1, 2]);
    }

    #[test]
    fn uncommitted_interval_is_invisible() {
        let mut global = fresh_global("uncommitted", 1, 1);
        let (interval, _dir) = global.begin_interval().unwrap();
        // Crash before commit: reopening must not list the interval.
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert!(reopened.intervals().is_empty());
        assert!(reopened.local_snapshots(interval).is_err());
    }

    #[test]
    fn missing_rank_reference_reported() {
        let mut global = fresh_global("missingrank", 3, 2);
        let (interval, dir) = global.begin_interval().unwrap();
        // Only rank 0 written and committed; rank 1 forgotten.
        finished_local(&dir, 0, interval);
        global
            .commit_interval(interval, &on(&[(0, "node00")]))
            .unwrap();
        let err = global.local_snapshots(interval).unwrap_err();
        assert!(err.to_string().contains("rank 1"));
    }

    /// Commit `intervals` empty committed intervals on a fresh global.
    fn committed_global(tag: &str, nprocs: u32, intervals: u64) -> GlobalSnapshot {
        let mut global = fresh_global(tag, 11, nprocs);
        let ranks: Vec<(u32, &str)> = (0..nprocs).map(|r| (r, "node00")).collect();
        for _ in 0..intervals {
            let (interval, dir) = global.begin_interval().unwrap();
            for r in 0..nprocs {
                finished_local(&dir, r, interval);
            }
            global.commit_interval(interval, &on(&ranks)).unwrap();
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

    /// Everything an interval can record, in one record.
    fn full_record() -> IntervalRecord {
        IntervalRecord {
            replica_holders: vec![(Rank(0), vec![0, 1]), (Rank(1), vec![1, 0])],
            chunk_manifests: vec![
                (Rank(0), "v1 c4096|app=8:0.ab.8".into()),
                (Rank(1), "v1 c4096|app=8:0.cd.8".into()),
            ],
            msg_log_bytes: vec![(Rank(0), 1024), (Rank(1), 0)],
            gather_stats: Some("waves=2 peak=1 wall=3ms".into()),
            ..on(&[(0, "node00"), (1, "node01")])
        }
    }

    #[test]
    fn one_commit_carries_the_whole_interval_record_and_retire_drops_it() {
        let mut global = committed_global("record", 2, 1);
        let (interval, dir) = global.begin_interval().unwrap();
        assert_eq!(interval, 1);
        for r in 0..2 {
            finished_local(&dir, r, interval);
        }
        global.commit_interval(1, &full_record()).unwrap();

        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.intervals(), vec![0, 1]);
        assert_eq!(reopened.rank_hostname(1, Rank(1)), Some("node01"));
        assert_eq!(reopened.replica_holders(1, Rank(0)), vec![0, 1]);
        assert_eq!(reopened.replica_holders(1, Rank(1)), vec![1, 0]);
        assert_eq!(
            reopened.chunk_manifest(1, Rank(0)),
            Some("v1 c4096|app=8:0.ab.8")
        );
        assert_eq!(reopened.chunk_manifests(1).len(), 2);
        assert_eq!(
            reopened.msg_log_bytes(1),
            vec![(Rank(0), 1024), (Rank(1), 0)]
        );
        assert_eq!(reopened.gather_stats(1), Some("waves=2 peak=1 wall=3ms"));
        // An interval (or a whole snapshot) that recorded none of it:
        // empty, not an error.
        assert!(reopened.replica_holders(0, Rank(0)).is_empty());
        assert!(reopened.replica_holders(7, Rank(0)).is_empty());
        assert_eq!(reopened.chunk_manifest(0, Rank(0)), None);
        assert!(reopened.chunk_manifests(0).is_empty());
        assert!(reopened.msg_log_bytes(0).is_empty());
        assert_eq!(reopened.gather_stats(0), None);

        let mut global = reopened;
        global.retire_interval(1).unwrap();
        assert!(!global.interval_dir(1).exists());
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.intervals(), vec![0]);
        assert!(reopened.local_snapshots(1).is_err());
        assert!(reopened.replica_holders(1, Rank(0)).is_empty());
        assert!(reopened.chunk_manifests(1).is_empty());
        assert!(reopened.msg_log_bytes(1).is_empty());
        assert_eq!(reopened.gather_stats(1), None);
        // Interval 0 untouched.
        assert_eq!(reopened.local_snapshots(0).unwrap().len(), 2);
    }

    #[test]
    fn commit_state_lattice_orders() {
        assert!(CommitState::Uncommitted < CommitState::LocalCommitted);
        assert!(CommitState::LocalCommitted < CommitState::GlobalCommitted);
        assert_eq!(CommitState::LocalCommitted.to_string(), "local-committed");
    }

    #[test]
    fn local_commit_is_invisible_until_promoted() {
        let mut global = fresh_global("localcommit", 6, 1);
        let (interval, dir) = global.begin_interval().unwrap();
        assert_eq!(global.commit_state(interval), CommitState::Uncommitted);
        finished_local(&dir, 0, interval);
        global
            .local_commit_interval(interval, &on(&[(0, "node00")]))
            .unwrap();

        // Locally committed: recorded, but no restart-facing accessor
        // may surface it.
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.commit_state(interval), CommitState::LocalCommitted);
        assert_eq!(reopened.local_committed_intervals(), vec![interval]);
        assert!(reopened.intervals().is_empty());
        assert_eq!(reopened.latest_interval(), None);
        assert!(reopened.local_snapshots(interval).is_err());
        assert_eq!(reopened.gather_stats(interval), None);

        let mut global = reopened;
        global.promote_interval(interval, "waves=1").unwrap();
        let global = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(global.commit_state(interval), CommitState::GlobalCommitted);
        assert!(global.local_committed_intervals().is_empty());
        assert_eq!(global.intervals(), vec![interval]);
        assert_eq!(global.local_snapshots(interval).unwrap().len(), 1);
        assert_eq!(global.gather_stats(interval), Some("waves=1"));
        // Per-rank metadata is identical to a direct commit's.
        assert_eq!(global.rank_hostname(interval, Rank(0)), Some("node00"));
    }

    #[test]
    fn promote_requires_prior_local_commit() {
        let mut global = fresh_global("promotebad", 6, 1);
        let (interval, _dir) = global.begin_interval().unwrap();
        let err = global.promote_interval(interval, "waves=1").unwrap_err();
        assert!(err.to_string().contains("never locally committed"));
    }

    #[test]
    fn begin_interval_numbers_past_local_commits() {
        let mut global = fresh_global("numbering", 6, 1);
        let (i0, d0) = global.begin_interval().unwrap();
        finished_local(&d0, 0, i0);
        global
            .local_commit_interval(i0, &on(&[(0, "node00")]))
            .unwrap();
        // Gather for i0 still in flight; a new interval must not collide.
        let (i1, _d1) = global.begin_interval().unwrap();
        assert_eq!(i1, i0 + 1);
    }

    #[test]
    fn retire_drops_local_commit_record() {
        let mut global = fresh_global("retirelocal", 6, 1);
        let (interval, dir) = global.begin_interval().unwrap();
        finished_local(&dir, 0, interval);
        global
            .local_commit_interval(interval, &on(&[(0, "node00")]))
            .unwrap();
        global.retire_interval(interval).unwrap();
        assert_eq!(global.commit_state(interval), CommitState::Uncommitted);
        assert!(global.local_committed_intervals().is_empty());
    }

    #[test]
    fn stale_temp_files_are_ignored_by_open_and_replaced_by_the_next_write() {
        let mut global = committed_global("staletmp", 1, 1);
        let local_dir = global.interval_dir(0).join(local_dir_name(Rank(0)));
        let global_tmp = global.dir().join(format!("{GLOBAL_META_FILE}.tmp"));
        let local_tmp = local_dir.join(format!("{LOCAL_META_FILE}.tmp"));
        // What a crash between the temp write and the rename leaves: a cut
        // (or garbage) temp file beside an intact reference.
        fs::write(&global_tmp, b"[global]\njobid = 9").unwrap();
        fs::write(&local_tmp, b"\xff\xfe not a metadata file").unwrap();

        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.job(), JobId(11));
        assert_eq!(reopened.intervals(), vec![0]);
        assert_eq!(reopened.local_snapshots(0).unwrap()[0].rank(), Rank(0));

        // The next write of each reference goes through the same temp name
        // and renames it away.
        let (interval, dir) = global.begin_interval().unwrap();
        finished_local(&dir, 0, interval);
        global
            .commit_interval(interval, &on(&[(0, "node00")]))
            .unwrap();
        assert!(!global_tmp.exists());
        LocalSnapshot::open(&local_dir).unwrap().finish().unwrap();
        assert!(!local_tmp.exists());
        let reopened = GlobalSnapshot::open(global.dir()).unwrap();
        assert_eq!(reopened.intervals(), vec![0, 1]);
        assert_eq!(reopened.local_snapshots(0).unwrap().len(), 1);
    }

    /// `global_snapshot_meta.data` exactly as the last build with the
    /// twelve `record_*`/`set_*` writers rendered it for the sequence
    /// [`scripted_sequence`] replays: a launch record, then one interval of
    /// each kind.
    const PARENT_RENDERING: &str = "\
[global]
jobid = 7
nprocs = 2
resume_floor = 5
spare_nodes = 3,2
interval = 5
interval = 6
interval = 7
interval = 8
local_interval = 9

[launch]
crs = blcr_sim
np = 2

[msglog_5]
rank_0 = 1024
rank_1 = 0

[gather_5]
stats = waves=2 peak=1 wall=3ms

[interval_5]
rank_0_ref = opal_snapshot_0.ckpt
rank_0_host = node00
rank_1_ref = opal_snapshot_1.ckpt
rank_1_host = node01

[replica_6]
rank_0_nodes = 0,1
rank_1_nodes = 1,0

[interval_6]
rank_0_ref = opal_snapshot_0.ckpt
rank_0_host = node00
rank_1_ref = opal_snapshot_1.ckpt
rank_1_host = node01

[manifest_7]
rank_0 = v1 c4096|app=8:0.ab.8
rank_1 = v1 c4096|app=8:0.cd.8

[interval_7]
rank_0_ref = opal_snapshot_0.ckpt
rank_0_host = node00
rank_1_ref = opal_snapshot_1.ckpt
rank_1_host = node01

[interval_8]
rank_0_ref = opal_snapshot_0.ckpt
rank_0_host = node00
rank_1_ref = opal_snapshot_1.ckpt
rank_1_host = node01

[gather_8]
stats = waves=1 peak=2 wall=1ms

[interval_9]
rank_0_ref = opal_snapshot_0.ckpt
rank_0_host = node00
rank_1_ref = opal_snapshot_1.ckpt
rank_1_host = node01
";

    /// The sequence behind [`PARENT_RENDERING`], through today's calls.
    fn scripted_sequence(base: &Path) -> GlobalSnapshot {
        let launch = LaunchRecord {
            params: vec![("crs".into(), "blcr_sim".into()), ("np".into(), "2".into())],
            spare_pool: vec![3, 2],
            resumed_from: Some(4),
        };
        let mut g = GlobalSnapshot::create(base, JobId(7), 2, &launch).unwrap();
        let ranks = on(&[(0, "node00"), (1, "node01")]);
        let full = full_record();
        // 5: blocking gather with the message log on.
        let blocking = IntervalRecord {
            msg_log_bytes: full.msg_log_bytes,
            gather_stats: full.gather_stats,
            ..ranks.clone()
        };
        // 6: peer-memory commit; 7: dedup commit.
        let replica = IntervalRecord {
            replica_holders: full.replica_holders,
            ..ranks.clone()
        };
        let dedup = IntervalRecord {
            chunk_manifests: full.chunk_manifests,
            ..ranks.clone()
        };
        for (expected, record) in [(5, &blocking), (6, &replica), (7, &dedup)] {
            assert_eq!(g.begin_interval().unwrap().0, expected);
            g.commit_interval(expected, record).unwrap();
        }
        // 8: early release, gather landed; 9: early release, still gathering.
        assert_eq!(g.begin_interval().unwrap().0, 8);
        g.local_commit_interval(8, &ranks).unwrap();
        g.promote_interval(8, "waves=1 peak=2 wall=1ms").unwrap();
        assert_eq!(g.begin_interval().unwrap().0, 9);
        g.local_commit_interval(9, &ranks).unwrap();
        g
    }

    fn triples(doc: &MetaDoc) -> std::collections::BTreeSet<(String, String, String)> {
        doc.sections()
            .iter()
            .flat_map(|s| {
                s.entries()
                    .iter()
                    .map(|(k, v)| (s.name().to_string(), k.clone(), v.clone()))
            })
            .collect()
    }

    #[test]
    fn on_disk_sections_keys_and_values_are_what_the_parent_wrote() {
        // A reference written by the parent opens and answers as before.
        let old_dir = tmpdir("format_old").join(global_dir_name(JobId(7)));
        fs::create_dir_all(&old_dir).unwrap();
        fs::write(old_dir.join(GLOBAL_META_FILE), PARENT_RENDERING).unwrap();
        let old = GlobalSnapshot::open(&old_dir).unwrap();
        let new = scripted_sequence(&tmpdir("format_new"));
        let new = GlobalSnapshot::open(new.dir()).unwrap();
        for g in [&old, &new] {
            assert_eq!((g.job(), g.nprocs()), (JobId(7), 2));
            assert_eq!(g.intervals(), vec![5, 6, 7, 8]);
            assert_eq!(g.local_committed_intervals(), vec![9]);
            assert_eq!(g.commit_state(9), CommitState::LocalCommitted);
            assert_eq!(g.spare_pool(), vec![2, 3]);
            assert_eq!(g.launch_params().len(), 2);
            assert_eq!(g.msg_log_bytes(5), vec![(Rank(0), 1024), (Rank(1), 0)]);
            assert_eq!(g.gather_stats(5), Some("waves=2 peak=1 wall=3ms"));
            assert_eq!(g.replica_holders(6, Rank(1)), vec![1, 0]);
            assert_eq!(g.chunk_manifest(7, Rank(1)), Some("v1 c4096|app=8:0.cd.8"));
            assert_eq!(g.gather_stats(8), Some("waves=1 peak=2 wall=1ms"));
            assert_eq!(g.rank_hostname(9, Rank(1)), Some("node01"));
            assert_eq!(g.clone().begin_interval().unwrap().0, 10);
        }
        // And the same sequence through the new calls writes the same
        // (section, key, value) triples — only section order may differ.
        assert_eq!(triples(&new.meta), triples(&old.meta));
    }

    #[test]
    fn dir_names_match_open_mpi_convention() {
        assert_eq!(global_dir_name(JobId(42)), "ompi_global_snapshot_42.ckpt");
        assert_eq!(local_dir_name(Rank(7)), "opal_snapshot_7.ckpt");
    }
}
