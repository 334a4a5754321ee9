//! Checkpoint request/outcome types shared by the API and the tools.

use std::fmt;
use std::path::PathBuf;

use crate::snapshot::CommitState;

/// Who initiated a checkpoint request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointOrigin {
    /// Asynchronous: a command line tool / scheduler outside the job
    /// (`ompi-checkpoint`).
    Tool,
    /// Synchronous: an application rank called the checkpoint API.
    Application {
        /// The requesting rank.
        rank: u32,
    },
}
codec::wire_enum!(CheckpointOrigin { Tool, Application { rank } });

impl fmt::Display for CheckpointOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointOrigin::Tool => f.write_str("tool"),
            CheckpointOrigin::Application { rank } => write!(f, "rank {rank}"),
        }
    }
}

/// Options accompanying a checkpoint request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Terminate the job once the global snapshot is on stable storage
    /// ("checkpoint and terminate" — used before scheduled maintenance).
    pub terminate: bool,
    /// Who asked.
    pub origin: CheckpointOrigin,
}
codec::wire_struct!(CheckpointOptions { terminate, origin });

impl Default for CheckpointOptions {
    fn default() -> Self {
        CheckpointOptions {
            terminate: false,
            origin: CheckpointOrigin::Tool,
        }
    }
}

impl CheckpointOptions {
    /// Tool-initiated request with default flags.
    pub fn tool() -> Self {
        Self::default()
    }

    /// Application-initiated (synchronous) request from `rank`.
    pub fn from_rank(rank: u32) -> Self {
        CheckpointOptions {
            terminate: false,
            origin: CheckpointOrigin::Application { rank },
        }
    }

    /// Request checkpoint-and-terminate.
    pub fn and_terminate(mut self) -> Self {
        self.terminate = true;
        self
    }
}

/// Cost and commit bookkeeping of one checkpoint request, grouped out of
/// [`CheckpointOutcome`] so new metrics stop accreting as flat fields.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptStats {
    /// Bytes the gather phase actually moved off the compute nodes: whole
    /// context files, or with dedup the missing-chunk payload — the
    /// paper's motivating metric either way.
    pub bytes_moved: u64,
    /// The simulated price, in nanoseconds, of the bytes the request
    /// waited for, each link priced idle by `netsim::Topology::cost`. 0
    /// with early release: the request waits for no transfer. Nothing
    /// waits for this price; it is kept only for `benchmark/`, and goes
    /// with ROADMAP item 12.
    pub sim_ns: u64,
    /// Commit progress at the time the request returned:
    /// `GlobalCommitted` for the classic blocking commit,
    /// `LocalCommitted` when early release handed the gather to the
    /// write-behind pool.
    pub commit: CommitState,
    /// Logical image bytes divided by the bytes actually moved to stable
    /// storage this interval. `1.0` outside dedup mode; above `1.0` when
    /// the content-addressed store deduplicated chunks across ranks or
    /// against earlier intervals.
    pub dedup_ratio: f64,
}

impl CkptStats {
    /// Stats for a non-dedup commit path (ratio pinned at `1.0`), before
    /// the price is set.
    pub fn plain(bytes_moved: u64, commit: CommitState) -> Self {
        CkptStats {
            bytes_moved,
            sim_ns: 0,
            commit,
            dedup_ratio: 1.0,
        }
    }
}

/// Result of a successful distributed checkpoint: the single name the user
/// must preserve (paper §4), plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointOutcome {
    /// Path of the global snapshot reference directory on stable storage.
    pub global_snapshot: PathBuf,
    /// The checkpoint interval this request produced.
    pub interval: u64,
    /// Number of local snapshots aggregated.
    pub ranks: u32,
    /// Cost and commit bookkeeping of this request.
    pub stats: CkptStats,
}

impl fmt::Display for CheckpointOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "global snapshot {} (interval {}, {} ranks)",
            self.global_snapshot.display(),
            self.interval,
            self.ranks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_builders() {
        let o = CheckpointOptions::tool();
        assert!(!o.terminate);
        assert_eq!(o.origin, CheckpointOrigin::Tool);
        let o = CheckpointOptions::from_rank(3).and_terminate();
        assert!(o.terminate);
        assert_eq!(o.origin, CheckpointOrigin::Application { rank: 3 });
        assert_eq!(o.origin.to_string(), "rank 3");
    }

    #[test]
    fn outcome_display() {
        let out = CheckpointOutcome {
            global_snapshot: PathBuf::from("/stable/ompi_global_snapshot_1.ckpt"),
            interval: 2,
            ranks: 8,
            stats: CkptStats::plain(4096, CommitState::GlobalCommitted),
        };
        let s = out.to_string();
        assert!(s.contains("interval 2"));
        assert!(s.contains("8 ranks"));
        assert_eq!(out.stats.dedup_ratio, 1.0);
    }

    #[test]
    fn options_wire_roundtrip() {
        let o = CheckpointOptions::from_rank(1).and_terminate();
        let bytes = codec::to_bytes(&o);
        let back: CheckpointOptions = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, o);
        // A struct holding a struct variant, as the build before
        // `codec::Wire` wrote it.
        let parent: &[u8] = &[
            0x10, 0x02, 0x09, 0x74, 0x65, 0x72, 0x6d, 0x69, 0x6e, 0x61, 0x74, 0x65, 0x01, 0x06,
            0x6f, 0x72, 0x69, 0x67, 0x69, 0x6e, 0x14, 0x0b, 0x41, 0x70, 0x70, 0x6c, 0x69, 0x63,
            0x61, 0x74, 0x69, 0x6f, 0x6e, 0x01, 0x04, 0x72, 0x61, 0x6e, 0x6b, 0x04, 0x03,
        ];
        assert_eq!(codec::to_bytes(&CheckpointOptions::from_rank(3)), parent);
    }
}
