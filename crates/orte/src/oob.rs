//! Out-of-band (OOB) messaging between the HNP and the per-node daemons.
//!
//! Runtime control traffic (checkpoint coordination, cleanup, shutdown)
//! travels over the same simulated fabric as application messages but on
//! dedicated daemon endpoints, serialized with the `codec` binary format.

use std::path::PathBuf;

use bytes::Bytes;
use netsim::{Endpoint, EndpointId, Fabric, NetError, SimTime};
use serde::{Deserialize, Serialize};

use cr_core::{CrError, JobId};
use opal::store::ChunkId;

use crate::replica::ReplicaImage;

/// Tag used for all OOB traffic (tags are per-endpoint, so one suffices).
pub const TAG_OOB: u64 = 0x4000_0000_0000_0001;

/// A subtree of daemons for hierarchical coordination: the daemon at
/// `endpoint` checkpoints its own ranks and forwards to its `children`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeSpec {
    /// The subtree root daemon's raw endpoint id.
    pub endpoint: u64,
    /// Its node id (diagnostics).
    pub node: u32,
    /// Subtrees below it.
    pub children: Vec<TreeSpec>,
}

/// One rank's completed local checkpoint as reported by its daemon:
/// where the local snapshot lives and how big it is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankCkpt {
    /// The rank.
    pub rank: u32,
    /// Local snapshot directory on the compute node.
    pub dir: PathBuf,
    /// Bytes on disk.
    pub bytes: u64,
}

/// Requests the global coordinator (HNP) sends to a daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DaemonMsg {
    /// Report which local ranks of `job` are checkpointable.
    QueryCheckpointable {
        /// Job being queried.
        job: JobId,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Initiate local checkpoints of every local rank of `job`.
    ///
    /// The daemon must notify *all* local processes before collecting any
    /// reply: the coordination protocol requires every rank to enter the
    /// checkpoint concurrently.
    CheckpointLocal {
        /// Job to checkpoint.
        job: JobId,
        /// Interval number assigned by the global coordinator.
        interval: u64,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Hierarchical checkpoint (the `tree` SNAPC component): checkpoint
    /// local ranks of `job`, concurrently forward the request into the
    /// daemon subtrees, and reply with the aggregated results of the whole
    /// subtree.
    CheckpointTree {
        /// Job to checkpoint.
        job: JobId,
        /// Interval number assigned by the global coordinator.
        interval: u64,
        /// Subtrees rooted at child daemons.
        children: Vec<TreeSpec>,
        /// Raw endpoint id to reply to (parent daemon or the HNP).
        reply_to: u64,
    },
    /// Remove the node-local files of `interval` (post-gather cleanup).
    Cleanup {
        /// Job whose scratch files should be removed.
        job: JobId,
        /// Interval to remove.
        interval: u64,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Store an in-memory replica of one rank's snapshot image in the
    /// daemon's [`crate::replica::ReplicaStore`].
    ReplicaPut {
        /// Job the image belongs to.
        job: JobId,
        /// Checkpoint interval of the image.
        interval: u64,
        /// The image itself (metadata + context files).
        image: ReplicaImage,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Fetch a rank's replica image from the daemon's store, if held.
    ReplicaFetch {
        /// Job the image belongs to.
        job: JobId,
        /// Checkpoint interval wanted.
        interval: u64,
        /// Rank whose image is wanted.
        rank: u32,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Drop every replica entry of one `(job, interval)` from the store
    /// (checkpoint expiry / cleanup).
    ReplicaExpire {
        /// Job whose entries should be dropped.
        job: JobId,
        /// Interval to drop.
        interval: u64,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// List the `(interval, rank)` replica entries held for `job`.
    ReplicaInventory {
        /// Job being queried.
        job: JobId,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Store content-addressed chunks in the daemon's in-memory chunk
    /// tier (the dedup analogue of [`DaemonMsg::ReplicaPut`]).
    ChunkPut {
        /// Job the chunks belong to.
        job: JobId,
        /// `(id, bytes)` of each chunk to hold.
        chunks: Vec<(ChunkId, Vec<u8>)>,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Fetch chunks by id from the daemon's in-memory chunk tier.
    ChunkFetch {
        /// Job the chunks belong to.
        job: JobId,
        /// Ids wanted, in reply order.
        ids: Vec<ChunkId>,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Drop chunks by id from the daemon's in-memory chunk tier (GC of a
    /// retired interval's swept chunks).
    ChunkExpire {
        /// Job whose chunks should be dropped.
        job: JobId,
        /// Ids to drop.
        ids: Vec<ChunkId>,
        /// Raw endpoint id to reply to.
        reply_to: u64,
    },
    /// Stop the daemon thread.
    Shutdown,
}

/// Replies daemons send back to the global coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DaemonReply {
    /// Answer to [`DaemonMsg::QueryCheckpointable`].
    Checkpointable {
        /// Daemon's node id.
        node: u32,
        /// `(rank, checkpointable)` for every local rank.
        ranks: Vec<(u32, bool)>,
    },
    /// A whole daemon subtree completed its checkpoints (reply to
    /// [`DaemonMsg::CheckpointTree`]).
    TreeDone {
        /// Subtree root's node id.
        node: u32,
        /// Per-rank checkpoint descriptions for every rank in the
        /// subtree, paired with the node that produced each.
        results: Vec<(u32, RankCkpt)>,
    },
    /// All local checkpoints of one node completed.
    LocalDone {
        /// Daemon's node id.
        node: u32,
        /// Per-rank checkpoint descriptions for the local ranks.
        results: Vec<RankCkpt>,
    },
    /// The daemon could not complete the request.
    Error {
        /// Daemon's node id.
        node: u32,
        /// What failed.
        detail: String,
    },
    /// Cleanup finished.
    CleanupAck {
        /// Daemon's node id.
        node: u32,
    },
    /// The daemon stored a replica (reply to [`DaemonMsg::ReplicaPut`]).
    ReplicaStored {
        /// Daemon's node id.
        node: u32,
    },
    /// Result of a [`DaemonMsg::ReplicaFetch`]: the image if held, `None`
    /// on a miss (caller moves on to the next holder or stable storage).
    ReplicaImageReply {
        /// Daemon's node id.
        node: u32,
        /// The image, when this daemon holds it.
        image: Option<ReplicaImage>,
    },
    /// Replica entries dropped (reply to [`DaemonMsg::ReplicaExpire`]).
    ReplicaExpired {
        /// Daemon's node id.
        node: u32,
        /// How many entries were removed.
        removed: usize,
    },
    /// Store listing (reply to [`DaemonMsg::ReplicaInventory`]).
    ReplicaHolding {
        /// Daemon's node id.
        node: u32,
        /// `(interval, rank)` pairs currently held for the queried job.
        entries: Vec<(u64, u32)>,
    },
    /// Chunks stored (reply to [`DaemonMsg::ChunkPut`]).
    ChunkStored {
        /// Daemon's node id.
        node: u32,
    },
    /// Result of a [`DaemonMsg::ChunkFetch`]: one entry per requested id,
    /// in request order; `None` for ids this daemon does not hold.
    ChunkData {
        /// Daemon's node id.
        node: u32,
        /// Chunk bytes (or `None` on a miss), in request order.
        chunks: Vec<Option<Vec<u8>>>,
    },
    /// Chunks dropped (reply to [`DaemonMsg::ChunkExpire`]).
    ChunkExpired {
        /// Daemon's node id.
        node: u32,
        /// How many chunks were removed.
        removed: usize,
    },
}

/// Serialize and send an OOB value to `dst`.
///
/// Returns the simulated wire time the fabric charged for the transfer, so
/// control-plane callers that ship bulk payloads (e.g. replica images) can
/// account latency/bandwidth along their critical path. Callers that only
/// steer control flow discard the value.
pub fn send_oob<T: Serialize>(
    fabric: &Fabric,
    src: EndpointId,
    dst: EndpointId,
    value: &T,
) -> Result<SimTime, CrError> {
    let bytes = codec::to_bytes(value)?;
    fabric
        .send(src, dst, TAG_OOB, Bytes::from(bytes))
        .map_err(|e| CrError::PeerLost {
            detail: format!("OOB send to {dst}: {e}"),
        })
}

/// Blocking receive of one OOB value on `endpoint`.
pub fn recv_oob<T: serde::de::DeserializeOwned>(endpoint: &Endpoint) -> Result<T, CrError> {
    let delivery = endpoint.recv().map_err(|e| CrError::PeerLost {
        detail: format!("OOB recv: {e}"),
    })?;
    Ok(codec::from_bytes(&delivery.payload)?)
}

/// Receive with a wall-clock timeout.
pub fn recv_oob_timeout<T: serde::de::DeserializeOwned>(
    endpoint: &Endpoint,
    timeout: std::time::Duration,
) -> Result<T, CrError> {
    let delivery = endpoint.recv_timeout(timeout).map_err(|e| match e {
        NetError::Timeout => CrError::PeerLost {
            detail: "OOB reply timed out".into(),
        },
        other => CrError::PeerLost {
            detail: format!("OOB recv: {other}"),
        },
    })?;
    Ok(codec::from_bytes(&delivery.payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkSpec, NodeId, Topology};

    #[test]
    fn oob_roundtrip_over_fabric() {
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let hnp = fabric.register(NodeId(0));
        let daemon = fabric.register(NodeId(1));
        let msg = DaemonMsg::CheckpointLocal {
            job: JobId(4),
            interval: 2,
            reply_to: hnp.id().0,
        };
        send_oob(&fabric, hnp.id(), daemon.id(), &msg).unwrap();
        let received: DaemonMsg = recv_oob(&daemon).unwrap();
        assert_eq!(received, msg);

        let reply = DaemonReply::LocalDone {
            node: 1,
            results: vec![RankCkpt {
                rank: 0,
                dir: PathBuf::from("/tmp/snap"),
                bytes: 1024,
            }],
        };
        send_oob(&fabric, daemon.id(), hnp.id(), &reply).unwrap();
        let received: DaemonReply = recv_oob(&hnp).unwrap();
        assert_eq!(received, reply);
    }

    #[test]
    fn recv_timeout_reports_peer_lost() {
        let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
        let ep = fabric.register(NodeId(0));
        let err =
            recv_oob_timeout::<DaemonReply>(&ep, std::time::Duration::from_millis(10)).unwrap_err();
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn send_to_dead_daemon_fails() {
        let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
        let hnp = fabric.register(NodeId(0));
        let daemon = fabric.register(NodeId(0));
        let dead = daemon.id();
        drop(daemon);
        let err = send_oob(&fabric, hnp.id(), dead, &DaemonMsg::Shutdown).unwrap_err();
        assert!(matches!(err, CrError::PeerLost { .. }));
    }
}
