//! The out-of-band (OOB) control plane between the HNP and the per-node
//! daemons.
//!
//! Runtime control traffic (checkpoint coordination, cleanup, replica and
//! chunk movement, shutdown) travels over the same simulated fabric as
//! application messages but on dedicated daemon endpoints, serialized with
//! the `codec` binary format. "Ask a daemon something and get an answer"
//! exists once, here:
//!
//! * `Request` is the wire envelope — `(reply_to, msg)` — so no
//!   [`DaemonMsg`] variant carries a reply address;
//! * `Caller` is the asking side: a private reply endpoint per operation,
//!   the one reply timeout, and the one meaning of
//!   [`DaemonReply::Error`];
//! * `daemon_addr` is the dead-node rule: who may be contacted, and who
//!   may be started.
//!
//! Only this module encodes, decodes or addresses an OOB message.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use netsim::{Endpoint, EndpointId, Fabric, NetError, NodeId, SimTime};

use cr_core::{CrError, JobId};
use opal::store::ChunkId;

use crate::replica::ReplicaImage;
use crate::runtime::Runtime;

/// Tag used for all OOB traffic (tags are per-endpoint, so one suffices).
const TAG_OOB: u64 = 0x4000_0000_0000_0001;

/// How long a [`Caller`] waits for the reply to a request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// A subtree of daemons for hierarchical coordination: the daemon at
/// `endpoint` checkpoints its own ranks and forwards to its `children`.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSpec {
    /// The subtree root daemon's raw endpoint id.
    pub endpoint: u64,
    /// Its node id (diagnostics).
    pub node: u32,
    /// Subtrees below it.
    pub children: Vec<TreeSpec>,
}
codec::wire_struct!(TreeSpec { endpoint, node, children });

/// One rank's completed local checkpoint as reported by its daemon:
/// where the local snapshot lives and how big it is.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCkpt {
    /// The rank.
    pub rank: u32,
    /// Local snapshot directory on the compute node.
    pub dir: PathBuf,
    /// Bytes on disk.
    pub bytes: u64,
}
codec::wire_struct!(RankCkpt { rank, dir, bytes });

/// Requests the global coordinator (HNP) — or a forwarding daemon — sends
/// to a daemon. Variants carry only their payload; the reply address
/// travels in the `Request` envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonMsg {
    /// Report which local ranks of `job` are checkpointable.
    QueryCheckpointable {
        /// Job being queried.
        job: JobId,
    },
    /// Checkpoint the local ranks of `job`, concurrently forward the
    /// request into the daemon subtrees, and reply with the aggregated
    /// results of the whole subtree. With no `children` this is the plain
    /// local checkpoint of one node (the `full` SNAPC component).
    ///
    /// The daemon must notify *all* local processes before collecting any
    /// reply: the coordination protocol requires every rank to enter the
    /// checkpoint concurrently.
    CheckpointTree {
        /// Job to checkpoint.
        job: JobId,
        /// Interval number assigned by the global coordinator.
        interval: u64,
        /// The order's epoch, which SNAPC bumps at every initiation (a
        /// retried interval reuses its number, never its epoch).
        epoch: u64,
        /// Newest globally committed interval when it has chunk manifests,
        /// as the global coordinator read it before beginning `interval`:
        /// what a dedup-mode CRS need not pack. Never persisted.
        base: Option<u64>,
        /// Subtrees rooted at child daemons.
        children: Vec<TreeSpec>,
    },
    /// Remove the node-local files of `interval` (post-gather cleanup).
    Cleanup {
        /// Job whose scratch files should be removed.
        job: JobId,
        /// Interval to remove.
        interval: u64,
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
    },
    /// Fetch a rank's replica image from the daemon's store, if held.
    ReplicaFetch {
        /// Job the image belongs to.
        job: JobId,
        /// Checkpoint interval wanted.
        interval: u64,
        /// Rank whose image is wanted.
        rank: u32,
    },
    /// Drop every replica entry of one `(job, interval)` from the store
    /// (checkpoint expiry / cleanup).
    ReplicaExpire {
        /// Job whose entries should be dropped.
        job: JobId,
        /// Interval to drop.
        interval: u64,
    },
    /// List the `(interval, rank)` replica entries held for `job`.
    ReplicaInventory {
        /// Job being queried.
        job: JobId,
    },
    /// Store content-addressed chunks in the daemon's in-memory chunk
    /// tier (the dedup analogue of [`DaemonMsg::ReplicaPut`]).
    ChunkPut {
        /// Job the chunks belong to.
        job: JobId,
        /// `(id, bytes)` of each chunk to hold.
        chunks: Vec<(ChunkId, Vec<u8>)>,
    },
    /// Fetch chunks by id from the daemon's in-memory chunk tier.
    ChunkFetch {
        /// Job the chunks belong to.
        job: JobId,
        /// Ids wanted, in reply order.
        ids: Vec<ChunkId>,
    },
    /// Drop chunks by id from the daemon's in-memory chunk tier (GC of a
    /// retired interval's swept chunks).
    ChunkExpire {
        /// Job whose chunks should be dropped.
        job: JobId,
        /// Ids to drop.
        ids: Vec<ChunkId>,
    },
    /// Stop the daemon thread. The only request that gets no reply.
    Shutdown,
}
codec::wire_enum!(DaemonMsg {
    QueryCheckpointable { job },
    CheckpointTree { job, interval, #[default] epoch, base, children },
    Cleanup { job, interval },
    ReplicaPut { job, interval, image },
    ReplicaFetch { job, interval, rank },
    ReplicaExpire { job, interval },
    ReplicaInventory { job },
    ChunkPut { job, chunks },
    ChunkFetch { job, ids },
    ChunkExpire { job, ids },
    Shutdown,
});

/// The one reply a daemon sends for each request.
#[derive(Debug, Clone, PartialEq)]
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
    /// The daemon could not complete the request. A `Caller` never hands
    /// this variant out: it surfaces as an `Err` naming the node.
    Error {
        /// Daemon's node id.
        node: u32,
        /// What failed.
        detail: String,
    },
    /// Done, nothing to report (reply to [`DaemonMsg::Cleanup`],
    /// [`DaemonMsg::ReplicaPut`] and [`DaemonMsg::ChunkPut`]).
    Ack {
        /// Daemon's node id.
        node: u32,
    },
    /// Result of a [`DaemonMsg::ReplicaFetch`]: the image if held, `None`
    /// on a miss (caller moves on to the next holder or stable storage).
    ReplicaImageReply {
        /// Daemon's node id.
        node: u32,
        /// The image, when this daemon holds it (shared with the store
        /// on the sending side; the wire form is the image itself).
        image: Option<Arc<ReplicaImage>>,
    },
    /// Entries dropped (reply to [`DaemonMsg::ReplicaExpire`] and
    /// [`DaemonMsg::ChunkExpire`]).
    Removed {
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
    /// Result of a [`DaemonMsg::ChunkFetch`]: one entry per requested id,
    /// in request order; `None` for ids this daemon does not hold.
    ChunkData {
        /// Daemon's node id.
        node: u32,
        /// Chunk bytes (or `None` on a miss), in request order.
        chunks: Vec<Option<Vec<u8>>>,
    },
}
codec::wire_enum!(DaemonReply {
    Checkpointable { node, ranks },
    TreeDone { node, results },
    Error { node, detail },
    Ack { node },
    ReplicaImageReply { node, image },
    Removed { node, removed },
    ReplicaHolding { node, entries },
    ChunkData { node, chunks },
});

impl DaemonReply {
    /// The error for a reply of a kind the request cannot produce.
    pub(crate) fn unexpected(self) -> CrError {
        CrError::protocol(format!("unexpected daemon reply: {self:?}"))
    }
}

fn post(from: &Endpoint, to: EndpointId, bytes: Vec<u8>) -> Result<SimTime, CrError> {
    from.send_to(to, TAG_OOB, Bytes::from(bytes))
        .map_err(|e| CrError::PeerLost {
            detail: format!("OOB send to {to}: {e}"),
        })
}

/// The envelope every request crosses the wire in: the message plus the
/// private endpoint its one reply goes to. Encoded as the pair
/// `(reply_to, msg)` so a [`Caller`] can frame a borrowed message.
#[derive(Debug)]
pub(crate) struct Request {
    /// Where the daemon sends its reply.
    pub reply_to: EndpointId,
    /// What is being asked.
    pub msg: DaemonMsg,
}

impl Request {
    /// Blocking receive of the next request on a daemon's serving
    /// endpoint. Fails once the fabric is torn down.
    pub fn recv(serving: &Endpoint) -> Result<Request, CrError> {
        let delivery = serving.recv().map_err(|e| CrError::PeerLost {
            detail: format!("OOB recv: {e}"),
        })?;
        let (reply_to, msg) = codec::from_bytes(&delivery.payload)?;
        Ok(Request {
            reply_to: EndpointId(reply_to),
            msg,
        })
    }
}

/// The daemon side of the exchange: hand each request's message to
/// `handle` and send the reply it produces back to the asker, until
/// `handle` returns `None` (shutdown: the one request nobody answers) or
/// the fabric is torn down.
pub(crate) fn serve(serving: &Endpoint, mut handle: impl FnMut(DaemonMsg) -> Option<DaemonReply>) {
    while let Ok(Request { reply_to, msg }) = Request::recv(serving) {
        let Some(reply) = handle(msg) else { return };
        // Best effort: a caller that gave up has dropped its reply endpoint.
        let _ = post(serving, reply_to, codec::to_bytes(&reply));
    }
}

/// The dead-node rule, stated once: a control-plane call never contacts
/// and never revives a node in the runtime's failed set — only placement
/// (`launch`, `respawn_rank`) may bring a node back. A node that was
/// simply never started gets its daemon on first use, so replication into
/// a fresh runtime works.
pub(crate) fn daemon_addr(runtime: &Runtime, node: NodeId) -> Result<EndpointId, CrError> {
    if runtime.node_failed(node) {
        return Err(CrError::PeerLost {
            detail: format!("{node} has failed"),
        });
    }
    Ok(runtime.ensure_daemon(node).endpoint())
}

/// One side of "ask a daemon something and get an answer": owns a private
/// reply endpoint (so replies never mix with anything else the asker
/// receives), the one reply timeout, and the one meaning of
/// [`DaemonReply::Error`]. Make one per operation, not one per message.
pub(crate) struct Caller {
    reply: Endpoint,
    timeout: Duration,
}

impl Caller {
    /// A caller living on `node`: the HNP is node 0, a forwarding daemon
    /// passes its own node.
    pub fn new(fabric: &Fabric, node: NodeId) -> Caller {
        Caller {
            reply: fabric.register(node),
            timeout: REPLY_TIMEOUT,
        }
    }

    /// Send `msg` to the daemon serving on `to`. Returns the simulated
    /// wire time the fabric charged, so callers that ship bulk payloads
    /// (replica images, chunks) can account it along their critical path.
    pub fn send(&self, to: EndpointId, msg: &DaemonMsg) -> Result<SimTime, CrError> {
        let mut envelope = Vec::new();
        codec::wire::encode_pair(&self.reply.id().0, msg, &mut envelope);
        post(&self.reply, to, envelope)
    }

    /// The next reply, whatever its kind, and the simulated wire time the
    /// fabric charged to deliver it; a silent daemon is `PeerLost`.
    fn recv_any(&self) -> Result<(DaemonReply, SimTime), CrError> {
        let delivery = self
            .reply
            .recv_timeout(self.timeout)
            .map_err(|e| CrError::PeerLost {
                detail: match e {
                    NetError::Timeout => "OOB reply timed out".into(),
                    other => format!("OOB recv: {other}"),
                },
            })?;
        Ok((codec::from_bytes(&delivery.payload)?, delivery.wire_time))
    }

    /// The next reply and its wire time. A daemon-side
    /// [`DaemonReply::Error`] is an `Err` naming the node.
    pub fn recv(&self) -> Result<(DaemonReply, SimTime), CrError> {
        match self.recv_any()? {
            (DaemonReply::Error { node, detail }, _) => {
                Err(CrError::protocol(format!("node {node}: {detail}")))
            }
            reply => Ok(reply),
        }
    }

    /// `send` then `recv`: the reply and the wire time of the whole
    /// exchange — request *and* reply, so a fetch is charged for the bytes
    /// it brings back.
    pub fn call(&self, to: EndpointId, msg: &DaemonMsg) -> Result<(DaemonReply, SimTime), CrError> {
        let request = self.send(to, msg)?;
        let (reply, response) = self.recv()?;
        Ok((reply, request + response))
    }

    /// The collect half of a fan-out (`send` × n first, so every daemon
    /// works concurrently): drain all `n` replies through `each`, and
    /// report every failing node in one "`what` failed: node 1: …;
    /// node 2: …" error. A silent daemon ends the wait at once.
    pub fn collect(
        &self,
        what: &str,
        n: usize,
        mut each: impl FnMut(DaemonReply) -> Result<(), CrError>,
    ) -> Result<(), CrError> {
        let mut failures = Vec::new();
        for _ in 0..n {
            match self.recv_any()?.0 {
                DaemonReply::Error { node, detail } => {
                    failures.push(format!("node {node}: {detail}"))
                }
                reply => {
                    if let Err(e) = each(reply) {
                        failures.push(e.to_string());
                    }
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(CrError::protocol(format!(
                "{what} failed: {}",
                failures.join("; ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::tests::{spawn_proc, tmpdir};
    use crate::daemon::Orted;
    use cr_core::{Rank, Tracer};
    use netsim::{LinkSpec, Topology};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn fabric(nodes: u32) -> Fabric {
        Fabric::new(Topology::uniform(nodes, LinkSpec::gigabit_ethernet()))
    }

    /// A caller whose patience a test can afford to exhaust.
    fn impatient(fabric: &Fabric) -> Caller {
        Caller {
            reply: fabric.register(NodeId(0)),
            timeout: Duration::from_millis(50),
        }
    }

    #[test]
    fn envelope_roundtrips_a_borrowed_message() {
        let fabric = fabric(2);
        let serving = fabric.register(NodeId(1));
        let hnp = Caller::new(&fabric, NodeId(0));
        let msg = DaemonMsg::Cleanup {
            job: JobId(4),
            interval: 2,
        };
        hnp.send(serving.id(), &msg).unwrap();
        let request = Request::recv(&serving).unwrap();
        assert_eq!(request.reply_to, hnp.reply.id());
        assert_eq!(request.msg, msg);

        let reply = DaemonReply::TreeDone {
            node: 1,
            results: vec![(
                1,
                RankCkpt {
                    rank: 0,
                    dir: PathBuf::from("/tmp/snap"),
                    bytes: 1024,
                },
            )],
        };
        post(&serving, request.reply_to, codec::to_bytes(&reply)).unwrap();
        assert_eq!(hnp.recv().unwrap().0, reply);
    }

    /// `codec::to_bytes` of the `ReplicaPut` built in the test below, as
    /// the build before `ReplicaImage.files` held raw byte runs wrote it.
    const PARENT_REPLICA_PUT: &[u8] = &[
        0x14, 0x0a, 0x52, 0x65, 0x70, 0x6c, 0x69, 0x63, 0x61, 0x50, 0x75, 0x74, 0x03, 0x03, 0x6a,
        0x6f, 0x62, 0x04, 0x07, 0x08, 0x69, 0x6e, 0x74, 0x65, 0x72, 0x76, 0x61, 0x6c, 0x04, 0x03,
        0x05, 0x69, 0x6d, 0x61, 0x67, 0x65, 0x10, 0x02, 0x04, 0x72, 0x61, 0x6e, 0x6b, 0x04, 0x02,
        0x05, 0x66, 0x69, 0x6c, 0x65, 0x73, 0x0e, 0x02, 0x0e, 0x02, 0x0a, 0x0b, 0x63, 0x6f, 0x6e,
        0x74, 0x65, 0x78, 0x74, 0x2e, 0x62, 0x69, 0x6e, 0x0e, 0x04, 0x04, 0x00, 0x04, 0xc8, 0x01,
        0x04, 0x01, 0x04, 0x81, 0x01, 0x0e, 0x02, 0x0a, 0x12, 0x73, 0x6e, 0x61, 0x70, 0x73, 0x68,
        0x6f, 0x74, 0x5f, 0x6d, 0x65, 0x74, 0x61, 0x2e, 0x64, 0x61, 0x74, 0x61, 0x0e, 0x04, 0x04,
        0x5b, 0x04, 0x73, 0x04, 0x5d, 0x04, 0x0a,
    ];

    #[test]
    fn replica_put_written_by_the_parent_build_still_decodes() {
        let want = DaemonMsg::ReplicaPut {
            job: JobId(7),
            interval: 3,
            image: ReplicaImage {
                rank: 2,
                files: vec![
                    ("context.bin".into(), vec![0, 200, 1, 129].into()),
                    ("snapshot_meta.data".into(), b"[s]\n".to_vec().into()),
                ],
            },
        };
        let old: DaemonMsg = codec::from_bytes(PARENT_REPLICA_PUT).unwrap();
        assert_eq!(old, want);
        let new = codec::to_bytes(&old);
        assert!(new.len() < PARENT_REPLICA_PUT.len(), "{} bytes", new.len());
        assert_eq!(codec::from_bytes::<DaemonMsg>(&new).unwrap(), want);
    }

    /// `codec::to_bytes` of one message per variant shape the OOB types
    /// use — unit, struct (with a newtype `JobId`, a `PathBuf`, tuples,
    /// options, a shared image and byte runs) — and of the request
    /// envelope, as the build before `codec::Wire` replaced the generic
    /// (de)serializer wrote them.
    #[test]
    fn daemon_messages_keep_their_parent_encoding() {
        let image = ReplicaImage {
            rank: 1,
            files: vec![("ctx".into(), vec![9, 8])],
        };
        let cases: [(Vec<u8>, &[u8]); 5] = [
            (codec::to_bytes(&DaemonMsg::Shutdown), &[
                0x11, 0x08, 0x53, 0x68, 0x75, 0x74, 0x64, 0x6f, 0x77, 0x6e,
            ]),
            (
                codec::to_bytes(&DaemonMsg::ChunkFetch {
                    job: JobId(2),
                    ids: vec![ChunkId { digest: 0xDEAD_BEEF, len: 4096 }],
                }),
                &[
                    0x14, 0x0a, 0x43, 0x68, 0x75, 0x6e, 0x6b, 0x46, 0x65, 0x74, 0x63, 0x68, 0x02,
                    0x03, 0x6a, 0x6f, 0x62, 0x04, 0x02, 0x03, 0x69, 0x64, 0x73, 0x0e, 0x01, 0x10,
                    0x02, 0x06, 0x64, 0x69, 0x67, 0x65, 0x73, 0x74, 0x04, 0xef, 0xfd, 0xb6, 0xf5,
                    0x0d, 0x03, 0x6c, 0x65, 0x6e, 0x04, 0x80, 0x20,
                ],
            ),
            (
                codec::to_bytes(&DaemonReply::ChunkData {
                    node: 1,
                    chunks: vec![Some(vec![1, 2, 3]), None],
                }),
                &[
                    0x14, 0x09, 0x43, 0x68, 0x75, 0x6e, 0x6b, 0x44, 0x61, 0x74, 0x61, 0x02, 0x04,
                    0x6e, 0x6f, 0x64, 0x65, 0x04, 0x01, 0x06, 0x63, 0x68, 0x75, 0x6e, 0x6b, 0x73,
                    0x0e, 0x02, 0x0d, 0x0b, 0x03, 0x01, 0x02, 0x03, 0x0c,
                ],
            ),
            (
                codec::to_bytes(&DaemonReply::TreeDone {
                    node: 0,
                    results: vec![(
                        1,
                        RankCkpt { rank: 1, dir: "/tmp/r1".into(), bytes: 300 },
                    )],
                }),
                &[
                    0x14, 0x08, 0x54, 0x72, 0x65, 0x65, 0x44, 0x6f, 0x6e, 0x65, 0x02, 0x04, 0x6e,
                    0x6f, 0x64, 0x65, 0x04, 0x00, 0x07, 0x72, 0x65, 0x73, 0x75, 0x6c, 0x74, 0x73,
                    0x0e, 0x01, 0x0e, 0x02, 0x04, 0x01, 0x10, 0x03, 0x04, 0x72, 0x61, 0x6e, 0x6b,
                    0x04, 0x01, 0x03, 0x64, 0x69, 0x72, 0x0a, 0x07, 0x2f, 0x74, 0x6d, 0x70, 0x2f,
                    0x72, 0x31, 0x05, 0x62, 0x79, 0x74, 0x65, 0x73, 0x04, 0xac, 0x02,
                ],
            ),
            (
                codec::to_bytes(&DaemonReply::ReplicaImageReply {
                    node: 2,
                    image: Some(Arc::new(image)),
                }),
                &[
                    0x14, 0x11, 0x52, 0x65, 0x70, 0x6c, 0x69, 0x63, 0x61, 0x49, 0x6d, 0x61, 0x67,
                    0x65, 0x52, 0x65, 0x70, 0x6c, 0x79, 0x02, 0x04, 0x6e, 0x6f, 0x64, 0x65, 0x04,
                    0x02, 0x05, 0x69, 0x6d, 0x61, 0x67, 0x65, 0x0d, 0x10, 0x02, 0x04, 0x72, 0x61,
                    0x6e, 0x6b, 0x04, 0x01, 0x05, 0x66, 0x69, 0x6c, 0x65, 0x73, 0x0e, 0x01, 0x0e,
                    0x02, 0x0a, 0x03, 0x63, 0x74, 0x78, 0x0b, 0x02, 0x09, 0x08,
                ],
            ),
        ];
        for (now, parent) in cases {
            assert_eq!(now, parent);
        }
        assert_eq!(
            codec::from_bytes::<DaemonMsg>(&codec::to_bytes(&DaemonMsg::Shutdown)).unwrap(),
            DaemonMsg::Shutdown
        );

        // The `(reply_to, msg)` envelope a `Caller` writes from a borrow.
        let mut envelope = Vec::new();
        codec::wire::encode_pair(&7u64, &DaemonMsg::Shutdown, &mut envelope);
        assert_eq!(envelope, [
            0x0e, 0x02, 0x04, 0x07, 0x11, 0x08, 0x53, 0x68, 0x75, 0x74, 0x64, 0x6f, 0x77, 0x6e,
        ]);
        let (reply_to, msg): (u64, DaemonMsg) = codec::from_bytes(&envelope).unwrap();
        assert_eq!((reply_to, msg), (7, DaemonMsg::Shutdown));
    }

    /// Bulk payloads cross the wire as raw runs: an encoded message is its
    /// payload plus a small skeleton per payload-carrying entry.
    #[test]
    fn bulk_messages_encode_to_their_payload_plus_a_small_skeleton() {
        let blob = |len: usize| (0..=255u8).cycle().take(len).collect::<Vec<u8>>();
        let fits = |what: &str, encoded: usize, payload: usize, entries: usize| {
            let bound = payload + 64 * (entries + 1);
            assert!(encoded <= bound, "{what}: {encoded} > {bound}");
        };

        let image = ReplicaImage {
            rank: 1,
            files: vec![
                ("context.bin".into(), blob(300_000)),
                ("snapshot_meta.data".into(), blob(400)),
            ],
        };
        let payload = image.total_bytes() as usize;
        let put = DaemonMsg::ReplicaPut { job: JobId(1), interval: 0, image: image.clone() };
        fits("ReplicaPut", codec::to_bytes(&put).len(), payload, 2);
        let reply = DaemonReply::ReplicaImageReply { node: 0, image: Some(Arc::new(image)) };
        fits("ReplicaImageReply", codec::to_bytes(&reply).len(), payload, 2);

        let chunks: Vec<(ChunkId, Vec<u8>)> = (1..=4)
            .map(|i| blob(64 * 1024 + i))
            .map(|b| (ChunkId::of(&b), b))
            .collect();
        let payload: usize = chunks.iter().map(|(_, b)| b.len()).sum();
        let data = DaemonReply::ChunkData {
            node: 0,
            chunks: chunks.iter().map(|(_, b)| Some(b.clone())).chain([None]).collect(),
        };
        fits("ChunkData", codec::to_bytes(&data).len(), payload, 5);
        let put = DaemonMsg::ChunkPut { job: JobId(1), chunks };
        fits("ChunkPut", codec::to_bytes(&put).len(), payload, 4);
    }

    #[test]
    fn every_request_gets_exactly_one_reply_of_its_kind() {
        let fabric = fabric(1);
        let tracer = Tracer::new();
        let daemon = Orted::spawn(fabric.clone(), NodeId(0), tmpdir("table"), tracer.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let job = JobId(3);
        let (container, ctrl, app) = spawn_proc(job, Rank(0), &tracer, Arc::clone(&stop));
        daemon.register_proc(job, Rank(0), container, ctrl);

        let image = ReplicaImage {
            rank: 0,
            files: vec![("ctx".into(), vec![7; 16].into())],
        };
        let chunk = ChunkId::of(b"chunk");
        type Check = fn(&DaemonReply) -> bool;
        let table: Vec<(DaemonMsg, Check)> = vec![
            (
                DaemonMsg::QueryCheckpointable { job },
                |r| matches!(r, DaemonReply::Checkpointable { ranks, .. } if ranks == &[(0, true)]),
            ),
            (
                DaemonMsg::CheckpointTree {
                    job,
                    interval: 0,
                    epoch: 0,
                    base: None,
                    children: Vec::new(),
                },
                |r| matches!(r, DaemonReply::TreeDone { results, .. } if results.len() == 1),
            ),
            (DaemonMsg::Cleanup { job, interval: 0 }, |r| {
                matches!(r, DaemonReply::Ack { node: 0 })
            }),
            (
                DaemonMsg::ReplicaPut {
                    job,
                    interval: 0,
                    image,
                },
                |r| matches!(r, DaemonReply::Ack { node: 0 }),
            ),
            (
                DaemonMsg::ReplicaFetch {
                    job,
                    interval: 0,
                    rank: 0,
                },
                |r| matches!(r, DaemonReply::ReplicaImageReply { image: Some(_), .. }),
            ),
            (
                DaemonMsg::ReplicaInventory { job },
                |r| matches!(r, DaemonReply::ReplicaHolding { entries, .. } if entries == &[(0, 0)]),
            ),
            (DaemonMsg::ReplicaExpire { job, interval: 0 }, |r| {
                matches!(r, DaemonReply::Removed { removed: 1, .. })
            }),
            (
                DaemonMsg::ChunkPut {
                    job,
                    chunks: vec![(chunk, b"chunk".to_vec())],
                },
                |r| matches!(r, DaemonReply::Ack { node: 0 }),
            ),
            (
                DaemonMsg::ChunkFetch {
                    job,
                    ids: vec![chunk],
                },
                |r| matches!(r, DaemonReply::ChunkData { chunks, .. } if chunks == &[Some(b"chunk".to_vec())]),
            ),
            (
                DaemonMsg::ChunkExpire {
                    job,
                    ids: vec![chunk],
                },
                |r| matches!(r, DaemonReply::Removed { removed: 1, .. }),
            ),
        ];
        let hnp = impatient(&fabric);
        for (msg, is_documented_kind) in &table {
            let (reply, _) = hnp.call(daemon.endpoint(), msg).unwrap();
            assert!(is_documented_kind(&reply), "{msg:?} answered {reply:?}");
            assert_eq!(
                hnp.reply.try_recv().err(),
                Some(NetError::Empty),
                "{msg:?} answered more than once"
            );
        }
        stop.store(true, Ordering::SeqCst);
        app.join().unwrap();

        // Shutdown is the one request nobody answers.
        hnp.send(daemon.endpoint(), &DaemonMsg::Shutdown).unwrap();
        let err = hnp.recv().unwrap_err();
        assert!(matches!(err, CrError::PeerLost { .. }), "{err}");
        daemon.shutdown();
    }

    #[test]
    fn silent_daemon_is_peer_lost_after_the_timeout() {
        let fabric = fabric(1);
        let silent = fabric.register(NodeId(0));
        let hnp = impatient(&fabric);
        hnp.send(silent.id(), &DaemonMsg::ReplicaInventory { job: JobId(1) })
            .unwrap();
        let err = hnp.recv().unwrap_err();
        assert!(matches!(err, CrError::PeerLost { .. }));
        assert!(err.to_string().contains("timed out"));
        // A fan-out collect gives up at once too: it does not wait the
        // timeout out once per outstanding reply.
        let started = std::time::Instant::now();
        let err = hnp.collect("probe", 20, |_| Ok(())).unwrap_err();
        assert!(matches!(err, CrError::PeerLost { .. }));
        assert!(started.elapsed() < hnp.timeout * 10);
    }

    #[test]
    fn error_reply_is_an_err_naming_node_and_detail() {
        let fabric = fabric(2);
        let daemon = Orted::spawn(fabric.clone(), NodeId(1), tmpdir("err"), Tracer::new());
        let hnp = Caller::new(&fabric, NodeId(0));
        let no_procs = DaemonMsg::CheckpointTree {
            job: JobId(1),
            interval: 0,
            epoch: 0,
            base: None,
            children: Vec::new(),
        };
        let err = hnp
            .call(daemon.endpoint(), &no_procs)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("node 1") && err.contains("has no processes"),
            "{err}"
        );
        // A collect reports every failing node in one error.
        hnp.send(daemon.endpoint(), &no_procs).unwrap();
        hnp.send(daemon.endpoint(), &no_procs).unwrap();
        let err = hnp
            .collect("checkpoint", 2, |_| Ok(()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("checkpoint failed: node 1: "), "{err}");
        assert_eq!(err.matches("; node 1: ").count(), 1, "{err}");
        daemon.shutdown();
    }

    #[test]
    fn failed_node_is_never_contacted_or_revived() {
        let rt = crate::snapc::tests::runtime("oob_dead", 3);
        let spawns = || rt.tracer().count_prefix("orte.daemon.spawn");
        // Never started: the daemon comes up on first use.
        daemon_addr(&rt, NodeId(1)).unwrap();
        assert_eq!(spawns(), 1);
        // Failed: PeerLost, no spawn, still failed.
        rt.kill_daemon(NodeId(1));
        let err = daemon_addr(&rt, NodeId(1)).unwrap_err();
        assert!(matches!(err, CrError::PeerLost { .. }), "{err}");
        assert_eq!(spawns(), 1);
        assert!(rt.node_failed(NodeId(1)));
        assert!(rt.daemons().is_empty());
        rt.shutdown();
    }

    #[test]
    fn send_to_dead_daemon_fails() {
        let fabric = fabric(1);
        let hnp = Caller::new(&fabric, NodeId(0));
        let daemon = fabric.register(NodeId(0));
        let dead = daemon.id();
        drop(daemon);
        let err = hnp.send(dead, &DaemonMsg::Shutdown).unwrap_err();
        assert!(matches!(err, CrError::PeerLost { .. }));
    }
}
