//! Peer-memory replicated snapshot store (beyond-paper subsystem).
//!
//! The paper's FILEM treats stable storage as the only durable home for
//! snapshot images, so every checkpoint pays a full gather to shared disk
//! and every restart pays a full broadcast back out. Following ReStore
//! (Hübner et al., 2022), this module keeps each rank's newest snapshot
//! image *in the memory of surviving daemons* as well:
//!
//! * every `orted` hosts a [`ReplicaStore`] holding images for its own
//!   node's ranks plus ring-replicated copies from `k` neighbor nodes
//!   (replication factor via the `filem_replica_factor` MCA parameter),
//! * images travel over the ordinary OOB fabric, and
//! * the restart path asks surviving replicas first and only falls back
//!   to stable storage when more than `k` nodes (or the whole host
//!   process) are gone.
//!
//! The ring: node `n`'s image is held by `n` itself plus nodes
//! `(n + 1) % N`, …, `(n + k) % N`. Losing any `k` nodes therefore leaves
//! at least one holder of every image alive; losing `k + 1` can orphan an
//! image, which is why the stable-storage write-behind drain still runs.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use netsim::{NodeId, SimTime};
use parking_lot::Mutex;

use cr_core::snapshot::{LocalSnapshot, LOCAL_META_FILE};
use cr_core::{CrError, JobId, Rank};
use opal::store::ChunkId;

use crate::oob::{daemon_addr, Caller, DaemonMsg, DaemonReply};
use crate::runtime::Runtime;

/// One rank's snapshot image, fully materialized in memory: every file of
/// the local snapshot reference directory (metadata and context), stored
/// as `(relative path, bytes)` pairs so it can be re-materialized on any
/// node at restart.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaImage {
    /// Rank this image belongs to.
    pub rank: u32,
    /// `(path relative to the snapshot directory, contents)`, sorted by
    /// path for deterministic equality.
    pub files: Vec<(String, Vec<u8>)>,
}
codec::wire_struct!(ReplicaImage { rank, files });

fn io_err(path: &Path, e: &std::io::Error) -> CrError {
    CrError::io(path.display().to_string(), e)
}

fn collect_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, Vec<u8>)>,
) -> Result<(), CrError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let path = entry.path();
        if path.is_dir() {
            collect_files(root, &path, out)?;
        } else {
            let rel = path.strip_prefix(root).map_err(|_| {
                CrError::protocol(format!(
                    "{} escapes snapshot root {}",
                    path.display(),
                    root.display()
                ))
            })?;
            let bytes = fs::read(&path).map_err(|e| io_err(&path, &e))?;
            out.push((rel.to_string_lossy().into_owned(), bytes.into()));
        }
    }
    Ok(())
}

impl ReplicaImage {
    /// Capture a local snapshot reference directory into memory.
    pub fn from_dir(rank: Rank, dir: &Path) -> Result<Self, CrError> {
        let mut files = Vec::new();
        collect_files(dir, dir, &mut files)?;
        files.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(ReplicaImage { rank: rank.0, files })
    }

    /// The local snapshot this image holds, as if opened at `dir` (the
    /// reference it was captured from), and the payload of its context
    /// file with the frame checksum checked: [`LocalSnapshot::open`] and
    /// [`LocalSnapshot::read_context`] on the bytes in memory, nothing
    /// written anywhere.
    pub fn open(&self, dir: &Path) -> Result<(LocalSnapshot, &[u8]), CrError> {
        let bad = |why: String| CrError::BadSnapshot {
            detail: format!("replica image of rank {}: {why}", self.rank),
        };
        let file = |name: &str| {
            let found = self.files.iter().find(|(rel, _)| rel == name);
            found.map(|(_, bytes)| bytes.as_slice()).ok_or_else(|| bad(format!("holds no {name}")))
        };
        let meta = std::str::from_utf8(file(LOCAL_META_FILE)?).map_err(|e| bad(e.to_string()))?;
        let local = LocalSnapshot::parse(dir, meta)?;
        let context =
            codec::read_frame(file(local.context_file())?).map_err(|e| local.bad_context(e))?;
        Ok((local, context))
    }

    /// Total payload size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

/// In-memory replica store, one per daemon. Keyed by
/// `(job, interval, rank)`; survives as long as its daemon thread does and
/// dies with the node — that is the point: it models volatile peer memory,
/// not stable storage.
///
/// Alongside whole images the store keeps a *chunk tier*: content-addressed
/// chunks keyed `(job, chunk id)`, the peer-memory mirror of the stable
/// [`opal::store::ChunkStore`].  Dedup restarts fetch manifest chunks from
/// surviving daemons before touching stable storage.
#[derive(Debug, Default)]
pub struct ReplicaStore {
    entries: Mutex<std::collections::HashMap<(JobId, u64, u32), Arc<ReplicaImage>>>,
    chunks: Mutex<std::collections::HashMap<(JobId, ChunkId), Vec<u8>>>,
}

impl ReplicaStore {
    /// An empty store.
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Insert (or replace) one rank's image for `(job, interval)`.
    pub fn put(&self, job: JobId, interval: u64, image: ReplicaImage) {
        self.entries
            .lock()
            .insert((job, interval, image.rank), Arc::new(image));
    }

    /// The stored image, if held — shared, not copied.
    pub fn get(&self, job: JobId, interval: u64, rank: u32) -> Option<Arc<ReplicaImage>> {
        self.entries.lock().get(&(job, interval, rank)).cloned()
    }

    /// Drop every entry of `(job, interval)`. Returns how many were
    /// removed.
    pub fn expire_interval(&self, job: JobId, interval: u64) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|(j, i, _), _| !(*j == job && *i == interval));
        before - entries.len()
    }

    /// Hold one content-addressed chunk for `job` in peer memory.
    pub fn put_chunk(&self, job: JobId, id: ChunkId, bytes: Vec<u8>) {
        self.chunks.lock().insert((job, id), bytes);
    }

    /// Copy of a held chunk, if present.
    pub fn get_chunk(&self, job: JobId, id: &ChunkId) -> Option<Vec<u8>> {
        self.chunks.lock().get(&(job, *id)).cloned()
    }

    /// Drop the listed chunks of `job`. Returns how many were held.
    pub fn expire_chunks(&self, job: JobId, ids: &[ChunkId]) -> usize {
        let mut chunks = self.chunks.lock();
        ids.iter()
            .filter(|id| chunks.remove(&(job, **id)).is_some())
            .count()
    }

    /// `(interval, rank)` pairs currently held for `job`, sorted.
    pub fn inventory(&self, job: JobId) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self
            .entries
            .lock()
            .keys()
            .filter(|(j, _, _)| *j == job)
            .map(|(_, i, r)| (*i, *r))
            .collect();
        v.sort_unstable();
        v
    }
}

/// The `k` ring successors of `node` among `nodes` total, excluding
/// `node` itself. With fewer than `k + 1` nodes the ring simply stops
/// when it would wrap back onto `node` — every other node then holds a
/// copy.
///
/// Invariant (model-checked by `cr-model replica`, which places images
/// with this function, see `crates/model/src/replica.rs`): with this
/// placement every committed image keeps at least one live holder under
/// any `k` node losses.
pub fn ring_neighbors(node: u32, nodes: u32, k: u32) -> Vec<u32> {
    let mut out = Vec::new();
    if nodes <= 1 {
        return out;
    }
    for step in 1..=k {
        let neighbor = (node + step) % nodes;
        if neighbor == node {
            break;
        }
        out.push(neighbor);
    }
    out
}

/// Result of replicating one checkpoint interval into peer memory.
#[derive(Debug, Clone)]
pub struct ReplicationOutcome {
    /// Per rank: the node ids whose daemons accepted a copy of its image,
    /// primary (the rank's own node) first.
    pub holders: Vec<(Rank, Vec<u32>)>,
    /// Total image payload bytes replicated (sum over all copies).
    pub bytes: u64,
}

/// Ship every rank's local snapshot image into peer memory: the rank's
/// own daemon plus its `factor` ring neighbors each receive a copy over
/// OOB. A failed node is skipped, never
/// revived, and not listed among the holders.
///
/// `images` lists `(rank, node the rank ran on, local snapshot reference
/// directory)` — exactly what the daemons report back from a local
/// checkpoint. Returns where every image landed, for the global snapshot's
/// replica-location metadata.
pub fn replicate(
    runtime: &Runtime,
    job: JobId,
    interval: u64,
    images: &[(Rank, u32, std::path::PathBuf)],
    factor: u32,
) -> Result<ReplicationOutcome, CrError> {
    let nodes = runtime.topology().len() as u32;
    let ctl = Caller::new(runtime.fabric(), NodeId(0));
    let mut holders = Vec::with_capacity(images.len());
    let mut bytes = 0u64;

    for (rank, node, dir) in images {
        let image = ReplicaImage::from_dir(*rank, dir)?;
        let image_bytes = image.total_bytes();
        let put = DaemonMsg::ReplicaPut {
            job,
            interval,
            image,
        };
        let mut stored = Vec::new();
        for target in std::iter::once(*node).chain(ring_neighbors(*node, nodes, factor)) {
            let Ok(daemon) = daemon_addr(runtime, NodeId(target)) else {
                continue;
            };
            ctl.call(daemon, &put)?;
            bytes += image_bytes;
            stored.push(target);
        }
        runtime.tracer().record(
            "filem.replica.put",
            &format!("rank {rank} -> nodes {stored:?} interval {interval}"),
        );
        holders.push((*rank, stored));
    }
    Ok(ReplicationOutcome { holders, bytes })
}

/// Fetch one rank's image from the first surviving holder.
///
/// `holders` comes from the global snapshot's replica-location metadata,
/// primary first. Only running daemons are asked: a holder that is dead
/// or was never started has nothing to offer. Returns the image, or
/// `None` when every holder is gone or answers with a miss.
///
/// The image comes with the simulated price of its reply crossing from
/// the holder's node to the head node. That price is kept only for
/// `benchmark/`, and goes with ROADMAP item 12.
pub fn fetch_image(
    runtime: &Runtime,
    job: JobId,
    interval: u64,
    rank: Rank,
    holders: &[u32],
) -> Option<(ReplicaImage, SimTime)> {
    let ctl = Caller::new(runtime.fabric(), NodeId(0));
    let alive = runtime.daemons();
    let fetch = DaemonMsg::ReplicaFetch {
        job,
        interval,
        rank: rank.0,
    };
    for holder in holders {
        let Some(daemon) = alive.iter().find(|d| d.node().0 == *holder) else {
            continue;
        };
        // A daemon that died between listing and send is a miss.
        if let Ok(DaemonReply::ReplicaImageReply {
            node,
            image: Some(image),
        }) = ctl.call(daemon.endpoint(), &fetch)
        {
            runtime.tracer().record(
                "filem.replica.fetch",
                &format!("rank {rank} <- node {node} interval {interval}"),
            );
            // Just decoded, so unshared: this unwraps, it does not copy.
            let image = Arc::unwrap_or_clone(image);
            let price = runtime
                .topology()
                .cost(NodeId(node), NodeId(0), image.total_bytes() as usize);
            return Some((image, price));
        }
    }
    None
}

/// Ask every running daemon the same question; the answers of those that
/// gave one, node order.
fn ask_all(runtime: &Runtime, msg: &DaemonMsg) -> Vec<DaemonReply> {
    let ctl = Caller::new(runtime.fabric(), NodeId(0));
    runtime
        .daemons()
        .iter()
        .filter_map(|daemon| ctl.call(daemon.endpoint(), msg).ok())
        .collect()
}

/// Total of the [`DaemonReply::Removed`] counts among `replies`.
fn total_removed(replies: Vec<DaemonReply>) -> usize {
    replies
        .into_iter()
        .map(|reply| match reply {
            DaemonReply::Removed { removed, .. } => removed,
            _ => 0,
        })
        .sum()
}

/// Drop `(job, interval)` replica entries from every surviving daemon
/// (checkpoint expiry). Returns the total number of entries removed.
pub fn expire_replicas(runtime: &Runtime, job: JobId, interval: u64) -> usize {
    let removed = total_removed(ask_all(
        runtime,
        &DaemonMsg::ReplicaExpire { job, interval },
    ));
    if removed > 0 {
        runtime.tracer().record(
            "filem.replica.expire",
            &format!("{job} interval {interval}: {removed} entries"),
        );
    }
    removed
}

/// Push content-addressed chunks into the peer-memory chunk tier of each
/// `target` node's daemon (the dedup analogue of [`replicate`]). Every
/// live target receives every listed chunk; a failed node is skipped,
/// never revived. Returns the targets that took the chunks.
pub fn put_chunks(
    runtime: &Runtime,
    job: JobId,
    targets: &[u32],
    chunks: Vec<(ChunkId, Vec<u8>)>,
) -> Result<Vec<u32>, CrError> {
    if chunks.is_empty() || targets.is_empty() {
        return Ok(Vec::new());
    }
    let ctl = Caller::new(runtime.fabric(), NodeId(0));
    let count = chunks.len();
    let payload: u64 = chunks.iter().map(|(_, b)| b.len() as u64).sum();
    let put = DaemonMsg::ChunkPut { job, chunks };
    let mut stored = Vec::new();
    for target in targets {
        let Ok(daemon) = daemon_addr(runtime, NodeId(*target)) else {
            continue;
        };
        ctl.call(daemon, &put)?;
        stored.push(*target);
    }
    runtime.tracer().record(
        "store.chunk.put",
        &format!("{count} chunks ({payload} B) -> nodes {stored:?}"),
    );
    Ok(stored)
}

/// Fetch chunks by id from the peer-memory chunk tier, trying each
/// surviving `holder` in turn and accumulating partial hits. The returned
/// vector has one slot per id, `None` where no surviving holder had the
/// chunk — the mixed-tier restart path fills only those gaps from the
/// stable [`opal::store::ChunkStore`].
pub fn fetch_chunks_partial(
    runtime: &Runtime,
    job: JobId,
    ids: &[ChunkId],
    holders: &[u32],
) -> Vec<Option<Vec<u8>>> {
    if ids.is_empty() {
        return Vec::new();
    }
    let ctl = Caller::new(runtime.fabric(), NodeId(0));
    let alive = runtime.daemons();
    let mut found: Vec<Option<Vec<u8>>> = vec![None; ids.len()];
    for holder in holders {
        let missing: Vec<usize> = found
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_none())
            .map(|(i, _)| i)
            .collect();
        if missing.is_empty() {
            break;
        }
        let Some(daemon) = alive.iter().find(|d| d.node().0 == *holder) else {
            continue; // dead node: never respawn just to ask its memory
        };
        let want: Vec<ChunkId> = missing.iter().filter_map(|i| ids.get(*i).copied()).collect();
        let Ok(DaemonReply::ChunkData { node, chunks }) =
            ctl.call(daemon.endpoint(), &DaemonMsg::ChunkFetch { job, ids: want })
        else {
            continue;
        };
        let mut hits = 0usize;
        for (slot, chunk) in missing.iter().zip(chunks) {
            if let (Some(bytes), Some(dest)) = (chunk, found.get_mut(*slot)) {
                *dest = Some(bytes);
                hits += 1;
            }
        }
        if hits > 0 {
            runtime.tracer().record(
                "store.chunk.fetch",
                &format!("{hits} chunks <- node {node}"),
            );
        }
    }
    found
}

/// Drop the listed chunks of `job` from every surviving daemon's chunk
/// tier (the peer-memory half of a GC sweep). Returns chunks removed.
pub fn expire_chunks(runtime: &Runtime, job: JobId, ids: &[ChunkId]) -> usize {
    if ids.is_empty() {
        return 0;
    }
    total_removed(ask_all(
        runtime,
        &DaemonMsg::ChunkExpire {
            job,
            ids: ids.to_vec(),
        },
    ))
}

/// Per-node replica inventory for `job` across every surviving daemon:
/// `(node, [(interval, rank)])`, node order. Diagnostic / test surface.
pub fn replica_inventory(runtime: &Runtime, job: JobId) -> Vec<(u32, Vec<(u64, u32)>)> {
    ask_all(runtime, &DaemonMsg::ReplicaInventory { job })
        .into_iter()
        .filter_map(|reply| match reply {
            DaemonReply::ReplicaHolding { node, entries } => Some((node, entries)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "orte_replica_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn image_opens_in_memory_as_the_snapshot_it_captured() {
        let src = tmpdir("img_src");
        let mut local = LocalSnapshot::create(&src, Rank(2), "self", 3, "node01").unwrap();
        local.write_context(&codec::write_frame(&[0xCD; 4096])).unwrap();
        local.set_param("sections", "app");
        local.finish().unwrap();
        let dir = local.dir().to_path_buf();

        let image = ReplicaImage::from_dir(Rank(2), &dir).unwrap();
        assert_eq!(image.rank, 2);
        assert_eq!(image.files.len(), 2);
        let (opened, context) = image.open(&dir).unwrap();
        assert_eq!(
            (opened.rank(), opened.interval(), opened.param("sections")),
            (Rank(2), 3, Some("app"))
        );
        assert_eq!(context, &local.read_context().unwrap()[..]);

        // A flipped context byte fails the frame checksum, as on disk; a
        // missing metadata file is refused by name.
        let mut flipped = image.clone();
        let ctx = flipped.files.iter_mut().find(|(rel, _)| rel != LOCAL_META_FILE).unwrap();
        ctx.1[100] ^= 1;
        assert!(matches!(
            flipped.open(&dir),
            Err(CrError::BadSnapshot { detail }) if detail.contains("rank 2 interval 3: context")
                && detail.contains("checksum mismatch")
        ));
        let mut headless = image;
        headless.files.retain(|(rel, _)| rel != LOCAL_META_FILE);
        let err = headless.open(&dir).unwrap_err();
        assert!(err.to_string().contains("rank 2: holds no snapshot_meta.data"), "{err}");
    }

    #[test]
    fn store_put_get_expire() {
        let store = ReplicaStore::new();
        assert!(store.inventory(JobId(1)).is_empty());
        let img = |rank: u32| ReplicaImage {
            rank,
            files: vec![("ctx".into(), vec![rank as u8; 10].into())],
        };
        store.put(JobId(1), 0, img(0));
        store.put(JobId(1), 0, img(1));
        store.put(JobId(1), 1, img(0));
        store.put(JobId(2), 0, img(0));
        assert_eq!(store.get(JobId(1), 0, 1).as_deref(), Some(&img(1)));
        assert_eq!(store.get(JobId(1), 0, 9), None);
        assert_eq!(store.inventory(JobId(1)), vec![(0, 0), (0, 1), (1, 0)]);

        assert_eq!(store.expire_interval(JobId(1), 0), 2);
        assert_eq!(store.inventory(JobId(1)), vec![(1, 0)]);
        assert_eq!(store.inventory(JobId(2)), vec![(0, 0)], "other jobs' images are untouched");
    }

    #[test]
    fn put_replaces_same_key() {
        let store = ReplicaStore::new();
        let a = ReplicaImage { rank: 0, files: vec![("x".into(), vec![1].into())] };
        let b = ReplicaImage { rank: 0, files: vec![("x".into(), vec![2, 3].into())] };
        store.put(JobId(1), 0, a);
        store.put(JobId(1), 0, b.clone());
        assert_eq!(store.inventory(JobId(1)), vec![(0, 0)]);
        assert_eq!(store.get(JobId(1), 0, 0).as_deref(), Some(&b));
    }

    #[test]
    fn chunk_tier_put_get_expire() {
        let store = ReplicaStore::new();
        let a = ChunkId::of(b"chunk a");
        let b = ChunkId::of(b"chunk b");
        store.put_chunk(JobId(1), a, b"chunk a".to_vec());
        store.put_chunk(JobId(1), b, b"chunk b".to_vec());
        store.put_chunk(JobId(2), a, b"chunk a".to_vec());
        assert_eq!(store.get_chunk(JobId(1), &a), Some(b"chunk a".to_vec()));
        assert_eq!(store.get_chunk(JobId(3), &a), None);
        // Expire is per job and per id; double-expire counts zero.
        assert_eq!(store.expire_chunks(JobId(1), &[a]), 1);
        assert_eq!(store.expire_chunks(JobId(1), &[a]), 0);
        assert_eq!(store.get_chunk(JobId(1), &a), None);
        assert_eq!(store.get_chunk(JobId(1), &b), Some(b"chunk b".to_vec()));
        assert_eq!(store.get_chunk(JobId(2), &a), Some(b"chunk a".to_vec()));
    }

    /// A checkpoint must not bring a fenced node back: a failed ring
    /// target is skipped, not revived, and not listed as a holder.
    #[test]
    fn replicate_skips_a_failed_target_without_reviving_it() {
        let rt = crate::snapc::tests::runtime("replica_dead", 4);
        rt.ensure_daemon(NodeId(2));
        rt.kill_daemon(NodeId(2));
        let src = tmpdir("dead_src");
        fs::write(src.join("ctx"), vec![1u8; 128]).unwrap();

        let images = [(Rank(5), 1, src)];
        let outcome = replicate(&rt, JobId(1), 0, &images, 1).unwrap();
        assert_eq!(outcome.holders, vec![(Rank(5), vec![1])]);
        assert_eq!(outcome.bytes, 128);
        assert!(rt.node_failed(NodeId(2)));
        let running: Vec<u32> = rt.daemons().iter().map(|d| d.node().0).collect();
        assert_eq!(running, vec![1], "node 1 starts on first use, node 2 stays dead");
        let puts: Vec<String> = rt
            .tracer()
            .events()
            .into_iter()
            .filter(|e| e.phase == "filem.replica.put")
            .map(|e| e.detail)
            .collect();
        assert_eq!(puts, vec!["rank 5 -> nodes [1] interval 0".to_string()]);

        // The chunk tier obeys the same rule.
        let chunk = (ChunkId::of(b"c"), b"c".to_vec());
        let stored = put_chunks(&rt, JobId(1), &[1, 2], vec![chunk]).unwrap();
        assert_eq!(stored, vec![1]);
        assert!(rt.node_failed(NodeId(2)));
        rt.shutdown();
    }

    /// A fetch brings its bytes back in the reply, and is priced for
    /// them crossing from the holder to the head node.
    #[test]
    fn fetch_is_charged_for_the_bytes_it_brings_back() {
        let rt = crate::snapc::tests::runtime("replica_fetch_cost", 2);
        let src = tmpdir("fetch_src");
        fs::write(src.join("ctx"), vec![1u8; 256 * 1024]).unwrap();
        let job = JobId(1);
        // Held by node 1 only; the asker (the HNP) is on node 0.
        let placed = replicate(&rt, job, 0, &[(Rank(0), 1, src)], 0).unwrap();
        let (image, price) = fetch_image(&rt, job, 0, Rank(0), &placed.holders[0].1).unwrap();
        let bytes = image.total_bytes() as usize;
        assert!(bytes >= 256 * 1024);
        assert_eq!(price, rt.topology().cost(NodeId(1), NodeId(0), bytes));

        let chunk = vec![2u8; 64 * 1024];
        let id = ChunkId::of(&chunk);
        put_chunks(&rt, job, &[1], vec![(id, chunk.clone().into())]).unwrap();
        let found = fetch_chunks_partial(&rt, job, &[id], &[1]);
        assert_eq!(found, vec![Some(chunk.into())]);
        rt.shutdown();
    }

    #[test]
    fn ring_wraps_and_excludes_self() {
        assert_eq!(ring_neighbors(0, 4, 1), vec![1]);
        assert_eq!(ring_neighbors(3, 4, 2), vec![0, 1]);
        assert_eq!(ring_neighbors(1, 4, 3), vec![2, 3, 0]);
        // k >= nodes: stop before wrapping onto self.
        assert_eq!(ring_neighbors(1, 3, 7), vec![2, 0]);
        assert_eq!(ring_neighbors(0, 1, 2), Vec::<u32>::new());
        assert_eq!(ring_neighbors(0, 2, 0), Vec::<u32>::new());
    }
}
