//! The unified snapshot store: content-addressed dedup commit, fetch and
//! refcount GC over the two chunk tiers.
//!
//! With `filem_dedup_enabled=true` the SNAPC gather tail stops shipping
//! whole context files and instead commits through this module. Each
//! rank's local snapshot is its chunk manifest plus a pack of the distinct
//! content-addressed chunks ([`opal::store::ChunkId`]) that the interval's
//! base lacks ([`opal::crs`]). [`dedup_commit`] merges the packs, checks
//! each packed chunk against its id once, moves only chunks the stable
//! [`opal::store::ChunkStore`] has never seen, and records the per-rank
//! manifests in the global metadata, where they become the store's
//! liveness roots. No image is read back or re-digested whole. Identical
//! chunks across ranks of an SPMD job and across checkpoint intervals are
//! stored exactly once.
//!
//! [`SnapshotStore`] fronts both tiers behind one API:
//!
//! * the **stable tier** — an [`opal::store::ChunkStore`] living in
//!   `chunk_store/` inside the global snapshot reference directory, and
//! * the **replica tier** — the peer-memory chunk half of every daemon's
//!   [`crate::replica::ReplicaStore`], fed at commit and asked first at
//!   restart.
//!
//! # Lifecycle ordering (model-checked)
//!
//! Commit inserts blobs and takes references *before* the manifest is
//! recorded; retire drops the manifest record *first*, then decrements,
//! then sweeps count-zero blobs in caller-sized batches.
//! A crash between any two steps leaks at worst — a later sweep reclaims —
//! and never leaves a live manifest naming a swept chunk. `cr-model gc`
//! checks exactly this invariant under every interleaving (including a
//! node death between decrement and sweep), and `cr-model gc --mutate
//! sweep_before_decrement` shows the minimal violation when the ordering
//! is broken.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use netsim::SimTime;

use cr_core::request::CkptStats;
use cr_core::snapshot::{GlobalSnapshot, IntervalRecord, LocalSnapshot};
use cr_core::{CrError, JobId, Rank};
use opal::image::ProcessImage;
use opal::store::{ChunkId, ChunkStore};

use crate::job::JobHandle;
use crate::oob::RankCkpt;
use crate::replica;
use crate::runtime::Runtime;

/// Subdirectory of the global snapshot reference holding the stable chunk
/// tier.
pub const CHUNK_STORE_DIR: &str = "chunk_store";

/// Which chunk tier a fetch may touch (mirrors `ompi`'s restart source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkSource {
    /// Peer memory first, stable storage for whatever is missing.
    Auto,
    /// Peer memory only; error when a chunk has no surviving holder.
    ReplicaOnly,
    /// Stable storage only (disaster-recovery path).
    StableOnly,
}

/// Bookkeeping of one [`SnapshotStore::fetch_images`] batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct FetchStats {
    /// Distinct chunks served from peer memory.
    pub replica_chunks: usize,
    /// Distinct chunks served from the stable tier.
    pub stable_chunks: usize,
    /// Images that took at least one chunk from peer memory.
    pub replica_images: usize,
    /// Logical bytes assembled into the images.
    pub bytes: u64,
    /// Simulated wire time of the peer-memory transfers.
    pub sim_cost: SimTime,
}

/// The occurrence list of a manifest: one [`ChunkId`] per chunk record, in
/// section order. References are counted per occurrence, so this is also
/// exactly what commit increfs and retire decrefs.
pub fn manifest_ids(manifest: &codec::ChunkManifest) -> Vec<ChunkId> {
    manifest
        .sections
        .iter()
        .flat_map(|sec| sec.chunks.iter())
        .map(ChunkId::from)
        .collect()
}

/// Both chunk tiers behind one handle: the stable [`ChunkStore`] of a
/// global snapshot reference plus the peer-memory tier reachable through
/// the runtime's surviving daemons.
pub struct SnapshotStore<'rt> {
    runtime: &'rt Runtime,
    job: JobId,
    stable: ChunkStore,
}

impl<'rt> SnapshotStore<'rt> {
    /// Open the store of the global snapshot reference at `global_dir`
    /// (creating the stable tier directory on first use).
    pub fn open(
        runtime: &'rt Runtime,
        job: JobId,
        global_dir: &Path,
    ) -> Result<SnapshotStore<'rt>, CrError> {
        Ok(SnapshotStore {
            runtime,
            job,
            stable: ChunkStore::open(&global_dir.join(CHUNK_STORE_DIR))?,
        })
    }

    /// The stable (disk) tier.
    pub fn stable(&self) -> &ChunkStore {
        &self.stable
    }

    /// Assemble one rank's full image from its chunk manifest: a
    /// [`fetch_images`](Self::fetch_images) batch of one, on one lane.
    pub fn fetch_image(
        &self,
        manifest: &codec::ChunkManifest,
        source: ChunkSource,
        verify: bool,
    ) -> Result<(ProcessImage, FetchStats), CrError> {
        let (images, stats) =
            self.fetch_images(std::slice::from_ref(manifest), source, verify, 1)?;
        let image = images
            .into_iter()
            .next()
            .ok_or_else(|| CrError::protocol("a fetch batch of one manifest built no image"))?;
        Ok((image, stats))
    }

    /// Rebuild the image of every manifest in `manifests`, in order, out
    /// of one fetch batch: the distinct chunk ids of all of them are
    /// fetched once — one `ChunkFetch` per surviving peer-memory holder,
    /// then one stable-tier read per chunk peer memory could not serve —
    /// and each is digest-verified once, over `workers` pool lanes. Then
    /// every image is assembled ([`ProcessImage::assemble`]) on the
    /// calling thread, and one `store.restart.fetch` event closes the
    /// batch. A chunk shared by several manifests crosses the wire, the
    /// disk and the hash once.
    ///
    /// Assembly stays off the lanes: it is a copy, assembling on the lanes
    /// bought no recovery time, and it slowed the next job's messaging
    /// (EXPERIMENTS.md A16).
    ///
    /// Peer-memory bytes are digest-verified when `verify` is set (the
    /// stable tier always verifies on read); a corrupt replica chunk falls
    /// back to stable under [`ChunkSource::Auto`] and fails loudly under
    /// [`ChunkSource::ReplicaOnly`].
    pub fn fetch_images(
        &self,
        manifests: &[codec::ChunkManifest],
        source: ChunkSource,
        verify: bool,
        workers: usize,
    ) -> Result<(Vec<ProcessImage>, FetchStats), CrError> {
        let mut ids: Vec<ChunkId> = manifests.iter().flat_map(manifest_ids).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut stats = FetchStats::default();

        let mut chunks: Vec<Option<Vec<u8>>> = vec![None; ids.len()];
        if source != ChunkSource::StableOnly {
            let holders: Vec<u32> = self.runtime.daemons().iter().map(|d| d.node().0).collect();
            let (found, cost) =
                replica::fetch_chunks_partial(self.runtime, self.job, &ids, &holders);
            stats.sim_cost += cost;
            let held: Vec<(&ChunkId, &Option<Vec<u8>>)> = ids.iter().zip(&found).collect();
            let intact = opal::pool::map_claimed(&held, workers, |(id, chunk), _: &mut ()| {
                Ok(chunk
                    .as_ref()
                    .is_some_and(|bytes| !verify || ChunkId::of(bytes) == **id))
            })?;
            for ((slot, (id, chunk)), intact) in
                chunks.iter_mut().zip(ids.iter().zip(found)).zip(intact)
            {
                match chunk {
                    Some(bytes) if intact => {
                        *slot = Some(bytes);
                        stats.replica_chunks += 1;
                    }
                    Some(_) if source == ChunkSource::ReplicaOnly => {
                        return Err(CrError::BadSnapshot {
                            detail: format!("replica chunk {id} failed digest verification"),
                        });
                    }
                    // No holder, or a corrupt copy in peer memory: the
                    // stable tier serves it.
                    _ => {}
                }
            }
            if stats.replica_chunks > 0 {
                let in_memory = |id: &ChunkId| {
                    ids.binary_search(id)
                        .ok()
                        .and_then(|at| chunks.get(at))
                        .is_some_and(Option::is_some)
                };
                stats.replica_images = manifests
                    .iter()
                    .filter(|m| manifest_ids(m).iter().any(in_memory))
                    .count();
            }
        }

        if source != ChunkSource::ReplicaOnly {
            let misses: Vec<ChunkId> = ids
                .iter()
                .zip(&chunks)
                .filter(|(_, chunk)| chunk.is_none())
                .map(|(id, _)| *id)
                .collect();
            let stable = &self.stable;
            let mut read =
                opal::pool::map_claimed(&misses, workers, |id, _: &mut ()| stable.get(id))?
                    .into_iter();
            stats.stable_chunks = misses.len();
            for slot in chunks.iter_mut().filter(|chunk| chunk.is_none()) {
                *slot = read.next();
            }
        }

        let chunks: Vec<Vec<u8>> = ids
            .iter()
            .zip(chunks)
            .map(|(id, chunk)| {
                chunk.ok_or_else(|| CrError::BadSnapshot {
                    detail: format!(
                        "chunk {id} has no surviving peer-memory holder \
                         (restart source forbids the stable tier)"
                    ),
                })
            })
            .collect::<Result<_, _>>()?;
        let lookup = |id: &ChunkId| {
            ids.binary_search(id)
                .ok()
                .and_then(|at| chunks.get(at))
                .map(|c| c.as_slice())
        };
        let images = manifests
            .iter()
            .map(|manifest| ProcessImage::assemble(manifest, lookup))
            .collect::<Result<Vec<_>, CrError>>()?;
        stats.bytes = manifests
            .iter()
            .map(codec::ChunkManifest::total_bytes)
            .sum();
        self.runtime.tracer().record(
            "store.restart.fetch",
            &format!(
                "{} images, {} distinct chunks ({} B assembled): {} from peer memory, {} from stable",
                manifests.len(),
                ids.len(),
                stats.bytes,
                stats.replica_chunks,
                stats.stable_chunks
            ),
        );
        Ok((images, stats))
    }
}

/// One distinct chunk of an interval's merged packs.
struct Packed {
    id: ChunkId,
    bytes: Vec<u8>,
    /// The first rank that packed it, and that rank's node.
    rank: u32,
    node: u32,
}

/// The content-addressed commit tail of a distributed checkpoint
/// (`filem_dedup_enabled=true`), one batch per interval: merge every
/// rank's pack by chunk id, digest-verify each packed chunk once, check
/// that every manifest chunk is packed or stored already, move the
/// never-before-seen chunks into the stable tier (and push them to their
/// source node plus its `filem_replica_factor` ring neighbors' peer
/// memory), and take one reference per manifest occurrence *before* the
/// one commit call that records `record` — the rest of the interval's
/// commit record — with the manifests added. A manifest chunk that is
/// neither packed nor stored fails the interval before anything is
/// written.
///
/// Returns stats whose `dedup_ratio` is logical image bytes over bytes
/// actually written — the cross-rank/cross-interval savings the bench
/// ratchets.
pub fn dedup_commit(
    job: &JobHandle,
    interval: u64,
    results: &[(u32, RankCkpt)],
    mut record: IntervalRecord,
    tag: &str,
) -> Result<CkptStats, CrError> {
    let runtime = job.runtime();
    let tracer = runtime.tracer();
    let params = job.params();
    let job_id = job.job();
    let nnodes = runtime.topology().len() as u32;
    let factor = params
        .get_parsed_or("filem_replica_factor", 1u32)
        .unwrap_or(1);
    let workers = opal::pool::hash_workers(params);
    let store = SnapshotStore::open(runtime, job_id, &job.global_snapshot_path())?;

    // Every rank's manifest and pack, read (the frame CRC is checked) and
    // decoded over the pool, then merged in rank order by chunk id: the
    // first rank to pack a chunk is its source.
    let read = opal::pool::map_claimed(results, workers, |(node, ckpt), _: &mut ()| {
        let local = LocalSnapshot::open(&ckpt.dir)?;
        let rendered = local
            .param(opal::crs::PARAM_MANIFEST)
            .ok_or_else(|| CrError::BadSnapshot {
                detail: format!(
                    "rank {} wrote no chunk manifest; the dedup store needs \
                     filem_dedup_enabled to reach the capture path too",
                    ckpt.rank
                ),
            })?
            .to_string();
        let manifest = codec::ChunkManifest::parse(&rendered).map_err(CrError::Codec)?;
        let pack = ProcessImage::from_bytes(&local.read_context()?)?;
        Ok((*node, ckpt.rank, rendered, manifest, pack))
    })?;
    let mut manifests: Vec<(u32, codec::ChunkManifest)> = Vec::with_capacity(read.len());
    let mut packed: Vec<Packed> = Vec::new();
    let mut covered: HashSet<ChunkId> = HashSet::new();
    let mut logical = 0u64;
    for (node, rank, rendered, manifest, pack) in read {
        logical += manifest.total_bytes();
        for (name, bytes) in pack.into_sections() {
            let id = ChunkId::parse(&name).ok_or_else(|| CrError::BadSnapshot {
                detail: format!("rank {rank} packed a section {name:?} that is not a chunk id"),
            })?;
            if covered.insert(id) {
                packed.push(Packed {
                    id,
                    bytes,
                    rank,
                    node,
                });
            }
        }
        manifests.push((rank, manifest));
        record.chunk_manifests.push((Rank(rank), rendered));
    }

    // Every byte that enters the store is checked against its id, once,
    // in one pass over the hash pool.
    let verified = packed.len();
    let slices: Vec<&[u8]> = packed.iter().map(|p| p.bytes.as_slice()).collect();
    let digests = opal::pool::digest_all_parallel(&slices, workers);
    for (chunk, digest) in packed.iter().zip(digests) {
        if digest != chunk.id.digest || chunk.bytes.len() != chunk.id.len as usize {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "rank {} packed chunk {}, whose {} bytes hash to {digest:016x}",
                    chunk.rank,
                    chunk.id,
                    chunk.bytes.len()
                ),
            });
        }
    }

    // What a pack leaves out, its base put in the store already; a chunk
    // in neither fails the interval before anything is written.
    let mut all_ids: Vec<ChunkId> = Vec::new();
    for (rank, manifest) in &manifests {
        for id in manifest_ids(manifest) {
            if covered.insert(id) && !store.stable.contains(&id) {
                return Err(CrError::BadSnapshot {
                    detail: format!(
                        "rank {rank}: manifest chunk {id} is neither in its pack nor in \
                         the chunk store"
                    ),
                });
            }
            all_ids.push(id);
        }
    }

    let units: Vec<(ChunkId, &[u8])> = packed.iter().map(|p| (p.id, p.bytes.as_slice())).collect();
    let fresh_flags = opal::pool::insert_all_parallel(&store.stable, &units, workers)?;

    // Push the fresh chunks into peer memory on their source node plus its
    // ring neighbors, one put per node, so a dedup restart can come from
    // surviving memory exactly like a replica restart.
    let mut fresh_by_node: BTreeMap<u32, Vec<(ChunkId, Vec<u8>)>> = BTreeMap::new();
    let mut moved = 0u64;
    let mut fresh = 0u64;
    for (chunk, is_fresh) in packed.into_iter().zip(fresh_flags) {
        if is_fresh {
            moved += chunk.bytes.len() as u64;
            fresh += 1;
            fresh_by_node
                .entry(chunk.node)
                .or_default()
                .push((chunk.id, chunk.bytes));
        }
    }
    let hits = all_ids.len() as u64 - fresh;
    let mut sim_cost = SimTime::ZERO;
    for (node, chunks) in fresh_by_node {
        let mut targets = vec![node];
        targets.extend(replica::ring_neighbors(node, nnodes, factor));
        sim_cost += replica::put_chunks(runtime, job_id, &targets, chunks)?.0;
    }

    tracer.record(
        "opal.hash.pool",
        &format!(
            "interval {interval}: {workers} workers verified {verified} packed chunks \
             ({logical} logical B){tag}"
        ),
    );

    if hits > 0 {
        tracer.record(
            "store.chunk.hit",
            &format!("interval {interval}: {hits} manifest chunks already stored{tag}"),
        );
    }

    // References first, manifests second: the store can never sweep a
    // chunk a recorded manifest names (the `gc` model's invariant).
    store.stable.incref_all(&all_ids)?;
    let commit = {
        let mut global = job.global_snapshot()?;
        global.commit_interval(interval, &record)?;
        global.commit_state(interval)
    };
    let dedup_ratio = logical as f64 / moved.max(1) as f64;
    tracer.record(
        "store.commit",
        &format!(
            "interval {interval}: {logical} logical B, {moved} fresh B, \
             {hits} hits, ratio {dedup_ratio:.2}{tag}"
        ),
    );
    Ok(CkptStats {
        bytes_moved: moved,
        sim_ns: sim_cost.as_nanos(),
        commit,
        dedup_ratio,
    })
}

/// Retire a dedup interval: drop its manifest records from the global
/// metadata *first*, then release one reference per manifest occurrence,
/// then sweep count-zero blobs in `gc_batch`-sized batches — expiring each
/// swept batch from every surviving daemon's peer-memory tier as well.
/// Returns the ids swept from the stable tier.
///
/// Shared chunks survive as long as any other interval's manifest still
/// references them, so any subset of dedup intervals can retire in any
/// order.
pub fn retire_dedup_interval(
    runtime: &Runtime,
    job: JobId,
    global: &mut GlobalSnapshot,
    interval: u64,
    gc_batch: usize,
) -> Result<Vec<ChunkId>, CrError> {
    let mut ids: Vec<ChunkId> = Vec::new();
    for (_, rendered) in global.chunk_manifests(interval) {
        let manifest = codec::ChunkManifest::parse(rendered).map_err(CrError::Codec)?;
        ids.extend(manifest_ids(&manifest));
    }
    // Liveness root gone first; a crash after this leaks references (a
    // later sweep reclaims the orphaned blobs), it never dangles.
    global.retire_interval(interval)?;
    let store = ChunkStore::open(&global.dir().join(CHUNK_STORE_DIR))?;
    store.decref_all(&ids)?;
    let batch = gc_batch.max(1);
    let mut swept = Vec::new();
    loop {
        let removed = store.sweep(batch)?;
        if removed.is_empty() {
            break;
        }
        replica::expire_chunks(runtime, job, &removed);
        runtime.tracer().record(
            "store.gc.sweep",
            &format!(
                "interval {interval}: swept {} chunks ({} B)",
                removed.len(),
                removed.iter().map(|id| u64::from(id.len)).sum::<u64>()
            ),
        );
        swept.extend(removed);
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_ids_lists_every_occurrence_in_order() {
        let a = vec![7u8; 100];
        let sections: Vec<(&str, &[u8])> = vec![("app", &a), ("opal", &a)];
        let manifest = codec::ChunkManifest::of_sections(sections.into_iter(), 64);
        let ids = manifest_ids(&manifest);
        // 100 bytes at 64-byte chunks = 2 chunks per section, twice.
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[1], ids[3]);
        assert_eq!(u64::from(ids[0].len), 64);
        assert_eq!(u64::from(ids[1].len), 36);
    }
}
