//! The unified snapshot store: content-addressed dedup commit, fetch and
//! refcount GC over the two chunk tiers.
//!
//! With `filem_dedup_enabled=true` the SNAPC gather tail stops shipping
//! whole context files and instead commits through this module: each
//! rank's manifested image is sliced into content-addressed chunks
//! ([`opal::store::ChunkId`]), only chunks the stable
//! [`opal::store::ChunkStore`] has never seen move off the compute nodes,
//! and the per-rank manifests recorded in the global metadata become the
//! store's liveness roots. Identical chunks across ranks of an SPMD job
//! and across checkpoint intervals are stored exactly once.
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

/// Bookkeeping of one [`SnapshotStore::fetch_image`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct FetchStats {
    /// Distinct chunks served from peer memory.
    pub replica_chunks: usize,
    /// Distinct chunks served from the stable tier.
    pub stable_chunks: usize,
    /// Logical bytes assembled into the image.
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
        .map(|rec| ChunkId {
            digest: rec.digest,
            len: rec.len,
        })
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

    /// Assemble one rank's full image from its chunk manifest, fetching
    /// each distinct chunk from the tiers `source` allows. Peer-memory
    /// bytes are digest-verified when `verify` is set (the stable tier
    /// always verifies on read); a corrupt replica chunk falls back to
    /// stable under [`ChunkSource::Auto`] and fails loudly under
    /// [`ChunkSource::ReplicaOnly`].
    pub fn fetch_image(
        &self,
        manifest: &codec::ChunkManifest,
        source: ChunkSource,
        verify: bool,
    ) -> Result<(ProcessImage, FetchStats), CrError> {
        let occurrences = manifest_ids(manifest);
        let mut unique: Vec<ChunkId> = occurrences.clone();
        unique.sort();
        unique.dedup();

        let mut bytes_of: std::collections::BTreeMap<ChunkId, Vec<u8>> =
            std::collections::BTreeMap::new();
        let mut stats = FetchStats::default();

        if source != ChunkSource::StableOnly {
            let holders: Vec<u32> = self.runtime.daemons().iter().map(|d| d.node().0).collect();
            let (found, cost) =
                replica::fetch_chunks_partial(self.runtime, self.job, &unique, &holders);
            stats.sim_cost += cost;
            for (id, chunk) in unique.iter().zip(found) {
                let Some(chunk) = chunk else { continue };
                if verify && ChunkId::of(&chunk) != *id {
                    if source == ChunkSource::ReplicaOnly {
                        return Err(CrError::BadSnapshot {
                            detail: format!(
                                "replica chunk {id} failed digest verification"
                            ),
                        });
                    }
                    continue; // corrupt copy in peer memory: refetch from disk
                }
                bytes_of.insert(*id, chunk.into());
                stats.replica_chunks += 1;
            }
        }

        if source != ChunkSource::ReplicaOnly {
            for id in &unique {
                if bytes_of.contains_key(id) {
                    continue;
                }
                bytes_of.insert(*id, self.stable.get(id)?);
                stats.stable_chunks += 1;
            }
        }

        if let Some(missing) = unique.iter().find(|id| !bytes_of.contains_key(id)) {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "chunk {missing} has no surviving peer-memory holder \
                     (restart source forbids the stable tier)"
                ),
            });
        }

        let mut image = ProcessImage::new();
        for sec in &manifest.sections {
            let mut assembled = Vec::with_capacity(sec.total_len as usize);
            for rec in &sec.chunks {
                let id = ChunkId {
                    digest: rec.digest,
                    len: rec.len,
                };
                if let Some(chunk) = bytes_of.get(&id) {
                    assembled.extend_from_slice(chunk);
                }
            }
            if assembled.len() as u64 != sec.total_len {
                return Err(CrError::BadSnapshot {
                    detail: format!(
                        "section {} reassembled to {} bytes, manifest says {}",
                        sec.name,
                        assembled.len(),
                        sec.total_len
                    ),
                });
            }
            stats.bytes += sec.total_len;
            image.insert(sec.name.clone(), assembled);
        }
        self.runtime.tracer().record(
            "store.restart.fetch",
            &format!(
                "{} chunks ({} B): {} from peer memory, {} from stable",
                unique.len(),
                stats.bytes,
                stats.replica_chunks,
                stats.stable_chunks
            ),
        );
        Ok((image, stats))
    }
}

/// The content-addressed commit tail of a distributed checkpoint
/// (`filem_dedup_enabled=true`): slice every rank's manifested image into
/// chunks, move only never-before-seen chunks into the stable tier (and
/// push them to the rank's node plus its `filem_replica_factor` ring
/// neighbors' peer memory), take one reference per manifest occurrence
/// *before* the one commit call that records `record` — the rest of the
/// interval's commit record — with the manifests added.
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

    let store = SnapshotStore::open(runtime, job_id, &job.global_snapshot_path())?;
    let mut all_ids: Vec<ChunkId> = Vec::new();
    let mut logical = 0u64;
    let mut moved = 0u64;
    let mut hits = 0u64;
    let mut sim_cost = SimTime::ZERO;

    // Digest verification and blob writes run over the bounded OPAL hash
    // pool; each insert lane frames through one scratch buffer of its own
    // instead of allocating per chunk.
    let workers = opal::pool::hash_workers(params);
    let mut verified_chunks = 0u64;

    for (node, ckpt) in results {
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
        let image = opal::crs::read_full_image(&local)?;
        logical += manifest.total_bytes();

        let chunk_bytes = manifest.chunk_bytes as usize;
        // Collect every manifest occurrence with its backing slice, then
        // verify all digests in one parallel pass over the hash pool.
        let mut occs: Vec<(ChunkId, &[u8], &str, u32)> = Vec::new();
        for sec in &manifest.sections {
            let section = image.require_section(&sec.name)?;
            for rec in &sec.chunks {
                let id = ChunkId {
                    digest: rec.digest,
                    len: rec.len,
                };
                all_ids.push(id);
                let start = rec.id as usize * chunk_bytes;
                let end = start + rec.len as usize;
                let slice = section.get(start..end).ok_or_else(|| CrError::BadSnapshot {
                    detail: format!(
                        "rank {} section {}: manifest chunk {} spans {start}..{end} \
                         but the section holds {} bytes",
                        ckpt.rank,
                        sec.name,
                        rec.id,
                        section.len()
                    ),
                })?;
                occs.push((id, slice, sec.name.as_str(), rec.id));
            }
        }
        let slices: Vec<&[u8]> = occs.iter().map(|(_, s, _, _)| *s).collect();
        let digests = opal::pool::digest_all_parallel(&slices, workers);
        for ((id, slice, sec_name, rec_id), digest) in occs.iter().zip(&digests) {
            let actual = ChunkId {
                digest: *digest,
                len: slice.len() as u32,
            };
            if actual != *id {
                return Err(CrError::BadSnapshot {
                    detail: format!(
                        "rank {} section {} chunk {}: manifest says {id}, \
                         bytes hash to {actual}",
                        ckpt.rank, sec_name, rec_id
                    ),
                });
            }
        }
        verified_chunks += occs.len() as u64;

        // Write never-before-seen blobs in parallel. Duplicate ids within
        // the batch are collapsed first — the parallel inserter requires
        // unique ids — which preserves the serial loop's accounting exactly:
        // one fresh write per new id, every other occurrence a hit.
        let mut unique: Vec<(ChunkId, &[u8])> = Vec::new();
        let mut seen: std::collections::HashSet<ChunkId> = std::collections::HashSet::new();
        for (id, slice, _, _) in &occs {
            if seen.insert(*id) {
                unique.push((*id, slice));
            }
        }
        let fresh_flags = opal::pool::insert_all_parallel(&store.stable, &unique, workers)?;
        let mut fresh: Vec<(ChunkId, codec::ByteBuf)> = Vec::new();
        for ((id, slice), is_fresh) in unique.iter().zip(&fresh_flags) {
            if *is_fresh {
                moved += slice.len() as u64;
                fresh.push((*id, slice.to_vec().into()));
            }
        }
        hits += occs.len() as u64 - fresh.len() as u64;

        // Push this rank's fresh chunks into peer memory on its own node
        // plus its ring neighbors, so a dedup restart can come from
        // surviving memory exactly like a replica restart.
        let mut targets = vec![*node];
        targets.extend(replica::ring_neighbors(*node, nnodes, factor));
        let (cost, _) = replica::put_chunks(runtime, job_id, &targets, fresh)?;
        sim_cost += cost;
        record.chunk_manifests.push((Rank(ckpt.rank), rendered));
    }

    tracer.record(
        "opal.hash.pool",
        &format!(
            "interval {interval}: {workers} workers verified {verified_chunks} chunks \
             ({logical} B){tag}"
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
