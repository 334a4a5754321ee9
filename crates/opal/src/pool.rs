//! The shared parallel hash/copy pool of the checkpoint data path.
//!
//! Every byte a checkpoint moves is digested at least once — chunk
//! manifests at capture ([`crate::incr`]), digest verification at dedup
//! commit, and blob framing in the chunk store ([`crate::store`]). This
//! module makes that work scale with cores instead of running on one
//! thread, and bounds its allocations:
//!
//! * [`manifest_parallel`] / [`digest_all_parallel`] — bounded worker
//!   pools (`opal_hash_workers`, `thread::scope` + atomic work-claiming)
//!   that chunk and digest a rank's sections concurrently. Output is
//!   byte-identical to the sequential path — asserted by tests here and
//!   ratcheted by the `ckpt_datapath` bench.
//! * [`BufferPool`] — a bounded free list of reusable byte buffers
//!   replacing the per-insert frame buffers of the chunk store, so
//!   steady-state checkpointing allocates O(workers + pool cap) buffers,
//!   not O(chunks). [`PoolStats`] exposes the hit/miss counters.
//! * [`insert_all_parallel`] — fan a batch of content-addressed chunks
//!   into a [`crate::store::ChunkStore`] over the worker pool, each lane
//!   framing through a pooled scratch buffer.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use codec::chunk::{ChunkManifest, ChunkRecord, SectionManifest};
use mca::McaParams;
use parking_lot::Mutex;

use cr_core::CrError;

use crate::store::{ChunkId, ChunkStore};

/// Worker count of the parallel hash pool (`opal_hash_workers`).
pub fn hash_workers(params: &McaParams) -> usize {
    params
        .get_parsed_or("opal_hash_workers", 4usize)
        .unwrap_or(4)
        .max(1)
}

/// Capacity of the reusable buffer pool (`opal_buffer_pool_cap`).
pub fn buffer_pool_cap(params: &McaParams) -> usize {
    params
        .get_parsed_or("opal_buffer_pool_cap", 8usize)
        .unwrap_or(8)
        .max(1)
}

/// Hit/miss counters of a [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from the free list (no allocation).
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers currently parked on the free list.
    pub pooled: usize,
}

/// A bounded free list of reusable byte buffers.
///
/// `take` hands out a cleared buffer (reusing a parked one when
/// available); `put` parks it again, dropping it instead when the pool is
/// at capacity so the steady-state footprint is bounded by `cap`.
pub struct BufferPool {
    cap: usize,
    bufs: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// An empty pool that parks at most `cap` buffers.
    pub fn new(cap: usize) -> Self {
        BufferPool {
            cap: cap.max(1),
            bufs: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cleared buffer with at least `min_capacity` bytes reserved,
    /// reused from the free list when one is parked there.
    pub fn take(&self, min_capacity: usize) -> Vec<u8> {
        let reused = self.bufs.lock().pop();
        let mut buf = match reused {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        buf.clear();
        buf.reserve(min_capacity);
        buf
    }

    /// Park `buf` for reuse; dropped instead when the pool is full.
    pub fn put(&self, buf: Vec<u8>) {
        let mut bufs = self.bufs.lock();
        if bufs.len() < self.cap {
            bufs.push(buf);
        }
    }

    /// Current hit/miss/parked counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pooled: self.bufs.lock().len(),
        }
    }
}

/// Digest every slice of `chunks` over `workers` lanes, preserving order.
///
/// Results are exactly `chunks.iter().map(|c| codec::chunk_digest(c))`;
/// with one worker (or one chunk) the sequential path runs inline.
pub fn digest_all_parallel(chunks: &[&[u8]], workers: usize) -> Vec<u64> {
    if workers <= 1 || chunks.len() <= 1 {
        return chunks.iter().map(|c| codec::chunk_digest(c)).collect();
    }
    let lanes = workers.min(chunks.len());
    let slots: Vec<AtomicU64> = chunks.iter().map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(i) else { return };
                if let Some(slot) = slots.get(i) {
                    slot.store(codec::chunk_digest(chunk), Ordering::Relaxed);
                }
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner()).collect()
}

/// Build the chunk manifest of `sections` over `workers` hash lanes.
///
/// Byte-identical to `ChunkManifest::of_sections(sections, chunk_bytes)`:
/// the flattened `(section, chunk)` units are claimed atomically by the
/// lanes and digested concurrently, then reassembled in section/id order.
pub fn manifest_parallel(
    sections: &[(&str, &[u8])],
    chunk_bytes: usize,
    workers: usize,
) -> ChunkManifest {
    let step = chunk_bytes.max(1);
    let total_chunks: usize = sections.iter().map(|(_, b)| b.len().div_ceil(step)).sum();
    if workers <= 1 || total_chunks <= 1 {
        return ChunkManifest::of_sections(sections.iter().copied(), chunk_bytes);
    }
    // Flatten to one global unit index: unit u lives in the section whose
    // prefix range contains u, at chunk id (u - prefix start).
    let mut starts = Vec::with_capacity(sections.len());
    let mut acc = 0usize;
    for (_, bytes) in sections {
        starts.push(acc);
        acc += bytes.len().div_ceil(step);
    }
    let slots: Vec<AtomicU64> = (0..total_chunks).map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    let lanes = workers.min(total_chunks);
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            scope.spawn(|| loop {
                let u = next.fetch_add(1, Ordering::Relaxed);
                if u >= total_chunks {
                    return;
                }
                let sec = starts.partition_point(|&s| s <= u) - 1;
                let Some((_, bytes)) = sections.get(sec) else { return };
                let Some(&start) = starts.get(sec) else { return };
                let lo = (u - start) * step;
                let hi = (lo + step).min(bytes.len());
                let chunk = bytes.get(lo..hi).unwrap_or(&[]);
                if let Some(slot) = slots.get(u) {
                    slot.store(codec::chunk_digest(chunk), Ordering::Relaxed);
                }
            });
        }
    });
    let mut out_sections = Vec::with_capacity(sections.len());
    for (sec, (name, bytes)) in sections.iter().enumerate() {
        let start = starts.get(sec).copied().unwrap_or(0);
        let count = bytes.len().div_ceil(step);
        let chunks = (0..count)
            .map(|i| {
                let lo = i * step;
                let hi = (lo + step).min(bytes.len());
                ChunkRecord {
                    id: i as u32,
                    digest: slots
                        .get(start + i)
                        .map_or(0, |s| s.load(Ordering::Relaxed)),
                    len: (hi - lo) as u32,
                }
            })
            .collect();
        out_sections.push(SectionManifest {
            name: (*name).to_string(),
            total_len: bytes.len() as u64,
            chunks,
        });
    }
    ChunkManifest {
        chunk_bytes: chunk_bytes.max(1) as u32,
        sections: out_sections,
    }
}

/// Insert a batch of *distinct* content-addressed chunks into `store`
/// over `workers` lanes, each lane framing through a pooled scratch
/// buffer. Returns, per chunk, whether a new blob was written (`false` =
/// already present). The caller vouches that each `ChunkId` is the
/// digest of its bytes and that ids do not repeat within the batch (two
/// lanes writing one blob concurrently would race on the file).
pub fn insert_all_parallel(
    store: &ChunkStore,
    chunks: &[(ChunkId, &[u8])],
    workers: usize,
    pool: &BufferPool,
) -> Result<Vec<bool>, CrError> {
    if workers <= 1 || chunks.len() <= 1 {
        let mut scratch = pool.take(0);
        let mut fresh = Vec::with_capacity(chunks.len());
        for (id, bytes) in chunks {
            fresh.push(store.insert_precomputed(id, bytes, &mut scratch)?);
        }
        pool.put(scratch);
        return Ok(fresh);
    }
    let lanes = workers.min(chunks.len());
    let fresh: Vec<AtomicBool> = chunks.iter().map(|_| AtomicBool::new(false)).collect();
    let next = AtomicUsize::new(0);
    let lane_results: Vec<Result<(), CrError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = pool.take(0);
                    let result = loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((id, bytes)) = chunks.get(i) else {
                            break Ok(());
                        };
                        match store.insert_precomputed(id, bytes, &mut scratch) {
                            Ok(wrote) => {
                                if let Some(slot) = fresh.get(i) {
                                    slot.store(wrote, Ordering::Relaxed);
                                }
                            }
                            Err(e) => break Err(e),
                        }
                    };
                    pool.put(scratch);
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(CrError::protocol("hash pool worker panicked")))
            })
            .collect()
    });
    for lane in lane_results {
        lane?;
    }
    Ok(fresh.into_iter().map(|f| f.into_inner()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("opal_pool_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn arb_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn knob_defaults_match_registry() {
        let params = McaParams::new();
        assert_eq!(hash_workers(&params), 4);
        assert_eq!(buffer_pool_cap(&params), 8);
        params.set("opal_hash_workers", "0");
        assert_eq!(hash_workers(&params), 1, "clamped to one lane");
    }

    #[test]
    fn parallel_manifest_matches_sequential_exactly() {
        let a = arb_bytes(100_000, 1);
        let b = arb_bytes(777, 2);
        let c = Vec::new();
        let d = arb_bytes(4096, 3);
        let sections: Vec<(&str, &[u8])> =
            vec![("app", &a), ("pml", &b), ("empty", &c), ("coll", &d)];
        for chunk_bytes in [1usize, 100, 4096, 1 << 20] {
            let seq = ChunkManifest::of_sections(sections.iter().copied(), chunk_bytes);
            for workers in [1usize, 2, 4, 7] {
                let par = manifest_parallel(&sections, chunk_bytes, workers);
                assert_eq!(par, seq, "chunk_bytes={chunk_bytes} workers={workers}");
                assert_eq!(par.render(), seq.render());
            }
        }
    }

    #[test]
    fn digest_all_matches_sequential() {
        let blobs: Vec<Vec<u8>> = (0..37).map(|i| arb_bytes(10 + i * 53, i as u64)).collect();
        let slices: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        let seq: Vec<u64> = slices.iter().map(|c| codec::chunk_digest(c)).collect();
        for workers in [1, 3, 8] {
            assert_eq!(digest_all_parallel(&slices, workers), seq, "workers={workers}");
        }
    }

    #[test]
    fn buffer_pool_reuses_and_bounds() {
        let pool = BufferPool::new(2);
        let a = pool.take(64);
        let b = pool.take(64);
        let c = pool.take(64);
        assert_eq!(pool.stats().misses, 3, "cold pool allocates");
        pool.put(a);
        pool.put(b);
        pool.put(c); // over cap: dropped
        assert_eq!(pool.stats().pooled, 2);
        let d = pool.take(16);
        assert!(d.is_empty(), "reused buffers come back cleared");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
    }

    #[test]
    fn insert_all_parallel_matches_store_contents() {
        let store = ChunkStore::open(&tmp("insert")).unwrap();
        let blobs: Vec<Vec<u8>> = (0..24).map(|i| arb_bytes(200 + i, 40 + i as u64)).collect();
        let units: Vec<(ChunkId, &[u8])> = blobs
            .iter()
            .map(|b| (ChunkId::of(b), b.as_slice()))
            .collect();
        let pool = BufferPool::new(4);
        let fresh = insert_all_parallel(&store, &units, 4, &pool).unwrap();
        assert!(fresh.iter().all(|&f| f), "empty store: every insert writes");
        // Every blob is present, frame-valid, and digest-verified by get.
        for (id, bytes) in &units {
            assert_eq!(&store.get(id).unwrap(), bytes);
        }
        // Re-insert: all hits, nothing rewritten.
        let again = insert_all_parallel(&store, &units, 4, &pool).unwrap();
        assert!(again.iter().all(|&f| !f));
        assert_eq!(store.chunk_count().unwrap(), blobs.len());
        // Steady state allocated O(workers) scratch buffers, not O(chunks).
        assert!(
            pool.stats().misses <= 8,
            "scratch allocations must be bounded by lanes, got {:?}",
            pool.stats()
        );
    }
}
