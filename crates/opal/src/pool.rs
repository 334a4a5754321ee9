//! The shared parallel hash/copy pool of the checkpoint data path.
//!
//! Every byte a checkpoint moves is digested at least once — chunk
//! manifests at capture ([`crate::incr`]), digest verification at dedup
//! commit, and blob framing in the chunk store ([`crate::store`]). This
//! module makes that work scale with cores instead of running on one
//! thread, and bounds its allocations:
//!
//! * [`manifest_parallel`] / [`digest_all_parallel`] — a bounded worker
//!   pool (`opal_hash_workers`, `thread::scope` + atomic work-claiming)
//!   that chunks and digests a rank's sections concurrently. Output is
//!   byte-identical to the sequential path — asserted by tests here and
//!   ratcheted by the `ckpt_datapath` bench.
//! * [`insert_all_parallel`] — fan a batch of content-addressed chunks
//!   into a [`crate::store::ChunkStore`] over the same pool, each lane
//!   framing through one scratch buffer it owns, so a commit allocates
//!   O(workers) frame buffers, not O(chunks).

use std::sync::atomic::{AtomicUsize, Ordering};

use codec::chunk::{ChunkManifest, ChunkRecord, SectionManifest};
use mca::McaParams;

use cr_core::CrError;

use crate::store::{ChunkId, ChunkStore};

/// Worker count of the parallel hash pool (`opal_hash_workers`).
pub fn hash_workers(params: &McaParams) -> usize {
    params
        .get_parsed_or("opal_hash_workers", 4usize)
        .unwrap_or(4)
        .max(1)
}

/// Map `f` over `items` on up to `workers` lanes, preserving order. Each
/// lane owns one `S::default()` scratch value for its whole run and claims
/// the next unprocessed index atomically; a lane stops at its first error.
/// With one worker (or one item) the sequential path runs inline.
fn map_claimed<T: Sync, R: Send, S: Default>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T, &mut S) -> Result<R, CrError> + Sync,
) -> Result<Vec<R>, CrError> {
    let next = AtomicUsize::new(0);
    let lane = || {
        let mut scratch = S::default();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return Ok(done);
            };
            done.push((i, f(item, &mut scratch)?));
        }
    };
    let lanes = workers.min(items.len()).max(1);
    let mut claimed: Vec<(usize, R)> = if lanes == 1 {
        lane()?
    } else {
        let joined: Vec<Result<Vec<(usize, R)>, CrError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes).map(|_| scope.spawn(lane)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(CrError::protocol("hash pool worker panicked")))
                })
                .collect()
        });
        let mut all = Vec::with_capacity(items.len());
        for done in joined {
            all.extend(done?);
        }
        all
    };
    claimed.sort_unstable_by_key(|(i, _)| *i);
    Ok(claimed.into_iter().map(|(_, r)| r).collect())
}

/// Digest every slice of `chunks` over `workers` lanes, preserving order.
///
/// Results are exactly `chunks.iter().map(|c| codec::chunk_digest(c))` —
/// which is also what runs should a lane die.
pub fn digest_all_parallel(chunks: &[&[u8]], workers: usize) -> Vec<u64> {
    map_claimed(chunks, workers, |chunk, _: &mut ()| {
        Ok(codec::chunk_digest(chunk))
    })
    .unwrap_or_else(|_| chunks.iter().map(|c| codec::chunk_digest(c)).collect())
}

/// Build the chunk manifest of `sections` over `workers` hash lanes.
///
/// Byte-identical to `ChunkManifest::of_sections(sections, chunk_bytes)`:
/// list the chunk slices in section order, digest them all through
/// [`digest_all_parallel`], regroup the digests by section.
pub fn manifest_parallel(
    sections: &[(&str, &[u8])],
    chunk_bytes: usize,
    workers: usize,
) -> ChunkManifest {
    let step = chunk_bytes.max(1);
    let slices: Vec<&[u8]> = sections
        .iter()
        .flat_map(|(_, bytes)| bytes.chunks(step))
        .collect();
    let mut digests = digest_all_parallel(&slices, workers).into_iter();
    let sections = sections
        .iter()
        .map(|(name, bytes)| SectionManifest {
            name: (*name).to_string(),
            total_len: bytes.len() as u64,
            chunks: bytes
                .chunks(step)
                .zip(&mut digests)
                .enumerate()
                .map(|(id, (chunk, digest))| ChunkRecord {
                    id: id as u32,
                    digest,
                    len: chunk.len() as u32,
                })
                .collect(),
        })
        .collect();
    ChunkManifest {
        chunk_bytes: step as u32,
        sections,
    }
}

/// Insert a batch of *distinct* content-addressed chunks into `store`
/// over `workers` lanes, each lane framing through a scratch buffer of its
/// own. Returns, per chunk, whether a new blob was written (`false` =
/// already present). The caller vouches that each `ChunkId` is the
/// digest of its bytes and that ids do not repeat within the batch (two
/// lanes writing one blob concurrently would race on the file).
pub fn insert_all_parallel(
    store: &ChunkStore,
    chunks: &[(ChunkId, &[u8])],
    workers: usize,
) -> Result<Vec<bool>, CrError> {
    map_claimed(chunks, workers, |(id, bytes), scratch: &mut Vec<u8>| {
        store.insert_precomputed(id, bytes, scratch)
    })
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
    fn insert_all_parallel_matches_store_contents() {
        let store = ChunkStore::open(&tmp("insert")).unwrap();
        let blobs: Vec<Vec<u8>> = (0..24).map(|i| arb_bytes(200 + i, 40 + i as u64)).collect();
        let units: Vec<(ChunkId, &[u8])> = blobs
            .iter()
            .map(|b| (ChunkId::of(b), b.as_slice()))
            .collect();
        let fresh = insert_all_parallel(&store, &units, 4).unwrap();
        assert!(fresh.iter().all(|&f| f), "empty store: every insert writes");
        // Every blob is present, frame-valid, and digest-verified by get.
        for (id, bytes) in &units {
            assert_eq!(&store.get(id).unwrap(), bytes);
        }
        // Re-insert: all hits, nothing rewritten.
        let again = insert_all_parallel(&store, &units, 4).unwrap();
        assert!(again.iter().all(|&f| !f));
        assert_eq!(store.chunk_count().unwrap(), blobs.len());
    }
}
