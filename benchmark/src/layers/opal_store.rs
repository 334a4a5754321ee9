//! `opal::store::ChunkStore`: the stable tier of the dedup path.

use std::path::Path;

use opal::{ChunkId, ChunkStore};

use super::{timed, MIB};
use crate::app::noise;
use crate::metrics::Metrics;
use crate::stats::median;

const CHUNK: usize = 64 * 1024;
const CHUNKS: usize = 128;
/// References taken per timed `incref_all` call.
const BATCH: usize = 128;
const REPS: usize = 5;

fn err(e: cr_core::CrError) -> String {
    format!("chunk store: {e}")
}

/// Microseconds per chunk of an `incref_all`/`decref_all` pair on a store
/// whose refcount table already holds `filled` chunks of 64 bytes.
fn incref_us_per_chunk(seed: u64, dir: &Path, filled: usize) -> Result<f64, String> {
    let store = ChunkStore::open(dir).map_err(err)?;
    let blob = noise(seed, 64 * filled);
    let mut ids = Vec::with_capacity(filled);
    for piece in blob.chunks_exact(64) {
        ids.push(store.insert(piece).map_err(err)?.0);
    }
    store.incref_all(&ids).map_err(err)?;
    let batch = &ids[..BATCH];
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (done, secs) = timed(|| {
            store
                .incref_all(batch)
                .and_then(|()| store.decref_all(batch))
        });
        done.map_err(err)?;
        samples.push(secs * 1e6 / (2 * BATCH) as f64);
    }
    Ok(median(&samples))
}

pub fn probe(seed: u64, dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let data = noise(seed, CHUNK * CHUNKS);
    let mib = data.len() as f64 / MIB;
    let bulk = dir.join("bulk");
    let store = ChunkStore::open(&bulk).map_err(err)?;

    let (ids, secs) = timed(|| -> Result<Vec<ChunkId>, cr_core::CrError> {
        data.chunks_exact(CHUNK)
            .map(|c| store.insert(c).map(|(id, _)| id))
            .collect()
    });
    let ids = ids.map_err(err)?;
    out.push("opal.store.insert_new_mib_s", mib / secs, 1);

    let (dups, secs) = timed(|| {
        data.chunks_exact(CHUNK)
            .try_for_each(|c| store.insert(c).map(drop))
    });
    dups.map_err(err)?;
    out.push("opal.store.insert_dup_mib_s", mib / secs, 1);

    let (got, secs) = timed(|| ids.iter().try_for_each(|id| store.get(id).map(drop)));
    got.map_err(err)?;
    out.push("opal.store.get_mib_s", mib / secs, 1);

    store.incref_all(&ids).map_err(err)?;
    let files = std::fs::read_dir(&bulk).map_err(|e| e.to_string())?.count();
    out.push("opal.store.files_per_mib", files as f64 / mib, 1);

    // Unreferenced blobs are what a sweep deletes.
    store.decref_all(&ids).map_err(err)?;
    let (swept, secs) = timed(|| store.sweep(CHUNKS));
    if swept.map_err(err)?.len() != CHUNKS {
        return Err("sweep left unreferenced blobs behind".into());
    }
    out.push("opal.store.sweep_ms", secs * 1e3, 1);

    for (metric, filled) in [
        ("opal.store.incref_us_per_chunk.1k", 1024),
        ("opal.store.incref_us_per_chunk.16k", 16384),
    ] {
        let us = incref_us_per_chunk(seed, &dir.join(filled.to_string()), filled)?;
        out.push(metric, us, REPS);
    }
    Ok(())
}
