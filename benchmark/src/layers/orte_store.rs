//! `orte::store::SnapshotStore`: assembling a rank's image from its chunk
//! manifest, stable tier only (the disaster-recovery path).

use std::path::Path;

use cr_core::JobId;
use netsim::{LinkSpec, Topology};
use orte::store::{ChunkSource, SnapshotStore};
use orte::Runtime;

use super::{timed, MIB};
use crate::app::bulk_image;
use crate::metrics::Metrics;
use crate::stats::median;

const RANKS: u32 = 8;
const CHUNK: usize = 64 * 1024;

pub fn probe(seed: u64, dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let err = |e: cr_core::CrError| format!("snapshot store: {e}");
    let rt = Runtime::new(
        Topology::uniform(1, LinkSpec::gigabit_ethernet()),
        dir.join("rt"),
    )
    .map_err(err)?;
    let store = SnapshotStore::open(&rt, JobId(1), &dir.join("global")).map_err(err)?;
    let mut rates = Vec::with_capacity(RANKS as usize);
    for rank in 0..RANKS {
        let image = bulk_image(seed, rank, 1024 * 1024)?;
        let sections: Vec<(&str, &[u8])> = image.iter().collect();
        for (_, bytes) in &sections {
            for chunk in bytes.chunks(CHUNK) {
                store.stable().insert(chunk).map_err(err)?;
            }
        }
        let manifest = opal::pool::manifest_parallel(&sections, CHUNK, 1);
        let (fetched, secs) = timed(|| store.fetch_image(&manifest, ChunkSource::StableOnly, true));
        if fetched.map_err(err)?.0 != image {
            return Err("fetched image differs from the one stored".into());
        }
        rates.push(image.total_bytes() as f64 / MIB / secs);
    }
    rt.shutdown();
    out.push("orte.store.fetch_mib_s", median(&rates), rates.len());
    Ok(())
}
