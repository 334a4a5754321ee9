//! `orte::replica`: the peer-memory tier, one 256 KiB image at a time.

use std::path::Path;

use cr_core::{JobId, Rank};
use netsim::{LinkSpec, Topology};
use orte::Runtime;

use super::{timed, MIB};
use crate::app::noise;
use crate::metrics::Metrics;
use crate::stats::median;

const IMAGE_BYTES: usize = 256 * 1024;
const REPS: u64 = 9;

pub fn probe(seed: u64, dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let err = |e: cr_core::CrError| format!("replica: {e}");
    let rt = Runtime::new(
        Topology::uniform(4, LinkSpec::gigabit_ethernet()),
        dir.join("rt"),
    )
    .map_err(err)?;
    let local = dir.join("local_snapshot");
    std::fs::create_dir_all(&local).map_err(|e| e.to_string())?;
    std::fs::write(local.join("context.bin"), noise(seed, IMAGE_BYTES))
        .map_err(|e| e.to_string())?;
    let mib = IMAGE_BYTES as f64 / MIB;
    let job = JobId(1);
    let images = [(Rank(0), 1u32, local)];
    let (mut put, mut fetch, mut fetch_sim) = (vec![], vec![], vec![]);
    for interval in 0..REPS {
        // Factor 1: the rank's own node and one ring neighbour.
        let (placed, secs) = timed(|| orte::replica::replicate(&rt, job, interval, &images, 1));
        let placed = placed.map_err(err)?;
        put.push(2.0 * mib / secs);
        let holders = &placed.holders[0].1;
        let (got, secs) =
            timed(|| orte::replica::fetch_image(&rt, job, interval, Rank(0), holders));
        let (image, sim) = got.ok_or("no holder served the replica back")?;
        if image.total_bytes() != IMAGE_BYTES as u64 {
            return Err("replica came back with a different size".into());
        }
        fetch.push(mib / secs);
        fetch_sim.push(sim.as_millis_f64());
    }
    rt.shutdown();
    let n = REPS as usize;
    out.push("orte.replica.put_mib_s", median(&put), n);
    out.push("orte.replica.fetch_mib_s", median(&fetch), n);
    out.push("orte.replica.fetch_sim_ms", median(&fetch_sim), n);
    Ok(())
}
