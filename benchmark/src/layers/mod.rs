//! One file per layer of the system under test. Each `probe` times calls
//! into its layer's public functions in isolation, from outside the
//! program, and pushes the layer's metrics.

use std::path::Path;
use std::time::Instant;

use crate::metrics::Metrics;

pub mod codec;
pub mod core_trace;
pub mod ompi;
pub mod opal_pool;
pub mod opal_store;
pub mod orte_replica;
pub mod orte_snapc;
pub mod orte_store;

const MIB: f64 = 1024.0 * 1024.0;

/// Seconds one call of `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Every isolated layer probe, in reporting order. `scratch` is an empty
/// directory the probes may fill; the caller removes it.
pub fn probe_all(seed: u64, scratch: &Path, out: &mut Metrics) -> Result<(), String> {
    codec::probe(seed, out)?;
    opal_pool::probe(seed, out);
    opal_store::probe(seed, &scratch.join("chunk_store"), out)?;
    orte_store::probe(seed, &scratch.join("snapshot_store"), out)?;
    orte_replica::probe(seed, &scratch.join("replica"), out)?;
    ompi::probe(out)?;
    core_trace::probe(&scratch.join("journal"), out)?;
    Ok(())
}
