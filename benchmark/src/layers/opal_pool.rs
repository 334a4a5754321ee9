//! `opal::pool`: chunk hashing over the bounded worker pool.

use super::{timed, MIB};
use crate::app::noise;
use crate::metrics::Metrics;
use crate::stats::median;

const BYTES: usize = 8 * 1024 * 1024;
const CHUNK: usize = 64 * 1024;
const REPS: usize = 9;

fn hash_mib_s(data: &[u8], workers: usize) -> f64 {
    let sections = [("app", data)];
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let (_, secs) = timed(|| opal::pool::manifest_parallel(&sections, CHUNK, workers));
            BYTES as f64 / MIB / secs
        })
        .collect();
    median(&rates)
}

pub fn probe(seed: u64, out: &mut Metrics) {
    let data = noise(seed, BYTES);
    // Worker scaling only binds where there are cores to scale onto: the
    // core count is recorded beside the rates, and a 1-core host reporting
    // wN == w1 is data, not a failure.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = cores.min(4);
    out.push("opal.pool.hash_mib_s.w1", hash_mib_s(&data, 1), REPS);
    out.push("opal.pool.hash_mib_s.wN", hash_mib_s(&data, workers), REPS);
    out.push("opal.pool.workers_n", workers as f64, 1);
    out.push("host.cores", cores as f64, 1);
}
