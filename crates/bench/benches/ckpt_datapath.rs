//! Ablation A12: checkpoint data-path throughput — parallel hash/copy
//! pool and contention-aware gather scheduling.
//!
//! Two deterministic gates run on every invocation:
//!
//! * **Identity**: the parallel manifest builder must produce the exact
//!   manifest the sequential builder does, chunk record for chunk record.
//! * **Scheduling**: on a contended gather batch (four ranks behind one
//!   uplink, two lanes) the spread plan's simulated critical path must
//!   be strictly below the index-order reference plan's under the 1/k
//!   link-contention pricing.
//!
//! Wall-clock MB/s ratchet: chunk hashing over the worker pool must reach
//! ≥ 1.8× single-worker throughput at 4 workers on a ≥ 64 MiB image —
//! gated only when the host actually has ≥ 4 cores (the measurement is
//! still taken and recorded otherwise, with a printed waiver).
//!
//! `CKPT_DATAPATH_SMOKE=1` (used by `scripts/check.sh`) skips criterion
//! sampling after the gates. When `BENCH_DATAPATH_JSON` names a path, the
//! per-worker-count throughput table is written there
//! (`BENCH_datapath.json`).

use std::time::{Duration, Instant};

use codec::chunk::ChunkManifest;
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::{LinkSpec, NodeId, Topology};
use opal::pool::{digest_all_parallel, insert_all_parallel, manifest_parallel};
use opal::ChunkStore;
use orte::filem::CopyRequest;
use orte::sched::{plan, plan_fifo, simulated_critical_path};

const IMAGE_BYTES: usize = 64 << 20; // 64 MiB hashing corpus
const CHUNK_BYTES: usize = 64 << 10; // 64 KiB chunks -> 1024 records
const INSERT_BYTES: usize = 16 << 20; // store-insert corpus (writes blobs)
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const REPS: usize = 3;

/// Deterministic pseudo-random fill (SplitMix64 per 8-byte word).
fn corpus(len: usize, mut seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&z.to_le_bytes()[..take]);
    }
    out
}

fn chunks_of(data: &[u8]) -> Vec<&[u8]> {
    data.chunks(CHUNK_BYTES).collect()
}

fn mib_per_sec(bytes: usize, wall: Duration) -> f64 {
    bytes as f64 / wall.as_secs_f64().max(1e-9) / (1024.0 * 1024.0)
}

/// Best-of-N wall clock for `f`.
fn best_of<F: FnMut()>(mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

// ---------------------------------------------------------------------------
// Deterministic gates
// ---------------------------------------------------------------------------

fn assert_parallel_manifest_identical(data: &[u8]) {
    let half = data.len() / 2;
    let sections = [("heap", &data[..half]), ("stack", &data[half..])];
    let sequential = ChunkManifest::of_sections(sections.iter().copied(), CHUNK_BYTES);
    for workers in WORKER_COUNTS {
        let parallel = manifest_parallel(&sections, CHUNK_BYTES, workers);
        assert_eq!(
            parallel.render(),
            sequential.render(),
            "parallel manifest diverges at {workers} workers"
        );
    }
    println!("ckpt_datapath: parallel manifest identical at {WORKER_COUNTS:?} workers");
}

/// The A12 contended gather: four ranks behind node 1's uplink, one each
/// on nodes 2 and 3, two lanes. Spread must strictly beat fifo under the
/// simulator's 1/k contention pricing.
fn assert_spread_beats_fifo() -> (u64, u64) {
    let topo = Topology::uniform(4, LinkSpec::gigabit_ethernet());
    let batch: Vec<CopyRequest> = [1u32, 1, 1, 1, 2, 3]
        .iter()
        .enumerate()
        .map(|(i, &src)| CopyRequest {
            src: format!("/scratch/{i}").into(),
            src_node: NodeId(src),
            dest: format!("/stable/{i}").into(),
            dest_node: NodeId(0),
        })
        .collect();
    let bytes = vec![8 << 20; batch.len()];
    let fifo = simulated_critical_path(&plan_fifo(&batch, 2), &topo, &batch, &bytes);
    let spread = simulated_critical_path(&plan(&batch, 2), &topo, &batch, &bytes);
    assert!(
        spread < fifo,
        "spread critical path must be strictly below fifo on the contended batch \
         (spread={spread}, fifo={fifo})"
    );
    println!("ckpt_datapath: gather critical path fifo={fifo}, spread={spread}");
    (fifo.as_nanos(), spread.as_nanos())
}

// ---------------------------------------------------------------------------
// Wall-clock measurements
// ---------------------------------------------------------------------------

fn measure_hash(data: &[u8], workers: usize) -> f64 {
    let chunks = chunks_of(data);
    let wall = best_of(|| {
        let digests = digest_all_parallel(&chunks, workers);
        assert_eq!(digests.len(), chunks.len());
    });
    mib_per_sec(data.len(), wall)
}

fn measure_insert(base: &std::path::Path, data: &[u8], workers: usize) -> f64 {
    let chunks: Vec<(opal::ChunkId, &[u8])> = data
        .chunks(CHUNK_BYTES)
        .map(|c| (opal::ChunkId::of(c), c))
        .collect();
    let mut best = Duration::MAX;
    for rep in 0..REPS {
        let dir = base.join(format!("store_{workers}_{rep}"));
        let store = ChunkStore::open(&dir).expect("open chunk store");
        let t = Instant::now();
        let fresh = insert_all_parallel(&store, &chunks, workers).expect("insert");
        best = best.min(t.elapsed());
        assert!(fresh.iter().all(|&f| f), "fresh store must take every chunk");
    }
    mib_per_sec(data.len(), best)
}

// ---------------------------------------------------------------------------

fn write_json(
    path: &str,
    cores: usize,
    hash: &[(usize, f64)],
    insert: &[(usize, f64)],
    fifo_ns: u64,
    spread_ns: u64,
) {
    let row = |pairs: &[(usize, f64)]| {
        pairs
            .iter()
            .map(|(w, m)| format!("\"{w}\": {m:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"image_bytes\": {IMAGE_BYTES},\n  \"chunk_bytes\": {CHUNK_BYTES},\n  \
         \"cores\": {cores},\n  \
         \"hash_mib_s\": {{ {} }},\n  \
         \"insert_mib_s\": {{ {} }},\n  \
         \"sched_critical_path_ns\": {{ \"fifo\": {fifo_ns}, \"spread\": {spread_ns} }}\n}}\n",
        row(hash),
        row(insert),
    );
    std::fs::write(path, json).expect("write BENCH_datapath.json");
    println!("ckpt_datapath: wrote {path}");
}

fn ckpt_datapath(c: &mut Criterion) {
    let data = corpus(IMAGE_BYTES, 1);

    // Deterministic gates first — they hold on any machine.
    assert_parallel_manifest_identical(&data);
    let (fifo_ns, spread_ns) = assert_spread_beats_fifo();

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let hash: Vec<(usize, f64)> = WORKER_COUNTS
        .iter()
        .map(|&w| (w, measure_hash(&data, w)))
        .collect();
    let base = std::env::temp_dir().join(format!("bench_ckpt_datapath_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let insert_data = &data[..INSERT_BYTES];
    let insert: Vec<(usize, f64)> = WORKER_COUNTS
        .iter()
        .map(|&w| (w, measure_insert(&base, insert_data, w)))
        .collect();
    let _ = std::fs::remove_dir_all(&base);

    for (label, rows) in [("hash", &hash), ("insert", &insert)] {
        for (w, m) in rows {
            println!("ckpt_datapath: {label} {w} workers: {m:.1} MiB/s");
        }
    }

    // The wall-clock ratchet only binds where 4 workers can actually run
    // in parallel; single-core CI still records the numbers above.
    let h1 = hash.iter().find(|(w, _)| *w == 1).map(|(_, m)| *m).unwrap_or(0.0);
    let h4 = hash.iter().find(|(w, _)| *w == 4).map(|(_, m)| *m).unwrap_or(0.0);
    if cores >= 4 {
        assert!(
            h4 >= 1.8 * h1,
            "4-worker hashing must reach >= 1.8x single-worker throughput on a \
             {cores}-core host ({h4:.1} vs {h1:.1} MiB/s)"
        );
        println!("ckpt_datapath: hash speedup {:.2}x at 4 workers (gate >= 1.8x)", h4 / h1);
    } else {
        println!(
            "ckpt_datapath: WAIVED 1.8x hash-speedup gate — host has {cores} core(s); \
             measured {:.2}x",
            h4 / h1.max(1e-9)
        );
    }

    if let Ok(path) = std::env::var("BENCH_DATAPATH_JSON") {
        write_json(&path, cores, &hash, &insert, fifo_ns, spread_ns);
    }

    if std::env::var("CKPT_DATAPATH_SMOKE").is_ok() {
        println!("ckpt_datapath smoke: gates passed (criterion sampling skipped)");
        return;
    }

    let mut group = c.benchmark_group("ckpt_datapath");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for workers in WORKER_COUNTS {
        let chunks = chunks_of(&data);
        group.bench_function(format!("hash_{workers}w"), |b| {
            b.iter(|| digest_all_parallel(&chunks, workers))
        });
    }
    group.finish();
}

criterion_group!(benches, ckpt_datapath);
criterion_main!(benches);
