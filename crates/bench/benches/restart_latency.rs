//! Restart latency: peer-memory replicas vs stable storage.
//!
//! The replica FILEM component commits checkpoints to peer daemon memory
//! and drains to disk behind the job's back, so a restart can usually be
//! served without touching stable storage at all. This bench restarts the
//! same checkpointed job twice — `--source replica` and `--source stable`
//! — and reports both the wall-clock restart time and the deterministic
//! simulated wire cost of each image-materialization path. The simulated
//! comparison is asserted: memory must be strictly cheaper than disk.
//!
//! `RESTART_LATENCY_SMOKE=1` (used by `scripts/check.sh`) runs one timed
//! restart per source instead of the full criterion sampling.
//!
//! `RESTART_PARTIAL_SMOKE=1` instead compares the simulated recovery
//! cost of a *partial* restart (1 failed rank: one image fetch plus one
//! launcher session) against a *full* restart (every rank re-fetched and
//! relaunched) at 4, 8, and 16 ranks, asserting partial is strictly
//! cheaper from 8 ranks up, and splices the rows into `BENCH_ckpt.json`
//! (`restart_partial` key) when `BENCH_CKPT_JSON` is set.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_core::{GlobalSnapshot, Rank};
use criterion::{criterion_group, criterion_main, Criterion};
use mca::McaParams;
use netsim::{LinkSpec, NodeId, SimTime, Topology};
use ompi::{mpirun, restart, RestartOptions, RestartSource, RunConfig};
use orte::filem::CopyRequest;
use orte::Runtime;
use workloads::ring::RingApp;

const NODES: u32 = 4;
const NPROCS: u32 = 4;

/// Launch a ring job with the replica file mover, checkpoint it, let it
/// terminate, and hand back the runtime (daemons — and their replica
/// stores — stay up) plus the global snapshot reference.
fn checkpointed(base: &std::path::Path) -> (Runtime, std::path::PathBuf) {
    let rt = Runtime::new(Topology::uniform(NODES, LinkSpec::gigabit_ethernet()), base)
        .expect("runtime");
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", "1");
    let job = mpirun(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        RunConfig {
            nprocs: NPROCS,
            params,
        },
    )
    .expect("launch");
    std::thread::sleep(Duration::from_millis(30));
    let outcome = job
        .handle()
        .checkpoint(&cr_core::request::CheckpointOptions::tool().and_terminate())
        .expect("checkpoint");
    job.wait().expect("wait");
    // Make stable storage complete so the disk path has everything.
    rt.drain_writebehind();
    (rt, outcome.global_snapshot)
}

/// One full restart from `source`, terminated as soon as it is up.
fn restart_once(rt: &Runtime, snapshot: &std::path::Path, source: RestartSource) -> Duration {
    let start = Instant::now();
    let job = restart(
        rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        snapshot,
        RestartOptions::default().with_source(source),
    )
    .expect("restart");
    let up = start.elapsed();
    job.handle().request_terminate();
    job.wait().expect("wait restarted");
    up
}

/// Deterministic simulated wire cost of pulling every rank's image from
/// peer memory.
fn memory_sim_cost(rt: &Runtime, global: &GlobalSnapshot, interval: u64) -> SimTime {
    let mut total = SimTime::ZERO;
    for r in 0..global.nprocs() {
        let rank = Rank(r);
        let holders = global.replica_holders(interval, rank);
        let (_, cost) = orte::replica::fetch_image(rt, global.job(), interval, rank, &holders)
            .expect("replica image");
        total += cost;
    }
    total
}

/// Deterministic simulated wire cost of broadcasting every rank's stable
/// local snapshot to its node with the job's file mover: the disk-side
/// price this bench compares peer memory against.
fn disk_sim_cost(
    rt: &Runtime,
    global: &GlobalSnapshot,
    interval: u64,
    scratch: &std::path::Path,
) -> SimTime {
    let params = McaParams::from_dump(
        global
            .launch_params()
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str())),
    );
    let filem = orte::filem::filem_framework()
        .select(&params)
        .expect("filem");
    let mut batch = Vec::new();
    for r in 0..global.nprocs() {
        let local = global.local_snapshot(interval, Rank(r)).expect("stable copy");
        batch.push(CopyRequest {
            src: local.dir().to_path_buf(),
            src_node: NodeId(0),
            dest: scratch.join(format!("rank_{r}")),
            dest_node: NodeId(r % NODES),
        });
    }
    let (report, _) =
        orte::sched::copy_all_scheduled(&*filem, rt.netview(), &batch, 1).expect("preload");
    for req in &batch {
        std::fs::remove_dir_all(&req.dest).expect("cleanup");
    }
    report.serialized_cost
}

/// Simulated launcher-session cost per restarted process.
const SESSION: SimTime = orte::plm::RSH_SESSION;

/// One `restart_partial` comparison row.
struct PartialRow {
    ranks: u32,
    partial_sim: SimTime,
    full_sim: SimTime,
}

/// Checkpoint an `n`-rank replica job and compare the simulated recovery
/// cost of restoring one failed rank (one image fetch + one launcher
/// session, the survivors stay live) against relaunching the whole job
/// (every image fetched, every rank a session).
fn partial_vs_full_once(base: &std::path::Path, n: u32) -> PartialRow {
    let rt = Runtime::new(Topology::uniform(n, LinkSpec::gigabit_ethernet()), base)
        .expect("runtime");
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", "1");
    let job = mpirun(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        RunConfig { nprocs: n, params },
    )
    .expect("launch");
    std::thread::sleep(Duration::from_millis(30));
    let outcome = job
        .handle()
        .checkpoint(&cr_core::request::CheckpointOptions::tool().and_terminate())
        .expect("checkpoint");
    job.wait().expect("wait");
    rt.drain_writebehind();

    let global = GlobalSnapshot::open(&outcome.global_snapshot).expect("open global");
    let interval = global.latest_interval().expect("committed interval");

    let mut fetch = Vec::with_capacity(n as usize);
    for r in 0..n {
        let rank = Rank(r);
        let holders = global.replica_holders(interval, rank);
        let (_, cost) = orte::replica::fetch_image(&rt, global.job(), interval, rank, &holders)
            .expect("replica image");
        fetch.push(cost);
    }
    let full_sim = fetch.iter().copied().sum::<SimTime>() + SESSION * n as u64;
    // Rank n-1 fails: its image plus one launcher session on the spare.
    let partial_sim = fetch[(n - 1) as usize] + SESSION;
    rt.shutdown();
    PartialRow { ranks: n, partial_sim, full_sim }
}

/// Splice the `restart_partial` rows into `BENCH_ckpt.json` (created by
/// the `ckpt_incremental` smoke earlier in `scripts/check.sh`), or write
/// a standalone document when the file does not exist yet.
fn splice_partial_json(path: &str, rows: &[PartialRow]) {
    let mut body = String::from("  \"restart_partial\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"ranks\": {}, \"failed\": 1, \"partial_sim_ns\": {}, \
             \"full_sim_ns\": {}, \"speedup\": {:.4}}}{}\n",
            row.ranks,
            row.partial_sim.as_nanos(),
            row.full_sim.as_nanos(),
            row.full_sim.as_nanos() as f64 / row.partial_sim.as_nanos().max(1) as f64,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]");
    let json = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let without_close = trimmed
                .strip_suffix('}')
                .map(|s| s.trim_end().to_string())
                .unwrap_or_else(|| trimmed.to_string());
            format!("{without_close},\n{body}\n}}\n")
        }
        Err(_) => format!("{{\n{body}\n}}\n"),
    };
    std::fs::write(path, json).expect("write BENCH_ckpt.json");
    println!("restart_latency: spliced restart_partial into {path}");
}

fn partial_smoke(base: &std::path::Path) {
    let mut rows = Vec::new();
    for n in [4u32, 8, 16] {
        let row = partial_vs_full_once(&base.join(format!("pvf_{n}")), n);
        println!(
            "restart_partial: ranks={} partial={} full={} ({:.2}x)",
            row.ranks,
            row.partial_sim,
            row.full_sim,
            row.full_sim.as_nanos() as f64 / row.partial_sim.as_nanos().max(1) as f64
        );
        if n >= 8 {
            assert!(
                row.partial_sim < row.full_sim,
                "partial restart of 1/{n} ranks must be strictly cheaper than a \
                 full relaunch (partial={}, full={})",
                row.partial_sim,
                row.full_sim
            );
        }
        rows.push(row);
    }
    if let Ok(path) = std::env::var("BENCH_CKPT_JSON") {
        splice_partial_json(&path, &rows);
    }
}

fn restart_latency(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("bench_restart_latency_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    if std::env::var("RESTART_PARTIAL_SMOKE").is_ok() {
        partial_smoke(&base);
        return;
    }

    let (rt, snapshot) = checkpointed(&base);

    let global = GlobalSnapshot::open(&snapshot).expect("open global");
    let interval = global.latest_interval().expect("committed interval");
    let mem_sim = memory_sim_cost(&rt, &global, interval);
    let disk_sim = disk_sim_cost(&rt, &global, interval, &base.join("disk_sim_scratch"));
    println!("restart sim cost: memory={mem_sim} disk={disk_sim}");
    assert!(
        mem_sim < disk_sim,
        "peer-memory restart must be strictly cheaper than stable storage \
         (memory={mem_sim}, disk={disk_sim})"
    );

    if std::env::var("RESTART_LATENCY_SMOKE").is_ok() {
        let mem = restart_once(&rt, &snapshot, RestartSource::Replica);
        let disk = restart_once(&rt, &snapshot, RestartSource::Stable);
        println!(
            "restart_latency smoke: memory={mem:?} disk={disk:?} (1 restart each)"
        );
        rt.shutdown();
        return;
    }

    let mut group = c.benchmark_group("restart_latency");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("memory", |b| {
        b.iter(|| restart_once(&rt, &snapshot, RestartSource::Replica))
    });
    group.bench_function("disk", |b| {
        b.iter(|| restart_once(&rt, &snapshot, RestartSource::Stable))
    });
    group.finish();
    rt.shutdown();
}

criterion_group!(benches, restart_latency);
criterion_main!(benches);
