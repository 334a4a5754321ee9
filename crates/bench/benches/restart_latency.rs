//! Restart latency: peer-memory replicas vs stable storage.
//!
//! The replica FILEM component commits checkpoints to peer daemon memory
//! and drains to disk behind the job's back, so a restart can usually be
//! served without touching stable storage at all. This bench restarts the
//! same checkpointed job twice — `--source replica` and `--source stable`
//! — and reports the wall-clock restart time of each. What memory saves
//! is asserted as a count: a replica-source restart decodes every image
//! from peer memory (`filem.replica.preload` counts every rank) and reads
//! no local snapshot from stable storage (no `filem.preload`), and a
//! stable-source restart is the reverse.
//!
//! `RESTART_LATENCY_SMOKE=1` (used by `scripts/check.sh`) runs one timed
//! restart per source instead of the full criterion sampling.
//!
//! `RESTART_PARTIAL_SMOKE=1` instead restores *one* failed rank of a
//! 4-rank and of an 8-rank job with a partial restart, asserting that it
//! respawns exactly that rank and decodes exactly one image, and splices
//! the counts into `BENCH_ckpt.json` (`restart_partial` key) when
//! `BENCH_CKPT_JSON` is set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_core::request::CheckpointOptions;
use cr_core::trace::TraceEvent;
use criterion::{criterion_group, criterion_main, Criterion};
use mca::McaParams;
use netsim::{LinkSpec, NodeId, Topology};
use ompi::app::{MpiApp, StepOutcome};
use ompi::{mpirun, restart, Mpi, MpiError, RestartOptions, RestartSource, RunConfig};
use orte::Runtime;
use workloads::ring::{RingApp, RingState};

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
        .checkpoint(&CheckpointOptions::tool().and_terminate())
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

/// Local snapshots decoded per tier among `events`: `(peer memory,
/// stable storage)`, read off the `N local snapshots, ...` details of the
/// two preload events.
fn decoded(events: &[TraceEvent]) -> (u32, u32) {
    let count = |phase: &str| -> u32 {
        events
            .iter()
            .filter(|e| e.phase == phase)
            .map(|e| {
                let n = e.detail.split(' ').next().unwrap_or_default();
                n.parse::<u32>().expect("preload detail starts with a count")
            })
            .sum()
    };
    (count("filem.replica.preload"), count("filem.preload"))
}

/// One restart from `source`, timed, with the images it decoded per tier.
fn restart_counted(
    rt: &Runtime,
    snapshot: &std::path::Path,
    source: RestartSource,
) -> (Duration, (u32, u32)) {
    let mark = rt.tracer().events().len();
    let up = restart_once(rt, snapshot, source);
    (up, decoded(&rt.tracer().events()[mark..]))
}

/// A ring that loses rank `fail` once `armed` is set.
struct FailingRing {
    ring: RingApp,
    fail: u32,
    armed: Arc<AtomicBool>,
}

impl MpiApp for FailingRing {
    type State = RingState;

    fn name(&self) -> &str {
        "failing-ring"
    }

    fn init_state(&self, mpi: &Mpi) -> Result<RingState, MpiError> {
        self.ring.init_state(mpi)
    }

    fn step(&self, mpi: &Mpi, state: &mut RingState) -> Result<StepOutcome, MpiError> {
        if mpi.rank() == self.fail && self.armed.swap(false, Ordering::SeqCst) {
            return Err(MpiError::PeerLost {
                detail: "injected node failure".into(),
            });
        }
        self.ring.step(mpi, state)
    }
}

/// One `restart_partial` row: what restoring one failed rank of `ranks`
/// did.
struct PartialRow {
    ranks: u32,
    respawned: usize,
    decoded: u32,
}

/// Poll `done` every millisecond for up to 30 s.
fn await_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Checkpoint an `n`-rank replica job with a spare node, lose the last
/// rank with its node, and restore just that rank onto the spare.
fn partial_once(base: &std::path::Path, n: u32) -> PartialRow {
    let rt = Runtime::new(Topology::uniform(n + 1, LinkSpec::gigabit_ethernet()), base)
        .expect("runtime");
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", "1");
    params.set("crcp_msg_log_enabled", "true");
    params.set("orte_spare_nodes", "1");
    let fail = n - 1;
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(FailingRing {
        ring: RingApp { rounds: 1_000_000 },
        fail,
        armed: Arc::clone(&armed),
    });
    let job = mpirun(&rt, app, RunConfig { nprocs: n, params }).expect("launch");
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).expect("checkpoint");
    armed.store(true, Ordering::SeqCst);
    await_until("the injected failure", || !job.failed_ranks().is_empty());
    rt.kill_daemon(NodeId(fail));

    let tracer = rt.tracer();
    let mark = tracer.events().len();
    let outcome = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default().with_ranks(vec![fail]),
        )
        .expect("partial restart");
    assert_eq!(outcome.ranks, vec![fail]);
    await_until("the respawned rank's restart", || {
        tracer.events()[mark..].iter().any(|e| e.phase == "ompi.init.restart")
    });
    job.request_terminate();
    job.wait().expect("wait");
    let after = &tracer.events()[mark..];
    let respawned: Vec<&str> = after
        .iter()
        .filter(|e| e.phase == "ompi.init.restart")
        .map(|e| e.detail.as_str())
        .collect();
    assert_eq!(respawned, vec![format!("rank {fail}")], "only rank {fail} restarts");
    let (memory, stable) = decoded(after);
    rt.shutdown();
    PartialRow {
        ranks: n,
        respawned: respawned.len(),
        decoded: memory + stable,
    }
}

/// Splice the `restart_partial` rows into `BENCH_ckpt.json` (created by
/// the `ckpt_incremental` smoke earlier in `scripts/check.sh`), or write
/// a standalone document when the file does not exist yet.
fn splice_partial_json(path: &str, rows: &[PartialRow]) {
    let mut body = String::from("  \"restart_partial\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"ranks\": {}, \"failed\": 1, \"respawned\": {}, \"decoded\": {}}}{}\n",
            row.ranks,
            row.respawned,
            row.decoded,
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
    for n in [4u32, 8] {
        let row = partial_once(&base.join(format!("partial_{n}")), n);
        println!(
            "restart_partial: ranks={} respawned={} decoded={}",
            row.ranks, row.respawned, row.decoded
        );
        assert_eq!(
            (row.respawned, row.decoded),
            (1, 1),
            "restoring 1 failed rank of {n} must respawn one rank and decode one image"
        );
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

    let (mem, from_memory) = restart_counted(&rt, &snapshot, RestartSource::Replica);
    let (disk, from_disk) = restart_counted(&rt, &snapshot, RestartSource::Stable);
    println!(
        "restart_latency: memory={mem:?} decoded {from_memory:?}, disk={disk:?} decoded \
         {from_disk:?} (peer memory, stable storage)"
    );
    assert_eq!(
        from_memory,
        (NPROCS, 0),
        "a peer-memory restart decodes every image from memory and reads no stable snapshot"
    );
    assert_eq!(from_disk, (0, NPROCS), "a stable-source restart reads every stable snapshot");

    if std::env::var("RESTART_LATENCY_SMOKE").is_ok() {
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
