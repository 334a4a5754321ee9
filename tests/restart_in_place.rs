//! Restart decodes every rank's local snapshot where it lives: a stable
//! miss from its directory on stable storage, a peer-memory hit in
//! memory. Nothing is written under any node directory, and each stable
//! byte is read once.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_core::request::CheckpointOptions;
use cr_core::{CrError, GlobalSnapshot, Rank};
use mca::McaParams;
use netsim::NodeId;
use ompi::app::{MpiApp, StepOutcome};
use ompi::{mpirun, restart, Mpi, MpiError, RestartOptions, RestartSource, RunConfig};
use ompi_cr::test_runtime;
use workloads::ring::{reference_checksums, RingApp, RingState};

const NPROCS: u32 = 4;

/// Each test spins a 4-rank job; run the file's tests one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every file and directory under the runtime's node directories.
fn node_trees(rt: &orte::Runtime) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            }
            out.push(path);
        }
    }
    let mut out = Vec::new();
    for n in 0..rt.topology().len() as u32 {
        walk(&rt.node_dir(NodeId(n)), &mut out);
    }
    out
}

/// Checkpoint a ring job of `rounds` with terminate-after on a runtime of
/// its own, and shut that runtime down: the global snapshot reference.
fn checkpoint_ring(tag: &str, rounds: u64) -> PathBuf {
    let rt = test_runtime(tag, 4);
    let job = mpirun(&rt, Arc::new(RingApp { rounds }), RunConfig::new(NPROCS)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    rt.shutdown();
    outcome.global_snapshot
}

#[test]
fn stable_restart_reads_each_byte_once_and_writes_nothing_on_the_nodes() {
    let _serial = serial();
    let rounds = 200_000;
    let global_ref = checkpoint_ring("inplace_ckpt", rounds);
    let global = GlobalSnapshot::open(&global_ref).unwrap();
    let interval = global.latest_interval().unwrap();
    let on_disk = global.interval_size_bytes(interval).unwrap();

    let rt = test_runtime("inplace_restart", 4);
    let app = Arc::new(RingApp { rounds });
    let opts = RestartOptions::default().with_source(RestartSource::Stable);
    let job = restart(&rt, app, &global_ref, opts).unwrap();
    assert_eq!(node_trees(&rt), Vec::<PathBuf>::new(), "restart wrote on the nodes");

    let preloads: Vec<String> = rt
        .tracer()
        .events()
        .into_iter()
        .filter(|e| e.phase == "filem.preload")
        .map(|e| e.detail)
        .collect();
    let read_once = format!("{NPROCS} local snapshots, 8 files, {on_disk} bytes");
    assert_eq!(preloads, [read_once], "each on-disk byte read once");
    let results = job.wait().unwrap();
    let expected = reference_checksums(u64::from(NPROCS), rounds);
    for (r, (state, _)) in results.iter().enumerate() {
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }
    rt.shutdown();
}

#[test]
fn a_flipped_stable_byte_is_refused_with_nothing_left_on_the_nodes() {
    let _serial = serial();
    let global_ref = checkpoint_ring("inplace_flip_ckpt", 200_000);
    let global = GlobalSnapshot::open(&global_ref).unwrap();
    let local = global
        .local_snapshot(global.latest_interval().unwrap(), Rank(2))
        .unwrap();
    let mut bytes = std::fs::read(local.context_path()).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(local.context_path(), bytes).unwrap();

    let rt = test_runtime("inplace_flip_restart", 4);
    let app = Arc::new(RingApp { rounds: 200_000 });
    let err = restart(&rt, app, &global_ref, RestartOptions::default())
        .err()
        .expect("a corrupt context must fail the restart");
    let CrError::BadSnapshot { detail } = &err else {
        panic!("wanted BadSnapshot, got: {err}");
    };
    assert!(
        detail.contains(&format!("rank 2 interval {}", local.interval())),
        "{detail}"
    );
    assert!(
        detail.contains(&local.context_path().display().to_string()),
        "{detail}"
    );
    assert!(detail.contains("checksum mismatch"), "{detail}");
    assert_eq!(node_trees(&rt), Vec::<PathBuf>::new());
    rt.shutdown();
}

/// A ring whose rank 2 dies at its next step once `armed` is set.
struct GatedRing {
    inner: RingApp,
    armed: Arc<AtomicBool>,
}

impl MpiApp for GatedRing {
    type State = RingState;

    fn name(&self) -> &str {
        "gated-ring"
    }

    fn init_state(&self, mpi: &Mpi) -> Result<RingState, MpiError> {
        self.inner.init_state(mpi)
    }

    fn step(&self, mpi: &Mpi, state: &mut RingState) -> Result<StepOutcome, MpiError> {
        if mpi.rank() == 2 && self.armed.swap(false, Ordering::SeqCst) {
            return Err(MpiError::PeerLost {
                detail: "injected node failure".into(),
            });
        }
        self.inner.step(mpi, state)
    }
}

#[test]
fn replica_restart_of_one_rank_decodes_in_memory() {
    let _serial = serial();
    let rounds = 40_000;
    // Ranks 0-3 on nodes 0-3, node 4 held out as the spare.
    let rt = test_runtime("inplace_replica", 5);
    let armed = Arc::new(AtomicBool::new(false));
    let app = Arc::new(GatedRing {
        inner: RingApp { rounds },
        armed: Arc::clone(&armed),
    });
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", "1");
    params.set("crcp_msg_log_enabled", "true");
    params.set("orte_spare_nodes", "1");
    let job = mpirun(&rt, app, RunConfig { nprocs: NPROCS, params }).unwrap();
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();

    armed.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(30);
    while job.failed_ranks().is_empty() {
        assert!(Instant::now() < deadline, "injected failure never reported");
        std::thread::sleep(Duration::from_millis(5));
    }
    rt.kill_daemon(NodeId(2));
    let before = node_trees(&rt);
    let outcome = job
        .restart_ranks(
            &ck.global_snapshot,
            &RestartOptions::default()
                .with_source(RestartSource::Replica)
                .with_ranks(vec![2]),
        )
        .unwrap();
    assert_eq!(outcome.replica_images, 1);
    assert_eq!(node_trees(&rt), before, "restart wrote on the nodes");
    let tracer = rt.tracer();
    assert_eq!(tracer.count_prefix("filem.replica.preload"), 1);
    assert_eq!(tracer.count_prefix("filem.preload"), 0);

    let results = job.wait().unwrap();
    let expected = reference_checksums(u64::from(NPROCS), rounds);
    for (r, (state, _)) in results.iter().enumerate() {
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }
    rt.shutdown();
}
