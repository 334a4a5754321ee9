//! Tentpole acceptance for the replicated in-memory snapshot store: with
//! `filem = replica` and ring factor `k`, a job survives the loss of any
//! `k` nodes and restarts purely from surviving peer-memory replicas —
//! even with stable storage gone. Losing more than `k` holders (or the
//! whole host process) falls back per rank to stable storage, and
//! expiring an interval reclaims both the stable files and the peer
//! memory.

use std::sync::Arc;
use std::time::Duration;

use cr_core::request::CheckpointOptions;
use cr_core::{GlobalSnapshot, Rank};
use mca::McaParams;
use netsim::NodeId;
use ompi::{mpirun, restart, RestartOptions, RestartSource, RunConfig};
use ompi_cr::test_runtime;
use workloads::ring::RingApp;

const NPROCS: u32 = 4;

/// Each test here spins a 4-rank job; running them concurrently on a
/// small host starves the spinning ranks until OOB replies time out.
/// Run the file's tests one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn replica_params(factor: u32) -> Arc<McaParams> {
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", &factor.to_string());
    params
}

/// Launch a long ring job with the replica file mover, checkpoint it with
/// terminate-after, and wait it out. Returns the checkpoint outcome.
fn checkpoint_ring(
    rt: &orte::Runtime,
    factor: u32,
) -> cr_core::request::CheckpointOutcome {
    let job = mpirun(
        rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        RunConfig {
            nprocs: NPROCS,
            params: replica_params(factor),
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    outcome
}

#[test]
fn restart_survives_k_node_losses_without_stable_storage() {
    let _serial = serial();
    let rt = test_runtime("replica_k_losses", 4);
    let outcome = checkpoint_ring(&rt, 2);
    rt.drain_writebehind();

    // Stable storage becomes unavailable: the drained interval files are
    // gone entirely. Only peer memory can serve this restart.
    let global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
    std::fs::remove_dir_all(global.interval_dir(outcome.interval)).unwrap();

    // Lose any k = 2 nodes. With factor 2 every image lives on 3 of the
    // 4 nodes, so at least one holder survives per rank.
    rt.kill_daemon(NodeId(1));
    rt.kill_daemon(NodeId(2));

    rt.tracer().clear();
    let job = restart(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        &outcome.global_snapshot,
        RestartOptions::default().with_source(RestartSource::Replica),
    )
    .unwrap();
    job.handle().request_terminate();
    let results = job.wait().unwrap();
    assert_eq!(results.len(), NPROCS as usize);

    let tracer = rt.tracer();
    assert!(tracer.count_prefix("filem.replica.preload") > 0);
    assert_eq!(
        tracer.count_prefix("filem.preload"),
        0,
        "a replica-only restart must never touch stable storage"
    );
    rt.shutdown();
}

#[test]
fn losing_more_than_k_holders_falls_back_to_stable() {
    let _serial = serial();
    let rt = test_runtime("replica_fallback", 4);
    let outcome = checkpoint_ring(&rt, 1);

    // Factor 1 puts rank 1's image on nodes {1, 2} only; killing both
    // leaves that rank with no surviving holder.
    rt.kill_daemon(NodeId(1));
    rt.kill_daemon(NodeId(2));

    // A replica-only restart must refuse...
    let err = match restart(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        &outcome.global_snapshot,
        RestartOptions::default().with_source(RestartSource::Replica),
    ) {
        Err(e) => e,
        Ok(_) => panic!("replica-only restart must fail with a holder-less rank"),
    };
    assert!(err.to_string().contains("no surviving replica holder"), "{err}");

    // ...while auto serves the survivors from memory and only the
    // orphaned ranks from stable storage.
    rt.tracer().clear();
    let job = restart(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        &outcome.global_snapshot,
        RestartOptions::default(),
    )
    .unwrap();
    job.handle().request_terminate();
    let results = job.wait().unwrap();
    assert_eq!(results.len(), NPROCS as usize);

    let tracer = rt.tracer();
    assert!(tracer.count_prefix("filem.replica.preload") > 0, "memory path used");
    assert!(tracer.count_prefix("filem.preload") > 0, "stable fallback used");
    rt.shutdown();
}

#[test]
fn fresh_host_process_restarts_from_stable() {
    let _serial = serial();
    let rt = test_runtime("replica_fresh_ckpt", 4);
    let outcome = checkpoint_ring(&rt, 1);
    // Shutdown joins the write-behind drains, so stable storage is
    // complete before the host process "dies".
    rt.shutdown();

    // A brand-new host process has empty daemon replica stores; every
    // rank must come from stable storage — transparently.
    let rt2 = test_runtime("replica_fresh_restart", 4);
    let job = restart(
        &rt2,
        Arc::new(RingApp { rounds: 1_000_000 }),
        &outcome.global_snapshot,
        RestartOptions::default(),
    )
    .unwrap();
    job.handle().request_terminate();
    let results = job.wait().unwrap();
    assert_eq!(results.len(), NPROCS as usize);

    let tracer = rt2.tracer();
    assert_eq!(tracer.count_prefix("filem.replica.preload"), 0);
    assert!(tracer.count_prefix("filem.preload") > 0);
    rt2.shutdown();
}

#[test]
fn expired_interval_reclaims_stable_and_replica_storage() {
    let _serial = serial();
    let rt = test_runtime("replica_expire", 4);
    let job = mpirun(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        RunConfig {
            nprocs: NPROCS,
            params: replica_params(1),
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let first = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let second = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    rt.drain_writebehind();
    assert_ne!(first.interval, second.interval);

    let mut global = GlobalSnapshot::open(&second.global_snapshot).unwrap();
    let job_id = global.job();
    let holds_interval = |interval: u64| {
        orte::replica::replica_inventory(&rt, job_id)
            .iter()
            .any(|(_, entries)| entries.iter().any(|(i, _)| *i == interval))
    };
    assert!(holds_interval(first.interval), "older interval replicated");
    assert!(holds_interval(second.interval), "newer interval replicated");

    // Expire the older global snapshot: peer memory and stable files of
    // that interval are both reclaimed, the newer interval is untouched.
    let removed = orte::replica::expire_replicas(&rt, job_id, first.interval);
    assert!(removed > 0, "peer-memory entries reclaimed");
    global.retire_interval(first.interval).unwrap();

    assert!(!holds_interval(first.interval), "no replica entries linger");
    assert!(holds_interval(second.interval), "newer replicas survive");
    assert!(
        !global.interval_dir(first.interval).exists(),
        "stable files of the retired interval are gone"
    );
    assert!(!global.intervals().contains(&first.interval));
    assert!(global.replica_holders(first.interval, Rank(0)).is_empty());

    // The surviving interval still restores — from peer memory.
    let restarted = restart(
        &rt,
        Arc::new(RingApp { rounds: 1_000_000 }),
        &second.global_snapshot,
        RestartOptions::default().with_source(RestartSource::Replica),
    )
    .unwrap();
    restarted.handle().request_terminate();
    assert_eq!(restarted.wait().unwrap().len(), NPROCS as usize);
    rt.shutdown();
}
