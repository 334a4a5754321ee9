//! Experiment E5: the modularity claim. Every CRS × CRCP × SNAPC × FILEM
//! combination is selected purely through MCA parameters — no recompilation,
//! no code changes — and each combination checkpoint/restarts the same
//! application to the same answer.

use std::sync::Arc;

use cr_core::request::CheckpointOptions;
use mca::McaParams;
use ompi::app::RunEnd;
use ompi::{mpirun, restart, RestartOptions, RunConfig};
use ompi_cr::test_runtime;
use workloads::ring::{reference_checksums, RingApp};

const NPROCS: u32 = 4;
const ROUNDS: u64 = 20_000;

fn run_combination(crs: &str, crcp: &str, snapc: &str, filem: &str) {
    let tag = format!("matrix_{crs}_{crcp}_{snapc}_{filem}");
    let rt = test_runtime(&tag, 2);
    let app = Arc::new(RingApp { rounds: ROUNDS });

    let params = Arc::new(McaParams::new());
    params.set("crs", crs);
    params.set("crcp", crcp);
    params.set("snapc", snapc);
    params.set("filem", filem);

    let job = mpirun(
        &rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: NPROCS,
            params,
        },
    )
    .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap_or_else(|e| panic!("checkpoint with {tag} failed: {e}"));
    job.wait().unwrap();
    // filem=replica commits to peer memory and drains to stable storage
    // behind the job's back; the fresh-host restart below reads stable
    // files, so join the drain first (no-op for the other components).
    rt.drain_writebehind();

    // Restart on a *different* cluster shape (3 nodes instead of 2): the
    // snapshot reference alone must be enough.
    let rt2 = test_runtime(&format!("{tag}_restart"), 3);
    let job =
        restart(&rt2, Arc::clone(&app), &outcome.global_snapshot, RestartOptions::default())
            .unwrap_or_else(|e| panic!("restart with {tag} failed: {e}"));
    let results = job.wait().unwrap();

    let expected = reference_checksums(u64::from(NPROCS), ROUNDS);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "{tag} rank {r}");
        assert_eq!(state.round, ROUNDS, "{tag} rank {r}");
        assert_eq!(state.checksum, expected[r], "{tag} rank {r} checksum");
    }
    rt.shutdown();
    rt2.shutdown();
}

// The matrix, one test per combination so failures localize.
// CRS: blcr_sim | self; CRCP: coord (`none` coordinates nothing, so a
// checkpoint under it is not restartable in general); SNAPC: full | tree;
// FILEM: rsh_sim | replica. Every CRS and every FILEM is crossed with
// `full`; `tree` runs the same gather tail, so two rows cover it.

#[test]
fn blcr_coord_full_rsh() {
    run_combination("blcr_sim", "coord", "full", "rsh_sim");
}

#[test]
fn blcr_coord_full_replica() {
    run_combination("blcr_sim", "coord", "full", "replica");
}

#[test]
fn self_coord_full_rsh() {
    run_combination("self", "coord", "full", "rsh_sim");
}

#[test]
fn self_coord_full_replica() {
    run_combination("self", "coord", "full", "replica");
}

#[test]
fn crs_none_refuses_whole_job_checkpoint() {
    let rt = test_runtime("matrix_none", 1);
    let params = Arc::new(McaParams::new());
    params.set("crs", "none");
    let app = Arc::new(RingApp { rounds: 100_000 });
    let job = mpirun(
        &rt,
        app,
        RunConfig {
            nprocs: 2,
            params,
        },
    )
    .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let err = job.checkpoint(&CheckpointOptions::tool()).unwrap_err();
    assert!(matches!(err, cr_core::CrError::NotCheckpointable { .. }));
    // The job is unharmed: it still terminates cleanly.
    job.request_terminate();
    job.wait().unwrap();
    rt.shutdown();
}

#[test]
fn blcr_coord_tree_rsh() {
    run_combination("blcr_sim", "coord", "tree", "rsh_sim");
}

#[test]
fn self_coord_tree_rsh() {
    run_combination("self", "coord", "tree", "rsh_sim");
}
