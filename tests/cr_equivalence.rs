//! Checkpoint/restart equivalence across workloads (DESIGN.md invariant 1):
//! for each application, a run that is checkpointed mid-flight, killed, and
//! restarted must produce exactly the fault-free answer.

use std::sync::Arc;
use std::time::Duration;

use cr_core::request::CheckpointOptions;
use ompi::app::{MpiApp, RunEnd};
use ompi::{mpirun, restart, RestartOptions, RunConfig};
use ompi_cr::test_runtime;
use workloads::master_worker::{reference_total, MasterWorkerApp};
use workloads::ring::{reference_checksums, RingApp};
use workloads::stencil::{reference_rod, StencilApp};
use workloads::traffic::{digests_agree, TrafficApp};

/// Run the app fault-free, then run it with a mid-flight
/// checkpoint+terminate and restart, and hand both results to `verify`.
fn checkpointed_equals_fault_free<A>(
    tag: &str,
    app: Arc<A>,
    nprocs: u32,
    settle: Duration,
    verify: impl Fn(&[(A::State, RunEnd)], &[(A::State, RunEnd)]),
) where
    A: MpiApp,
{
    // Fault-free reference.
    let rt = test_runtime(&format!("{tag}_ref"), 2);
    let reference = mpirun(&rt, Arc::clone(&app), RunConfig::new(nprocs))
        .unwrap()
        .wait()
        .unwrap();
    rt.shutdown();

    // Checkpoint + terminate mid-flight. A loaded machine can deschedule
    // this thread long enough for the job to reach MPI_Finalize (where
    // checkpointing is disabled) before the request strikes; retry with a
    // shorter settle instead of flaking.
    let mut settle = settle;
    let mut attempt = 0;
    let (rt, outcome) = loop {
        attempt += 1;
        let rt = test_runtime(&format!("{tag}_ckpt{attempt}"), 2);
        let job = mpirun(&rt, Arc::clone(&app), RunConfig::new(nprocs)).unwrap();
        std::thread::sleep(settle);
        match job.checkpoint(&CheckpointOptions::tool().and_terminate()) {
            Ok(outcome) => {
                job.wait().unwrap();
                break (rt, outcome);
            }
            Err(e) if attempt < 4 => {
                let _ = job.wait();
                rt.shutdown();
                settle /= 4;
                eprintln!(
                    "{tag}: checkpoint raced job completion ({e}); retrying with settle {settle:?}"
                );
            }
            Err(e) => panic!("{tag}: checkpoint failed after {attempt} attempts: {e}"),
        }
    };

    // Restart and run to completion.
    let rt2 = test_runtime(&format!("{tag}_restart"), 2);
    let job =
        restart(&rt2, Arc::clone(&app), &outcome.global_snapshot, RestartOptions::default())
            .unwrap();
    let restarted = job.wait().unwrap();
    assert_eq!(restarted.len(), reference.len());
    for (r, (_, end)) in restarted.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "{tag} rank {r} must complete");
    }
    verify(&reference, &restarted);
    rt.shutdown();
    rt2.shutdown();
}

#[test]
fn ring_equivalence() {
    let rounds = 10_000;
    let nprocs = 4;
    checkpointed_equals_fault_free(
        "eq_ring",
        Arc::new(RingApp { rounds }),
        nprocs,
        Duration::from_millis(40),
        |reference, restarted| {
            let expected = reference_checksums(u64::from(nprocs), rounds);
            for (r, ((ref_state, _), (new_state, _))) in
                reference.iter().zip(restarted).enumerate()
            {
                assert_eq!(ref_state.checksum, expected[r]);
                assert_eq!(new_state.checksum, expected[r], "rank {r}");
                assert_eq!(new_state.round, rounds);
            }
        },
    );
}

#[test]
fn stencil_equivalence() {
    let app = StencilApp {
        cells_per_rank: 48,
        iters: 600,
        left_boundary: 100.0,
        right_boundary: -25.0,
    };
    let nprocs = 4;
    let expected = reference_rod(
        nprocs as usize,
        app.cells_per_rank,
        app.iters,
        app.left_boundary,
        app.right_boundary,
    );
    let cells_per_rank = app.cells_per_rank;
    checkpointed_equals_fault_free(
        "eq_stencil",
        Arc::new(app),
        nprocs,
        Duration::from_millis(60),
        move |reference, restarted| {
            for (r, ((ref_state, _), (new_state, _))) in
                reference.iter().zip(restarted).enumerate()
            {
                let slab = &expected[r * cells_per_rank..(r + 1) * cells_per_rank];
                // The distributed answer matches the serial reference
                // bit-for-bit (same operation order), and restart matches
                // the fault-free run bit-for-bit.
                assert_eq!(ref_state.cells.as_slice(), slab, "rank {r} vs serial");
                assert_eq!(new_state.cells, ref_state.cells, "rank {r} vs restart");
                assert_eq!(new_state.residual, ref_state.residual);
            }
        },
    );
}

#[test]
fn master_worker_equivalence() {
    let tasks = 60_000;
    checkpointed_equals_fault_free(
        "eq_mw",
        Arc::new(MasterWorkerApp { tasks, wave: 64 }),
        4,
        Duration::from_millis(40),
        move |_reference, restarted| {
            // The master's total is order-insensitive (wrapping add), so it
            // must equal the serial reference regardless of completion
            // interleaving.
            assert_eq!(restarted[0].0.total, reference_total(tasks));
            assert_eq!(restarted[0].0.completed, tasks);
            // Workers' completions sum to the bag size.
            let worker_sum: u64 = restarted[1..].iter().map(|(s, _)| s.completed).sum();
            assert_eq!(worker_sum, tasks);
        },
    );
}

#[test]
fn traffic_equivalence() {
    checkpointed_equals_fault_free(
        "eq_traffic",
        Arc::new(TrafficApp {
            rounds: 2000,
            seed: 0xDEAD_BEEF,
            max_len: 128,
        }),
        5,
        Duration::from_millis(40),
        |reference, restarted| {
            let ref_states: Vec<_> = reference.iter().map(|(s, _)| s.clone()).collect();
            let new_states: Vec<_> = restarted.iter().map(|(s, _)| s.clone()).collect();
            assert!(
                digests_agree(&ref_states, &new_states),
                "digests diverged:\n{ref_states:?}\nvs\n{new_states:?}"
            );
        },
    );
}

#[test]
fn multiple_checkpoints_then_restart_from_each() {
    // Take three checkpoints of one run; every interval must independently
    // restart to the correct final answer.
    let rounds = 20_000;
    let nprocs = 3;
    let app = Arc::new(RingApp { rounds });
    let rt = test_runtime("multi_ckpt", 2);
    let job = mpirun(&rt, Arc::clone(&app), RunConfig::new(nprocs)).unwrap();
    let mut snapshots = Vec::new();
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(15));
        snapshots.push(job.checkpoint(&CheckpointOptions::tool()).unwrap());
    }
    job.request_terminate();
    job.wait().unwrap();

    let expected = reference_checksums(u64::from(nprocs), rounds);
    assert_eq!(snapshots[0].global_snapshot, snapshots[2].global_snapshot);
    assert_eq!(snapshots.iter().map(|s| s.interval).collect::<Vec<_>>(), vec![0, 1, 2]);

    for outcome in &snapshots {
        let rt2 = test_runtime(&format!("multi_ckpt_i{}", outcome.interval), 2);
        let job = restart(
            &rt2,
            Arc::clone(&app),
            &outcome.global_snapshot,
            RestartOptions {
                interval: Some(outcome.interval),
                ..RestartOptions::default()
            },
        )
        .unwrap();
        let results = job.wait().unwrap();
        for (r, (state, _)) in results.iter().enumerate() {
            assert_eq!(
                state.checksum, expected[r],
                "interval {} rank {r}",
                outcome.interval
            );
        }
        rt2.shutdown();
    }
    rt.shutdown();
}

#[test]
fn restarted_job_can_checkpoint_again() {
    // Chain: run -> checkpoint+terminate -> restart -> checkpoint+terminate
    // -> restart -> complete. Interval numbering continues monotonically.
    let rounds = 20_000;
    let nprocs = 3;
    let app = Arc::new(RingApp { rounds });

    let rt = test_runtime("chain0", 1);
    let job = mpirun(&rt, Arc::clone(&app), RunConfig::new(nprocs)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let first = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    assert_eq!(first.interval, 0);

    let rt2 = test_runtime("chain1", 1);
    let job = restart(&rt2, Arc::clone(&app), &first.global_snapshot, RestartOptions::default())
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let second = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    assert_eq!(
        second.interval, 1,
        "restarted job resumes interval numbering past the restored interval"
    );

    let rt3 = test_runtime("chain2", 1);
    let job = restart(&rt3, Arc::clone(&app), &second.global_snapshot, RestartOptions::default())
        .unwrap();
    let results = job.wait().unwrap();
    let expected = reference_checksums(u64::from(nprocs), rounds);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed);
        assert_eq!(state.checksum, expected[r], "rank {r}");
    }
    rt.shutdown();
    rt2.shutdown();
    rt3.shutdown();
}
