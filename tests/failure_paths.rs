//! Failure injection across the stack: a failed checkpoint must never
//! harm the running job, and recovery paths must report cleanly.

use std::sync::Arc;
use std::time::Duration;

use cr_core::request::CheckpointOptions;
use cr_core::{CommitState, CrError, GlobalSnapshot};
use mca::McaParams;
use netsim::NodeId;
use ompi::app::RunEnd;
use ompi::{mpirun, restart, RestartOptions, RunConfig};
use ompi_cr::test_runtime;
use proptest::prelude::*;
use workloads::ring::{reference_checksums, RingApp};

#[test]
fn failed_checkpoint_leaves_job_healthy_and_next_succeeds() {
    let rt = test_runtime("fail_then_ok", 2);
    let params = Arc::new(McaParams::new());
    // First CRS attempt on every process fails, later attempts succeed.
    params.set("crs_blcr_sim_fail_every", "1000000"); // placeholder, reset below
    params.set("crs_blcr_sim_fail_every", "1");
    let rounds = 50_000;
    let app = Arc::new(RingApp { rounds });
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: 4, params: Arc::clone(&params) })
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));

    // fail_every=1: every checkpoint attempt fails.
    let err = job.checkpoint(&CheckpointOptions::tool()).unwrap_err();
    assert!(err.to_string().contains("injected failure"));

    // The job is entirely unharmed: no committed interval...
    if let Ok(g) = GlobalSnapshot::open(&job.handle().global_snapshot_path()) {
        assert!(g.intervals().is_empty());
    }
    // ...and it runs to the correct completion.
    job.request_terminate();
    let results = job.wait().unwrap();
    assert!(results
        .iter()
        .all(|(_, end)| matches!(end, RunEnd::Completed | RunEnd::Terminated)));
    rt.shutdown();
}

#[test]
fn alternating_failures_every_other_checkpoint_succeeds() {
    let rt = test_runtime("alternating", 1);
    let params = Arc::new(McaParams::new());
    params.set("crs_blcr_sim_fail_every", "2"); // 2nd, 4th, ... attempts fail
    let app = Arc::new(RingApp { rounds: 500_000 });
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: 2, params }).unwrap();
    std::thread::sleep(Duration::from_millis(30));

    // Attempt 1 per process succeeds.
    let first = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert_eq!(first.interval, 0);
    // Attempt 2 per process fails.
    assert!(job.checkpoint(&CheckpointOptions::tool()).is_err());
    // Attempt 3 succeeds; interval numbering skips nothing visible.
    let third = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert_eq!(third.interval, 1);

    let global = GlobalSnapshot::open(&first.global_snapshot).unwrap();
    assert_eq!(global.intervals(), vec![0, 1]);

    job.request_terminate();
    job.wait().unwrap();
    rt.shutdown();
}

#[test]
fn restart_from_corrupted_context_fails_loudly() {
    let rt = test_runtime("corrupt", 1);
    let app = Arc::new(RingApp { rounds: 200_000 });
    let job = mpirun(&rt, Arc::clone(&app), RunConfig::new(2)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();

    // Flip one byte in rank 1's context file.
    let global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
    let local = global.local_snapshot(outcome.interval, cr_core::Rank(1)).unwrap();
    let path = local.context_path();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();

    let rt2 = test_runtime("corrupt_restart", 1);
    let err = match restart(&rt2, app, &outcome.global_snapshot, RestartOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("restart from corrupted snapshot must fail"),
    };
    assert!(
        matches!(err, CrError::Codec(codec::Error::ChecksumMismatch { .. })),
        "wanted checksum mismatch, got: {err}"
    );
    rt.shutdown();
    rt2.shutdown();
}

#[test]
fn restart_from_missing_interval_fails_loudly() {
    let rt = test_runtime("noiv", 1);
    let app = Arc::new(RingApp { rounds: 200_000 });
    let job = mpirun(&rt, Arc::clone(&app), RunConfig::new(2)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();

    let rt2 = test_runtime("noiv_restart", 1);
    // Interval 7 was never committed.
    let err = match restart(
        &rt2,
        Arc::clone(&app),
        &outcome.global_snapshot,
        RestartOptions {
            interval: Some(7),
            ..RestartOptions::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("restart from uncommitted interval must fail"),
    };
    assert!(err.to_string().contains("never committed"));
    // Restarting from the real interval still works afterwards.
    let job =
        restart(&rt2, Arc::clone(&app), &outcome.global_snapshot, RestartOptions::default())
            .unwrap();
    let results = job.wait().unwrap();
    let expected = reference_checksums(2, 200_000);
    assert_eq!(results[0].0.checksum, expected[0]);
    rt.shutdown();
    rt2.shutdown();
}

#[test]
fn restart_from_nonexistent_reference_fails_loudly() {
    let rt = test_runtime("noref", 1);
    let err = match restart(
        &rt,
        Arc::new(RingApp { rounds: 1 }),
        std::path::Path::new("/definitely/not/a/snapshot.ckpt"),
        RestartOptions::default(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("must fail"),
    };
    assert!(matches!(err, CrError::BadSnapshot { .. }));
    rt.shutdown();
}

#[test]
fn mid_gather_node_failure_falls_back_to_last_global_commit() {
    // Early-release pipeline: interval 0 is fully gathered (globally
    // committed), interval 1's gather loses a source node between local
    // and global commit. Restart must ignore interval 1 and restore the
    // newest globally committed interval, 0.
    let rt = test_runtime("mid_gather", 2);
    let rounds = 150_000;
    let app = Arc::new(RingApp { rounds });
    let params = Arc::new(McaParams::new());
    params.set("snapc_early_release", "true");
    params.set("snapc_gather_delay_ms", "400"); // fault window for the kill below
    let job = mpirun(
        &rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: 4,
            params,
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));

    let first = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert_eq!(first.stats.commit, CommitState::LocalCommitted);
    rt.drain_writebehind(); // interval 0 reaches stable storage

    let second = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    assert_eq!(second.interval, first.interval + 1);
    job.wait().unwrap();
    // Node 1 dies inside the gather's fault window: rank scratch on it is
    // now unreachable, so interval 1 can never be promoted.
    rt.kill_daemon(NodeId(1));

    // `restart` first joins the in-flight gather (which aborts on the
    // dead source), then selects the newest *globally* committed
    // interval.
    let restarted =
        restart(&rt, Arc::clone(&app), &second.global_snapshot, RestartOptions::default())
            .unwrap();
    let results = restarted.wait().unwrap();

    let global = GlobalSnapshot::open(&second.global_snapshot).unwrap();
    assert_eq!(global.intervals(), vec![first.interval]);
    assert_eq!(global.commit_state(first.interval), CommitState::GlobalCommitted);
    assert_eq!(global.commit_state(second.interval), CommitState::LocalCommitted);
    assert!(rt.tracer().count_prefix("filem.gather.error") > 0);

    // The restart restored interval 0 and still computed the fault-free
    // answer.
    let expected = reference_checksums(4, rounds);
    for (r, (state, end)) in results.iter().enumerate() {
        assert_eq!(*end, RunEnd::Completed, "rank {r}");
        assert_eq!(state.checksum, expected[r], "rank {r} checksum");
    }
    rt.shutdown();
}

proptest! {
    /// Early release never lets a restart read a partially gathered
    /// interval: whatever mix of promoted and local-only intervals exists,
    /// the restart-facing accessors expose exactly the promoted ones.
    #[test]
    fn restart_never_sees_partially_gathered_intervals(promotions in proptest::collection::vec(any::<bool>(), 1..8)) {
        let dir = std::env::temp_dir().join(format!(
            "failure_paths_prop_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let launch = cr_core::LaunchRecord::default();
        let mut global = GlobalSnapshot::create(&dir, cr_core::JobId(9), 2, &launch).unwrap();
        let record = cr_core::IntervalRecord::default();
        let mut promoted = Vec::new();
        let mut local_only = Vec::new();
        // Every step is one whole-file replace, so what a restart (a fresh
        // reader of the directory) sees after it is what the writer holds.
        let reopen = |global: &GlobalSnapshot| GlobalSnapshot::open(global.dir()).unwrap();
        for promote in &promotions {
            let (interval, _) = global.begin_interval().unwrap();
            global.local_commit_interval(interval, &record).unwrap();
            local_only.push(interval);
            prop_assert_eq!(reopen(&global).intervals(), promoted.clone());
            prop_assert_eq!(reopen(&global).local_committed_intervals(), local_only.clone());
            if *promote {
                global.promote_interval(interval, "waves=1").unwrap();
                local_only.pop();
                promoted.push(interval);
                prop_assert_eq!(reopen(&global).intervals(), promoted.clone());
                prop_assert_eq!(reopen(&global).local_committed_intervals(), local_only.clone());
            }
        }
        for global in [&global, &reopen(&global)] {
            prop_assert_eq!(global.intervals(), promoted.clone());
            prop_assert_eq!(global.latest_interval(), promoted.last().copied());
            prop_assert_eq!(global.local_committed_intervals(), local_only.clone());
            for interval in &local_only {
                prop_assert_eq!(global.commit_state(*interval), CommitState::LocalCommitted);
                let err = global.local_snapshots(*interval).unwrap_err();
                prop_assert!(err.to_string().contains("never committed"));
            }
            for interval in &promoted {
                prop_assert_eq!(global.commit_state(*interval), CommitState::GlobalCommitted);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn mid_job_opt_out_window() {
    // A process flips checkpointability off and on; requests during the
    // window fail atomically, requests after succeed.
    let rt = test_runtime("optout_window", 1);
    let app = Arc::new(RingApp { rounds: 2_000_000 });
    let job = mpirun(&rt, Arc::clone(&app), RunConfig::new(3)).unwrap();
    std::thread::sleep(Duration::from_millis(30));

    job.handle().container(cr_core::Rank(1)).set_checkpointable(false);
    let err = job.checkpoint(&CheckpointOptions::tool()).unwrap_err();
    match err {
        CrError::NotCheckpointable { ranks } => assert_eq!(ranks, vec![cr_core::Rank(1)]),
        other => panic!("unexpected {other}"),
    }

    job.handle().container(cr_core::Rank(1)).set_checkpointable(true);
    let outcome = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert_eq!(outcome.interval, 0);

    job.request_terminate();
    job.wait().unwrap();
    rt.shutdown();
}
