//! Ablation A9: pipelined checkpoint commit — blocking vs early-release
//! app stall.
//!
//! One deterministic assertion gates this bench: at 8 ranks, a request
//! with `snapc_early_release=true` returns before the interval's first
//! `filem.gather` event (the gather runs concurrently with resumed app
//! progress), and a blocking request returns after it.
//!
//! `CKPT_OVERLAP_SMOKE=1` (used by `scripts/check.sh`) skips the
//! criterion sampling after the assertion. When `BENCH_COMMIT_JSON`
//! names a path, the blocking-vs-early comparison is written there as
//! JSON (`BENCH_commit.json`).

use std::sync::Arc;
use std::time::Duration;

use cr_core::inc::LayerInc;
use cr_core::request::{CheckpointOptions, CheckpointOutcome};
use cr_core::CommitState;
use criterion::{criterion_group, criterion_main, Criterion};
use mca::McaParams;
use netsim::{LinkSpec, Topology};
use opal::crs::{crs_framework, SelfCallbacks};
use orte::job::{launch, JobSpec, LaunchCtx};
use orte::Runtime;

const NODES: u32 = 4;
const NPROCS: u32 = 8;
const RANK_STATE_BYTES: usize = 256 << 10; // 256 KiB per rank

/// Spinning checkpointable job with a bulk `app` capture section (same
/// shape as the SNAPC test harness), whose early-release gather waits
/// `gather_delay_ms` before it starts.
fn launch_job(rt: &Runtime, early_release: bool, gather_delay_ms: u64) -> orte::JobHandle {
    let params = Arc::new(McaParams::new());
    params.set(
        "snapc_early_release",
        if early_release { "true" } else { "false" },
    );
    params.set("snapc_gather_delay_ms", &gather_delay_ms.to_string());
    let proc_main: orte::job::ProcMain = Arc::new(move |ctx: LaunchCtx| {
        let fw = crs_framework(SelfCallbacks::new());
        ctx.container
            .set_crs(Arc::from(fw.select(&ctx.params).unwrap()));
        let rank = ctx.name.rank.index() as u8;
        ctx.container.register_capture(
            "app",
            Arc::new(move || {
                Ok((0..RANK_STATE_BYTES)
                    .map(|i| (i as u8).wrapping_mul(29).wrapping_add(rank))
                    .collect())
            }),
        );
        ctx.container
            .install_opal_inc(LayerInc::new("opal", ctx.runtime.tracer().clone()));
        ctx.container.enable_checkpointing();
        while !ctx.terminate.load(std::sync::atomic::Ordering::SeqCst) {
            ctx.container.gate().checkpoint_point();
            std::thread::yield_now();
        }
        ctx.container.gate().retire();
    });
    let handle = launch(rt, JobSpec::new(NPROCS, params, proc_main)).expect("launch");
    for r in 0..NPROCS {
        while handle.container(cr_core::Rank(r)).crs().is_none() {
            std::thread::yield_now();
        }
    }
    handle
}

/// One checkpoint of an 8-rank job, blocking or early-release. Returns
/// the outcome after the write-behind gather (if any) has fully drained,
/// so both configurations leave an identical restorable snapshot behind,
/// and whether the request returned before the interval's first
/// `filem.gather` event.
fn one_checkpoint(
    base: &std::path::Path,
    early_release: bool,
    gather_delay_ms: u64,
) -> (CheckpointOutcome, bool) {
    let rt = Runtime::new(Topology::uniform(NODES, LinkSpec::gigabit_ethernet()), base)
        .expect("runtime");
    let handle = launch_job(&rt, early_release, gather_delay_ms);
    let outcome = handle
        .checkpoint(&CheckpointOptions::tool())
        .expect("checkpoint");
    let returned_at = rt.tracer().events().len();
    handle.request_terminate();
    handle.join().expect("join");
    rt.drain_writebehind();
    let gathered_at = rt
        .tracer()
        .events()
        .iter()
        .position(|e| e.phase == "filem.gather")
        .expect("the interval is gathered");
    rt.shutdown();
    (outcome, returned_at <= gathered_at)
}

/// One side of the comparison, as a JSON object.
fn side(outcome: &CheckpointOutcome, returned_before_gather: bool) -> String {
    format!(
        "{{ \"returned_before_gather\": {returned_before_gather}, \"bytes_moved\": {}, \
         \"commit\": \"{}\" }}",
        outcome.stats.bytes_moved, outcome.stats.commit,
    )
}

fn write_json(path: &str, blocking: &str, early: &str) {
    let json = format!(
        "{{\n  \"ranks\": {NPROCS},\n  \"state_bytes_per_rank\": {RANK_STATE_BYTES},\n  \
         \"blocking\": {blocking},\n  \"early_release\": {early}\n}}\n",
    );
    std::fs::write(path, json).expect("write BENCH_commit.json");
    println!("ckpt_overlap: wrote {path}");
}

fn ckpt_overlap(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("bench_ckpt_overlap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // The early-release gather is held back 50 ms, so that a requester the
    // host deschedules for a moment still returns first when the request
    // does not wait for the gather.
    let (blocking, blocking_first) = one_checkpoint(&base.join("blocking"), false, 0);
    let (early, early_first) = one_checkpoint(&base.join("early"), true, 50);

    println!(
        "ckpt_overlap: blocking returned before its gather: {blocking_first} ({}), \
         early-release: {early_first} ({})",
        blocking.stats.commit, early.stats.commit
    );
    assert_eq!(blocking.stats.commit, CommitState::GlobalCommitted);
    assert_eq!(early.stats.commit, CommitState::LocalCommitted);
    assert!(!blocking_first, "a blocking request returns after its gather");
    assert!(
        early_first,
        "an early-release request returns before its gather at {NPROCS} ranks"
    );

    if let Ok(path) = std::env::var("BENCH_COMMIT_JSON") {
        write_json(&path, &side(&blocking, blocking_first), &side(&early, early_first));
    }

    if std::env::var("CKPT_OVERLAP_SMOKE").is_ok() {
        println!("ckpt_overlap smoke: assertions passed (criterion sampling skipped)");
        return;
    }

    let mut group = c.benchmark_group("ckpt_overlap");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("blocking_commit", |b| {
        b.iter(|| one_checkpoint(&base.join("bench_blocking"), false, 0))
    });
    group.bench_function("early_release_commit", |b| {
        b.iter(|| one_checkpoint(&base.join("bench_early"), true, 0))
    });
    group.finish();
}

criterion_group!(benches, ckpt_overlap);
criterion_main!(benches);
