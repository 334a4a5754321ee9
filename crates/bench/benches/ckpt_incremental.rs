//! Full-image vs dedup checkpointing: bytes moved and simulated
//! checkpoint time.
//!
//! With `filem_dedup_enabled` the context writer manifests every capture
//! section in fixed-size chunks and the commit moves only chunks the
//! content-addressed store has never seen. This bench runs the same
//! two-interval schedule twice — dedup off and on — dirtying 10% of every
//! rank's section bytes between the intervals, and asserts the
//! paper-motivating shape deterministically:
//!
//! * the 10%-dirty dedup interval moves **< 25%** of the full-image bytes
//!   (and of its own cold first interval, so the saving is the dirty
//!   fraction, not an encoding difference),
//! * its simulated checkpoint time is **strictly below** the full-image
//!   time at the same state size.
//!
//! With `CKPT_DEDUP_SMOKE=1` a second dedup schedule runs on an
//! SPMD-shaped workload (every rank's state identical except an 8-byte
//! header), asserting a **≥ 2×** cross-rank dedup ratio and that the
//! simulated cost of restoring the newest interval stays flat as retained
//! intervals grow — the restart-latency-vs-retained-intervals table.
//!
//! `CKPT_INCREMENTAL_SMOKE=1` (used by `scripts/check.sh`) skips the
//! criterion sampling after the assertions. When `BENCH_CKPT_JSON` names
//! a path, the full-vs-dedup comparison (plus the SPMD columns when they
//! ran) is written there as JSON.
//!
//! `RANK_STATE_BYTES` is 1 MiB so chunking (4 KiB default) has real work;
//! the dirty region is contiguous, the stencil-halo access pattern.

use std::sync::Arc;
use std::time::Duration;

use cr_core::inc::LayerInc;
use cr_core::request::{CheckpointOptions, CheckpointOutcome};
use criterion::{criterion_group, criterion_main, Criterion};
use mca::McaParams;
use netsim::{LinkSpec, Topology};
use opal::crs::{crs_framework, SelfCallbacks};
use orte::job::{launch, JobSpec, LaunchCtx};
use orte::Runtime;
use std::sync::Mutex;

const NODES: u32 = 4;
const NPROCS: u32 = 4;
const RANK_STATE_BYTES: usize = 1 << 20; // 1 MiB per rank
const DIRTY_FRACTION_PCT: usize = 10;

type SharedState = Arc<Vec<Mutex<Vec<u8>>>>;

/// Deterministic per-rank state with no repeated chunk content (within a
/// rank or across ranks), so every byte dedup saves on this schedule
/// comes from the clean fraction of the previous interval.
fn fresh_state() -> SharedState {
    Arc::new(
        (0..NPROCS)
            .map(|r| {
                Mutex::new(
                    (0..RANK_STATE_BYTES as u64)
                        .map(|i| {
                            let word = (i ^ (u64::from(r) << 40)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            (word >> 56) as u8
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// SPMD-shaped per-rank state: the same byte ramp on every rank, with an
/// 8-byte rank-unique header — the workload shape where cross-rank dedup
/// pays (paper §7's SPMD applications checkpoint near-identical images).
fn fresh_spmd_state() -> SharedState {
    let base: Vec<u8> = (0..RANK_STATE_BYTES)
        .map(|i| (i as u8).wrapping_mul(31))
        .collect();
    Arc::new(
        (0..NPROCS)
            .map(|r| {
                let mut buf = base.clone();
                buf[..8].copy_from_slice(&u64::from(r).to_le_bytes());
                Mutex::new(buf)
            })
            .collect(),
    )
}

/// Overwrite a contiguous `DIRTY_FRACTION_PCT`% of every rank's state with
/// generation-tagged bytes, starting at a generation-dependent offset so
/// consecutive intervals dirty different chunks.
fn dirty_state(state: &SharedState, generation: u8) {
    let span = RANK_STATE_BYTES * DIRTY_FRACTION_PCT / 100;
    let start = (generation as usize * span) % (RANK_STATE_BYTES - span);
    for cell in state.iter() {
        let mut buf = cell.lock().expect("state lock");
        for b in &mut buf[start..start + span] {
            *b = b.wrapping_add(generation).wrapping_mul(167).wrapping_add(1);
        }
    }
}

/// Spinning checkpointable job whose `app` capture section serves the
/// shared per-rank buffers (same shape as the SNAPC test harness, with
/// bulk state instead of a label string).
fn launch_job(rt: &Runtime, state: &SharedState, dedup: bool) -> orte::JobHandle {
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", "1");
    params.set("filem_dedup_enabled", if dedup { "true" } else { "false" });
    let proc_state = Arc::clone(state);
    let proc_main: orte::job::ProcMain = Arc::new(move |ctx: LaunchCtx| {
        let fw = crs_framework(SelfCallbacks::new());
        ctx.container
            .set_crs(Arc::from(fw.select(&ctx.params).unwrap()));
        let rank = ctx.name.rank.index();
        let st = Arc::clone(&proc_state);
        ctx.container
            .register_capture(
                "app",
                Arc::new(move || Ok(st[rank].lock().expect("state lock").clone())),
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

/// Run the two-interval schedule (cold first interval, then a 10%-dirty
/// one) and return both outcomes.
fn two_intervals(base: &std::path::Path, dedup: bool) -> (CheckpointOutcome, CheckpointOutcome) {
    let rt = Runtime::new(Topology::uniform(NODES, LinkSpec::gigabit_ethernet()), base)
        .expect("runtime");
    let state = fresh_state();
    let handle = launch_job(&rt, &state, dedup);
    let first = handle.checkpoint(&CheckpointOptions::tool()).expect("interval 0");
    dirty_state(&state, 1);
    let second = handle.checkpoint(&CheckpointOptions::tool()).expect("interval 1");
    handle.request_terminate();
    handle.join().expect("join");
    rt.drain_writebehind();
    rt.shutdown();
    (first, second)
}

/// One row of the restart-latency-vs-retained-intervals table: restoring
/// the newest interval is a single manifest fetch (simulated
/// `dedup_sim_ns`) however many older intervals are still retained.
struct RestartRow {
    retained: usize,
    dedup_sim_ns: u64,
}

const DEDUP_INTERVALS: u64 = 4;

/// Run a `DEDUP_INTERVALS`-interval SPMD schedule through the dedup store
/// and measure the deterministic simulated cost of restoring the newest
/// interval from peer memory with every interval retained, then again
/// after retiring the oldest, and so on down to the newest alone.
/// Returns the schedule's outcomes plus the table rows, fewest retained
/// first.
fn spmd_dedup_restart(base: &std::path::Path) -> (Vec<CheckpointOutcome>, Vec<RestartRow>) {
    let rt = Runtime::new(Topology::uniform(NODES, LinkSpec::gigabit_ethernet()), base)
        .expect("runtime");
    let state = fresh_spmd_state();
    let handle = launch_job(&rt, &state, true);
    let mut outcomes = Vec::new();
    for i in 0..DEDUP_INTERVALS {
        if i > 0 {
            dirty_state(&state, i as u8);
        }
        outcomes.push(handle.checkpoint(&CheckpointOptions::tool()).expect("dedup interval"));
    }
    handle.request_terminate();
    handle.join().expect("join");
    rt.drain_writebehind();

    let newest = DEDUP_INTERVALS - 1;
    let mut global = cr_core::GlobalSnapshot::open(&outcomes[newest as usize].global_snapshot)
        .expect("open dedup global");
    let job_id = global.job();
    let mut rows = Vec::new();
    for retired in 0..DEDUP_INTERVALS {
        if retired > 0 {
            orte::store::retire_dedup_interval(&rt, job_id, &mut global, retired - 1, 64)
                .expect("retire oldest interval");
        }
        let store = orte::store::SnapshotStore::open(&rt, job_id, global.dir()).expect("store");
        let mut sim = netsim::SimTime::ZERO;
        for r in 0..NPROCS {
            let manifest = codec::ChunkManifest::parse(
                global
                    .chunk_manifest(newest, cr_core::Rank(r))
                    .expect("manifest"),
            )
            .expect("parse manifest");
            let (_, stats) = store
                .fetch_image(&manifest, orte::store::ChunkSource::ReplicaOnly, true)
                .expect("dedup fetch");
            sim += stats.sim_cost;
        }
        rows.push(RestartRow {
            retained: (DEDUP_INTERVALS - retired) as usize,
            dedup_sim_ns: sim.as_nanos(),
        });
    }
    rows.reverse();
    rt.shutdown();
    (outcomes, rows)
}

fn write_json(
    path: &str,
    full: &CheckpointOutcome,
    dedup_cold: &CheckpointOutcome,
    dedup: &CheckpointOutcome,
    spmd: Option<(&[CheckpointOutcome], &[RestartRow])>,
) {
    let mut json = format!(
        "{{\n  \"state_bytes_per_rank\": {},\n  \"ranks\": {},\n  \"dirty_fraction_pct\": {},\n  \
         \"full\": {{ \"bytes_moved\": {}, \"sim_ns\": {} }},\n  \
         \"dedup_dirty\": {{ \"cold_bytes_moved\": {}, \"bytes_moved\": {}, \"sim_ns\": {} }},\n  \
         \"bytes_ratio\": {:.4},\n  \"sim_ratio\": {:.4}",
        RANK_STATE_BYTES,
        NPROCS,
        DIRTY_FRACTION_PCT,
        full.stats.bytes_moved,
        full.stats.sim_ns,
        dedup_cold.stats.bytes_moved,
        dedup.stats.bytes_moved,
        dedup.stats.sim_ns,
        dedup.stats.bytes_moved as f64 / full.stats.bytes_moved as f64,
        dedup.stats.sim_ns as f64 / full.stats.sim_ns as f64,
    );
    if let Some((outcomes, rows)) = spmd {
        let newest = &outcomes[outcomes.len() - 1];
        json.push_str(&format!(
            ",\n  \"cross_rank_dedup_ratio\": {:.4},\n  \
             \"dedup\": {{ \"bytes_moved\": {}, \"sim_ns\": {}, \"dedup_ratio\": {:.4} }},\n  \
             \"restart_vs_retained\": [\n",
            outcomes[0].stats.dedup_ratio,
            newest.stats.bytes_moved,
            newest.stats.sim_ns,
            newest.stats.dedup_ratio,
        ));
        for (i, row) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"retained\": {}, \"dedup_sim_ns\": {}}}{}\n",
                row.retained,
                row.dedup_sim_ns,
                if i + 1 == rows.len() { "" } else { "," },
            ));
        }
        json.push_str("  ]");
    }
    json.push_str("\n}\n");
    std::fs::write(path, json).expect("write BENCH_ckpt.json");
    println!("ckpt_incremental: wrote {path}");
}

fn ckpt_incremental(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("bench_ckpt_incremental_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let (_, full_second) = two_intervals(&base.join("full"), false);
    let (dedup_first, dedup_second) = two_intervals(&base.join("dedup"), true);

    // Both runs captured identical state; interval 1 is the 10%-dirty one.
    println!(
        "ckpt_incremental: full interval moved {} bytes (sim {} ns), \
         dedup interval moved {} bytes (sim {} ns; cold interval {} bytes)",
        full_second.stats.bytes_moved, full_second.stats.sim_ns,
        dedup_second.stats.bytes_moved, dedup_second.stats.sim_ns,
        dedup_first.stats.bytes_moved
    );
    assert!(
        dedup_second.stats.bytes_moved * 4 < full_second.stats.bytes_moved,
        "a 10%-dirty dedup interval must move < 25% of the full-image bytes \
         (dedup={}, full={})",
        dedup_second.stats.bytes_moved,
        full_second.stats.bytes_moved
    );
    assert!(
        dedup_second.stats.sim_ns < full_second.stats.sim_ns,
        "simulated dedup checkpoint time must be strictly below the \
         full-image time (dedup={} ns, full={} ns)",
        dedup_second.stats.sim_ns,
        full_second.stats.sim_ns
    );
    // The cold interval has nothing to dedup against and moves every
    // state byte; the dirty interval's saving is measured against that
    // too, so it is the dirty fraction and not an encoding difference.
    assert!(
        dedup_first.stats.bytes_moved >= (NPROCS as usize * RANK_STATE_BYTES) as u64,
        "the dedup run's cold interval must move every state byte (moved={})",
        dedup_first.stats.bytes_moved
    );
    assert!(
        dedup_second.stats.bytes_moved * 4 < dedup_first.stats.bytes_moved,
        "a 10%-dirty dedup interval must move < 25% of its cold interval \
         (dirty={}, cold={})",
        dedup_second.stats.bytes_moved,
        dedup_first.stats.bytes_moved
    );

    // SPMD schedule: cross-rank dedup and the
    // restart-latency-vs-retained-intervals table.
    let spmd = if std::env::var("CKPT_DEDUP_SMOKE").is_ok() {
        let (outcomes, rows) = spmd_dedup_restart(&base.join("spmd"));
        println!(
            "ckpt_incremental dedup: cross-rank ratio {:.2}, newest-interval ratio {:.2}",
            outcomes[0].stats.dedup_ratio,
            outcomes[outcomes.len() - 1].stats.dedup_ratio
        );
        assert!(
            outcomes[0].stats.dedup_ratio >= 2.0,
            "SPMD cross-rank dedup must reach 2x (got {:.2})",
            outcomes[0].stats.dedup_ratio
        );
        for row in &rows {
            println!(
                "ckpt_incremental restart_vs_retained: retained={} dedup_sim_ns={}",
                row.retained, row.dedup_sim_ns
            );
        }
        // Every interval restores from its own manifest: the cost of
        // restoring the newest one does not grow with what is retained.
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        assert!(
            last.dedup_sim_ns * 100 <= first.dedup_sim_ns * 105,
            "dedup restart cost must stay flat in retained intervals \
             (1 retained={} ns, {} retained={} ns)",
            first.dedup_sim_ns,
            last.retained,
            last.dedup_sim_ns
        );
        Some((outcomes, rows))
    } else {
        None
    };

    if let Ok(path) = std::env::var("BENCH_CKPT_JSON") {
        write_json(
            &path,
            &full_second,
            &dedup_first,
            &dedup_second,
            spmd.as_ref().map(|(o, r)| (o.as_slice(), r.as_slice())),
        );
    }

    if std::env::var("CKPT_INCREMENTAL_SMOKE").is_ok() {
        println!("ckpt_incremental smoke: assertions passed (criterion sampling skipped)");
        return;
    }

    let mut group = c.benchmark_group("ckpt_incremental");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("full_interval", |b| {
        b.iter(|| two_intervals(&base.join("bench_full"), false))
    });
    group.bench_function("dedup_interval", |b| {
        b.iter(|| two_intervals(&base.join("bench_dedup"), true))
    });
    group.finish();
}

criterion_group!(benches, ckpt_incremental);
criterion_main!(benches);
