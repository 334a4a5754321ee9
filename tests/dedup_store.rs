//! Tentpole acceptance for the content-addressed dedup chunk store:
//! commits route every rank's manifested image through the unified
//! [`orte::store::SnapshotStore`], identical chunks across ranks and
//! intervals are stored once, restart assembles byte-identical images
//! from either tier out of the interval's own manifests, a tampered stable
//! chunk fails restart loudly, and refcount GC at retirement never sweeps a
//! chunk a live manifest still names — for any retirement schedule.

use std::sync::Arc;
use std::time::Duration;

use cr_core::inc::LayerInc;
use cr_core::request::CheckpointOptions;
use cr_core::{GlobalSnapshot, Rank};
use mca::McaParams;
use ompi::{mpirun, restart, RestartOptions, RestartSource, RunConfig};
use ompi_cr::test_runtime;
use opal::crs::{crs_framework, SelfCallbacks};
use opal::store::ChunkId;
use orte::job::{launch, JobSpec, LaunchCtx};
use orte::store::{manifest_ids, retire_dedup_interval, ChunkSource, SnapshotStore};
use parking_lot::Mutex;
use proptest::prelude::*;
use workloads::ring::{reference_checksums, RingApp};

/// Every test spins a multi-rank job; running them concurrently on a
/// small host starves the spinning ranks until OOB replies time out.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

type SharedState = Arc<Vec<Mutex<Vec<u8>>>>;

const STATE_BYTES: usize = 32 * 1024;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// SPMD-shaped state: every rank holds the same random buffer except for
/// a small rank-unique header, so cross-rank dedup is heavy but each
/// rank's image is still distinguishable.
fn spmd_state(nprocs: u32, seed: &mut u64) -> SharedState {
    let base: Vec<u8> = (0..STATE_BYTES).map(|_| lcg(seed) as u8).collect();
    Arc::new(
        (0..nprocs)
            .map(|r| {
                let mut buf = base.clone();
                buf[..8].copy_from_slice(&u64::from(r).to_le_bytes());
                Mutex::new(buf)
            })
            .collect(),
    )
}

fn dedup_params() -> Arc<McaParams> {
    let params = Arc::new(McaParams::new());
    params.set("filem", "replica");
    params.set("filem_replica_factor", "1");
    params.set("filem_dedup_enabled", "true");
    params.set("crs_incr_chunk_kb", "1");
    params
}

/// Spinning checkpointable job whose `app` capture section serves the
/// shared per-rank buffers (orte-level; no PML, so sections are exactly
/// the buffers and byte comparisons are direct).
fn launch_state_job(
    rt: &orte::Runtime,
    nprocs: u32,
    state: &SharedState,
    params: Arc<McaParams>,
) -> orte::JobHandle {
    let proc_state = Arc::clone(state);
    let proc_main: orte::job::ProcMain = Arc::new(move |ctx: LaunchCtx| {
        let fw = crs_framework(SelfCallbacks::new());
        ctx.container
            .set_crs(Arc::from(fw.select(&ctx.params).unwrap()));
        let rank = ctx.name.rank.index();
        let st = Arc::clone(&proc_state);
        ctx.container
            .register_capture("app", Arc::new(move || Ok(st[rank].lock().clone())));
        ctx.container
            .install_opal_inc(LayerInc::new("opal", ctx.runtime.tracer().clone()));
        ctx.container.enable_checkpointing();
        while !ctx.terminate.load(std::sync::atomic::Ordering::SeqCst) {
            ctx.container.gate().checkpoint_point();
            std::thread::yield_now();
        }
        ctx.container.gate().retire();
    });
    let handle = launch(rt, JobSpec::new(nprocs, params, proc_main)).unwrap();
    for r in 0..nprocs {
        while handle.container(Rank(r)).crs().is_none() {
            std::thread::yield_now();
        }
    }
    handle
}

/// Mutate 1–4 random ranges of every rank's buffer (identically across
/// ranks outside the unique header, keeping the workload SPMD-shaped).
fn mutate_state(state: &SharedState, seed: &mut u64) {
    let edits: Vec<(usize, usize, u8)> = (0..(1 + lcg(seed) as usize % 4))
        .map(|_| {
            let len = 1 + lcg(seed) as usize % 4096;
            let start = 8 + lcg(seed) as usize % (STATE_BYTES - len - 8);
            (start, len, 1 + (*seed >> 7) as u8)
        })
        .collect();
    for cell in state.iter() {
        let mut buf = cell.lock();
        for &(start, len, delta) in &edits {
            for b in &mut buf[start..start + len] {
                *b = b.wrapping_add(delta);
            }
        }
    }
}

/// All chunk ids any of `intervals`' recorded manifests still reference.
fn live_ids(global: &GlobalSnapshot, intervals: &[u64]) -> Vec<ChunkId> {
    let mut ids: Vec<ChunkId> = intervals
        .iter()
        .flat_map(|i| {
            global
                .chunk_manifests(*i)
                .into_iter()
                .map(|(_, rendered)| codec::ChunkManifest::parse(rendered).unwrap())
                .flat_map(|m| manifest_ids(&m))
                .collect::<Vec<_>>()
        })
        .collect();
    ids.sort();
    ids.dedup();
    ids
}

/// The stable tier holds exactly the chunks `intervals`' manifests name,
/// each with one reference per occurrence.
fn assert_store_matches_manifests(
    store: &SnapshotStore<'_>,
    global: &GlobalSnapshot,
    intervals: &[u64],
) {
    let mut occurrences: std::collections::BTreeMap<ChunkId, u64> = Default::default();
    for i in intervals {
        for (_, rendered) in global.chunk_manifests(*i) {
            for id in manifest_ids(&codec::ChunkManifest::parse(rendered).unwrap()) {
                *occurrences.entry(id).or_default() += 1;
            }
        }
    }
    let stored = store.stable().disk_ids().unwrap();
    assert_eq!(stored, occurrences.keys().copied().collect::<Vec<_>>());
    for (id, count) in &occurrences {
        assert_eq!(store.stable().refcount(id), *count, "chunk {id}");
    }
}

/// Fetch rank `rank` of `interval` through the unified store and return
/// its `app` section bytes.
fn fetch_app_section(
    store: &SnapshotStore<'_>,
    global: &GlobalSnapshot,
    interval: u64,
    rank: Rank,
    source: ChunkSource,
) -> Vec<u8> {
    let rendered = global.chunk_manifest(interval, rank).unwrap();
    let manifest = codec::ChunkManifest::parse(rendered).unwrap();
    let (image, _) = store.fetch_image(&manifest, source, true).unwrap();
    image.require_section("app").unwrap().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3,
        max_shrink_iters: 0, // each case is a full multi-interval job
        .. ProptestConfig::default()
    })]

    /// For any mutation sequence and any retirement order with any GC
    /// batch size, every still-recorded manifest's chunks survive the
    /// sweeps (the `gc` model's invariant, on the real store), every
    /// live interval still restores byte-identically, and retiring the
    /// last interval reclaims the store completely.
    #[test]
    fn any_retirement_schedule_never_sweeps_a_live_chunk(seed in any::<u64>()) {
        let _serial = serial();
        let mut rng = seed;
        let nprocs = 2u32;
        let intervals = 4u64;
        let rt = test_runtime(&format!("dedup_prop_{seed:x}"), 2);
        let state = spmd_state(nprocs, &mut rng);
        let handle = launch_state_job(&rt, nprocs, &state, dedup_params());

        let mut expected: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut snapshot_path = None;
        for i in 0..intervals {
            if i > 0 {
                mutate_state(&state, &mut rng);
            }
            let outcome = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
            prop_assert_eq!(outcome.interval, i);
            prop_assert!(outcome.stats.dedup_ratio >= 1.0);
            snapshot_path = Some(outcome.global_snapshot);
            expected.push(state.iter().map(|c| c.lock().clone()).collect());
        }
        handle.request_terminate();
        handle.join().unwrap();
        rt.drain_writebehind();

        let mut global = GlobalSnapshot::open(&snapshot_path.unwrap()).unwrap();
        let job_id = global.job();
        assert_store_matches_manifests(
            &SnapshotStore::open(&rt, job_id, global.dir()).unwrap(),
            &global,
            &global.intervals(),
        );

        // Random retirement order, random GC batch size per retirement.
        let mut order: Vec<u64> = (0..intervals).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, lcg(&mut rng) as usize % (i + 1));
        }
        let mut swept_total: Vec<ChunkId> = Vec::new();
        for retired in order {
            let batch = 1 + lcg(&mut rng) as usize % 5;
            let swept =
                retire_dedup_interval(&rt, job_id, &mut global, retired, batch).unwrap();
            swept_total.extend(swept);

            let remaining = global.intervals();
            let live = live_ids(&global, &remaining);
            let store = SnapshotStore::open(&rt, job_id, global.dir()).unwrap();
            for id in &live {
                prop_assert!(
                    store.stable().contains(id),
                    "live chunk {} swept after retiring interval {}",
                    id, retired
                );
            }
            for id in &swept_total {
                prop_assert!(
                    !live.contains(id),
                    "swept chunk {} is still referenced by a live manifest",
                    id
                );
            }
            // Every surviving interval still restores byte-identically.
            for &i in &remaining {
                for r in 0..nprocs {
                    let got = fetch_app_section(
                        &store, &global, i, Rank(r), ChunkSource::Auto,
                    );
                    prop_assert_eq!(
                        &got, &expected[i as usize][r as usize],
                        "interval {}, rank {}", i, r
                    );
                }
            }
        }
        // Everything retired: the refcount GC reclaimed the whole store.
        let store = SnapshotStore::open(&rt, job_id, global.dir()).unwrap();
        prop_assert_eq!(store.stable().chunk_count().unwrap(), 0);
        rt.shutdown();
    }
}

/// Restart images after heavy cross-rank and cross-interval dedup are
/// byte-identical from the peer-memory tier alone and from the stable
/// tier alone, and the commit stats show the dedup actually happened.
#[test]
fn dedup_restart_byte_identical_from_both_tiers() {
    let _serial = serial();
    let mut rng = 3u64;
    let nprocs = 2u32;
    let rt = test_runtime("dedup_tiers", 2);
    let state = spmd_state(nprocs, &mut rng);
    let handle = launch_state_job(&rt, nprocs, &state, dedup_params());

    // Interval 0: ranks share all but their unique header chunk.
    let first = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert!(
        first.stats.dedup_ratio > 1.5,
        "cross-rank dedup missing: ratio {}",
        first.stats.dedup_ratio
    );
    let expect0: Vec<Vec<u8>> = state.iter().map(|c| c.lock().clone()).collect();

    // Interval 1: a small mutation — almost everything dedups against
    // interval 0, so the ratio jumps.
    mutate_state(&state, &mut rng);
    let second = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert!(
        second.stats.dedup_ratio > first.stats.dedup_ratio,
        "cross-interval dedup missing: {} !> {}",
        second.stats.dedup_ratio,
        first.stats.dedup_ratio
    );
    let expect1: Vec<Vec<u8>> = state.iter().map(|c| c.lock().clone()).collect();
    handle.request_terminate();
    handle.join().unwrap();
    rt.drain_writebehind();

    let global = GlobalSnapshot::open(&second.global_snapshot).unwrap();
    let store = SnapshotStore::open(&rt, global.job(), global.dir()).unwrap();
    for (interval, expect) in [(0u64, &expect0), (1u64, &expect1)] {
        for r in 0..nprocs {
            let rendered = global.chunk_manifest(interval, Rank(r)).unwrap();
            let manifest = codec::ChunkManifest::parse(rendered).unwrap();

            let (image, stats) = store
                .fetch_image(&manifest, ChunkSource::ReplicaOnly, true)
                .unwrap();
            assert_eq!(
                image.require_section("app").unwrap(),
                &expect[r as usize][..],
                "replica tier, interval {interval}, rank {r}"
            );
            assert!(stats.replica_chunks > 0);
            assert_eq!(stats.stable_chunks, 0);

            let (image, stats) = store
                .fetch_image(&manifest, ChunkSource::StableOnly, true)
                .unwrap();
            assert_eq!(
                image.require_section("app").unwrap(),
                &expect[r as usize][..],
                "stable tier, interval {interval}, rank {r}"
            );
            assert!(stats.stable_chunks > 0);
            assert_eq!(stats.replica_chunks, 0);
        }
    }
    rt.shutdown();
}

/// One fetch batch serves every rank of a recovery: each distinct chunk of
/// the rank set is fetched once — one peer-memory request per holder, one
/// stable read per miss — and every image it assembles is byte-identical
/// to the rank's own single-manifest fetch, from either tier or both.
#[test]
fn one_fetch_batch_reads_each_distinct_chunk_once_for_every_rank() {
    let _serial = serial();
    let mut rng = 11u64;
    let nprocs = 4u32;
    let rt = test_runtime("dedup_batch", 4);
    let state = spmd_state(nprocs, &mut rng);
    let handle = launch_state_job(&rt, nprocs, &state, dedup_params());
    let outcome = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
    let expect: Vec<Vec<u8>> = state.iter().map(|c| c.lock().clone()).collect();
    handle.request_terminate();
    handle.join().unwrap();
    rt.drain_writebehind();

    let global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
    let store = SnapshotStore::open(&rt, global.job(), global.dir()).unwrap();
    let manifests: Vec<codec::ChunkManifest> = (0..nprocs)
        .map(|r| {
            codec::ChunkManifest::parse(global.chunk_manifest(outcome.interval, Rank(r)).unwrap())
                .unwrap()
        })
        .collect();
    let mut distinct: Vec<ChunkId> = manifests.iter().flat_map(manifest_ids).collect();
    distinct.sort();
    distinct.dedup();
    let per_rank: usize = manifests
        .iter()
        .map(|m| {
            let mut ids = manifest_ids(m);
            ids.sort();
            ids.dedup();
            ids.len()
        })
        .sum();
    assert!(distinct.len() < per_rank, "SPMD ranks share chunks");

    let tracer = rt.tracer();
    for source in [ChunkSource::StableOnly, ChunkSource::ReplicaOnly, ChunkSource::Auto] {
        let batches = tracer.count_prefix("store.restart.fetch");
        let requests = tracer.count_prefix("store.chunk.fetch");
        let (images, stats) = store.fetch_images(&manifests, source, true, 3).unwrap();
        assert_eq!(tracer.count_prefix("store.restart.fetch"), batches + 1);
        assert!(
            tracer.count_prefix("store.chunk.fetch") - requests <= rt.daemons().len(),
            "{source:?}: at most one chunk request per holder"
        );
        assert_eq!(
            stats.replica_chunks + stats.stable_chunks,
            distinct.len(),
            "{source:?}: each distinct chunk fetched once"
        );
        let from_memory = if source == ChunkSource::StableOnly { 0 } else { nprocs as usize };
        assert_eq!(stats.replica_images, from_memory, "{source:?}");
        assert_eq!(images.len(), manifests.len());
        for (r, (image, manifest)) in images.iter().zip(&manifests).enumerate() {
            assert_eq!(
                image.require_section("app").unwrap(),
                &expect[r][..],
                "{source:?}, rank {r}"
            );
            assert_eq!(&store.fetch_image(manifest, source, true).unwrap().0, image);
        }
    }
    rt.shutdown();
}

/// A pack that leaves out a chunk the store lacks fails its interval,
/// naming the rank and the chunk, and records nothing. The next
/// checkpoint's base is the last committed interval again, which no rank
/// wrote last, so every pack is whole: it commits and restores
/// byte-identically from both tiers.
#[test]
fn pack_missing_a_chunk_the_store_lacks_fails_only_its_interval() {
    let _serial = serial();
    let mut rng = 5u64;
    let nprocs = 2u32;
    let rt = test_runtime("dedup_uncovered", 2);
    let state = spmd_state(nprocs, &mut rng);
    let handle = launch_state_job(&rt, nprocs, &state, dedup_params());
    let first = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
    let global_dir = first.global_snapshot.clone();

    // Rank 1's header chunk is its own and unchanged, so its next pack
    // (base: interval 0, the interval it wrote last) leaves it out.
    let header = {
        let global = GlobalSnapshot::open(&global_dir).unwrap();
        let rendered = global.chunk_manifest(0, Rank(1)).unwrap();
        manifest_ids(&codec::ChunkManifest::parse(rendered).unwrap())[0]
    };
    let store = SnapshotStore::open(&rt, handle.job(), &global_dir).unwrap();
    let refs_before = store.stable().refcount(&header);
    std::fs::remove_file(store.stable().dir().join(format!("{header}.blob"))).unwrap();
    let chunks_before = store.stable().chunk_count().unwrap();

    let err = handle.checkpoint(&CheckpointOptions::tool()).unwrap_err();
    assert!(matches!(err, cr_core::CrError::BadSnapshot { .. }), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("rank 1: manifest chunk {header}")),
        "{msg}"
    );
    let global = GlobalSnapshot::open(&global_dir).unwrap();
    assert_eq!(global.intervals(), vec![0]);
    assert!(global.chunk_manifests(1).is_empty());
    let store = SnapshotStore::open(&rt, handle.job(), &global_dir).unwrap();
    assert_eq!(store.stable().chunk_count().unwrap(), chunks_before);
    assert_eq!(store.stable().refcount(&header), refs_before);

    let next = handle.checkpoint(&CheckpointOptions::tool()).unwrap();
    assert_eq!(next.interval, 1);
    let expect: Vec<Vec<u8>> = state.iter().map(|c| c.lock().clone()).collect();
    handle.request_terminate();
    handle.join().unwrap();
    rt.drain_writebehind();

    let global = GlobalSnapshot::open(&global_dir).unwrap();
    let store = SnapshotStore::open(&rt, global.job(), global.dir()).unwrap();
    assert!(
        store.stable().contains(&header),
        "the whole packs put it back"
    );
    for r in 0..nprocs {
        for source in [ChunkSource::ReplicaOnly, ChunkSource::StableOnly] {
            let got = fetch_app_section(&store, &global, 1, Rank(r), source);
            assert_eq!(got, expect[r as usize], "rank {r} from {source:?}");
        }
    }
    rt.shutdown();
}

/// Ranks of the end-to-end ring jobs.
const RING_NPROCS: u32 = 4;

/// Run a dedup ring job mid-flight into one checkpoint-and-terminate.
fn ring_checkpointed_and_terminated(
    rt: &orte::Runtime,
) -> (Arc<RingApp>, cr_core::request::CheckpointOutcome) {
    let app = Arc::new(RingApp { rounds: 1_000_000 });
    let job = mpirun(
        rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: RING_NPROCS,
            params: dedup_params(),
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    (app, outcome)
}

/// End-to-end disaster drill: the stable chunk store is deleted outright,
/// and a replica-source restart still resurrects the job from peer
/// memory alone — through the dedup fetch path, never the local-snapshot
/// preload.
#[test]
fn dedup_restart_survives_stable_store_deletion() {
    let _serial = serial();
    let rt = test_runtime("dedup_nostable", 4);
    let (app, outcome) = ring_checkpointed_and_terminated(&rt);

    let stable_dir = outcome.global_snapshot.join(orte::store::CHUNK_STORE_DIR);
    assert!(stable_dir.exists(), "dedup commit must create the stable tier");
    std::fs::remove_dir_all(&stable_dir).unwrap();

    rt.tracer().clear();
    let restarted = restart(
        &rt,
        Arc::clone(&app),
        &outcome.global_snapshot,
        RestartOptions::default().with_source(RestartSource::Replica),
    )
    .unwrap();
    restarted.handle().request_terminate();
    assert_eq!(restarted.wait().unwrap().len(), 4);
    assert_eq!(rt.tracer().count_prefix("store.restart.fetch"), 1, "one fetch batch");
    assert_eq!(rt.tracer().count_prefix("filem.preload"), 0);
    assert_eq!(rt.tracer().count_prefix("filem.replica.preload"), 0);
    rt.shutdown();
}

/// Every interval restores on its own, end to end: every earlier interval
/// can be retired, oldest first, and the newest dedup interval still
/// restarts, because its manifest alone (plus the refcount-protected
/// shared chunks) materializes every image in O(1) fetches.
#[test]
fn dedup_restart_needs_no_chain_after_retiring_every_earlier_interval() {
    let _serial = serial();
    let rt = test_runtime("dedup_nochain", 4);
    let app = Arc::new(RingApp { rounds: 1_000_000 });
    let job = mpirun(
        &rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: 4,
            params: dedup_params(),
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    job.checkpoint(&CheckpointOptions::tool()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    job.checkpoint(&CheckpointOptions::tool()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let outcome = job
        .checkpoint(&CheckpointOptions::tool().and_terminate())
        .unwrap();
    job.wait().unwrap();
    rt.drain_writebehind();
    assert_eq!(outcome.interval, 2);

    let mut global = GlobalSnapshot::open(&outcome.global_snapshot).unwrap();
    let job_id = global.job();
    for r in 0..4 {
        // The restore set is the interval's own manifest, nothing else.
        assert!(global.chunk_manifest(2, Rank(r)).is_some());
    }

    // Oldest-first retirement: no interval pins an earlier one.
    retire_dedup_interval(&rt, job_id, &mut global, 0, 8).unwrap();
    retire_dedup_interval(&rt, job_id, &mut global, 1, 8).unwrap();
    assert_eq!(global.intervals(), vec![2]);

    rt.tracer().clear();
    let restarted = restart(
        &rt,
        Arc::clone(&app),
        &outcome.global_snapshot,
        RestartOptions::default(),
    )
    .unwrap();
    restarted.handle().request_terminate();
    assert_eq!(restarted.wait().unwrap().len(), 4);
    // The dedup fetch path ran, as one batch for all four ranks; no local
    // snapshot was preloaded.
    assert_eq!(rt.tracer().count_prefix("store.restart.fetch"), 1);
    assert_eq!(rt.tracer().count_prefix("filem.preload"), 0);
    assert_eq!(rt.tracer().count_prefix("filem.replica.preload"), 0);
    rt.shutdown();
}

/// Tamper detection on the dedup path, end to end: one byte of one stable
/// chunk blob of a committed interval is flipped and the blob re-framed,
/// so the frame CRC passes and only the content digest can catch it. A
/// stable-only restart must refuse, naming the chunk; an auto restart
/// with the peer-memory tier alive routes around the bad blob and
/// restores exactly the checkpointed state.
#[test]
fn tampered_stable_chunk_fails_stable_restart_and_auto_routes_around_it() {
    let _serial = serial();
    let nprocs = RING_NPROCS;
    let rt = test_runtime("dedup_tamper", 4);
    let (app, outcome) = ring_checkpointed_and_terminated(&rt);

    let stable_dir = outcome.global_snapshot.join(orte::store::CHUNK_STORE_DIR);
    let mut blobs: Vec<std::path::PathBuf> = std::fs::read_dir(&stable_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "blob"))
        .collect();
    blobs.sort();
    let blob = blobs.first().expect("dedup commit wrote chunk blobs");
    let id = ChunkId::parse(blob.file_stem().unwrap().to_str().unwrap()).unwrap();
    let mut payload = codec::read_frame(&std::fs::read(blob).unwrap()).unwrap().to_vec();
    payload[0] ^= 0xFF;
    std::fs::write(blob, codec::write_frame(&payload)).unwrap();

    let err = match restart(
        &rt,
        Arc::clone(&app),
        &outcome.global_snapshot,
        RestartOptions::default().with_source(RestartSource::Stable),
    ) {
        Ok(_) => panic!("a tampered stable chunk must not restart from stable"),
        Err(e) => e,
    };
    assert!(matches!(err, cr_core::CrError::BadSnapshot { .. }), "{err}");
    assert!(err.to_string().contains(&id.to_string()), "must name chunk {id}: {err}");

    rt.tracer().clear();
    let restarted = restart(
        &rt,
        Arc::clone(&app),
        &outcome.global_snapshot,
        RestartOptions::default(),
    )
    .unwrap();
    restarted.handle().request_terminate();
    let results = restarted.wait().unwrap();
    assert_eq!(rt.tracer().count_prefix("store.restart.fetch"), 1);
    // Every rank resumed from intact mid-run state: wherever it stopped,
    // its checksum is the fault-free one for that many rounds.
    assert_eq!(results.len(), nprocs as usize);
    for (r, (state, _)) in results.iter().enumerate() {
        assert!(state.round > 0, "rank {r} restarted from scratch");
        let expected = reference_checksums(u64::from(nprocs), state.round);
        assert_eq!(state.checksum, expected[r], "rank {r} at round {}", state.round);
    }
    rt.shutdown();
}
