//! OPAL CRS — the Checkpoint/Restart Service framework (paper §6.4).
//!
//! A CRS component provides exactly two operations: checkpoint a process
//! into a local snapshot reference, and restart a process image from one.
//! Components also implement enable/disable so non-checkpointable code
//! sections are protected, and may refuse service entirely (the `none`
//! component), which marks the process non-checkpointable — the snapshot
//! coordinator must then refuse whole-job requests without affecting any
//! process.
//!
//! Components:
//!
//! * **`blcr_sim`** — models BLCR, a *system-level* checkpointer: it images
//!   the process without any application cooperation (no callbacks). An
//!   MCA parameter can inject deterministic failures for fault testing.
//! * **`self`** — models the SELF component: the application registers
//!   checkpoint / continue / restart callbacks that run around the image
//!   capture, supporting application-level checkpointing.
//! * **`none`** — no checkpointer available; the process declares itself
//!   non-checkpointable.
//!
//! Both checkpointing components write the same context (`write_image`):
//! always the complete [`ProcessImage`], so every interval restores from
//! itself alone. With `filem_dedup_enabled` they also cut each section into
//! fixed-size chunks ([`codec::chunk`], sized by `crs_incr_chunk_kb`),
//! digest them over the hash pool, and record the resulting manifest in the
//! snapshot metadata — the key the commit path uses to move only
//! never-before-seen chunks into the content-addressed store
//! ([`crate::store`]).

use std::sync::Arc;

use mca::{Framework, McaParams};
use parking_lot::Mutex;

use cr_core::snapshot::LocalSnapshot;
use cr_core::{CrError, FtEventState};

use crate::image::ProcessImage;

/// Snapshot metadata key: `"full"`, or `"dedup"` when the manifest is
/// recorded too.
const PARAM_KIND: &str = "ckpt_kind";
/// Snapshot metadata key: rendered [`codec::ChunkManifest`] of the image
/// (only written in dedup mode).
pub const PARAM_MANIFEST: &str = "manifest";

/// How to build the chunk manifest of a dedup-mode checkpoint.
#[derive(Debug, Clone, Copy)]
struct ManifestCfg {
    /// Chunk size in bytes (`crs_incr_chunk_kb` × 1024).
    chunk_bytes: usize,
    /// Hash lanes (`opal_hash_workers`).
    workers: usize,
}

impl ManifestCfg {
    /// `Some` when `filem_dedup_enabled` is set (defaults mirror the
    /// registry).
    fn from_params(params: &McaParams) -> Option<Self> {
        params
            .get_bool_or("filem_dedup_enabled", false)
            .unwrap_or(false)
            .then(|| ManifestCfg {
                chunk_bytes: params
                    .get_parsed_or("crs_incr_chunk_kb", 4u64)
                    .unwrap_or(4)
                    .max(1) as usize
                    * 1024,
                workers: crate::pool::hash_workers(params),
            })
    }
}

/// Write `image` into `snapshot` as a full context and record its kind and
/// section names; with a `manifest` configuration also build and record
/// the chunk manifest.
fn write_image(
    image: &ProcessImage,
    snapshot: &mut LocalSnapshot,
    manifest: Option<ManifestCfg>,
) -> Result<(), CrError> {
    snapshot.write_context(&image.to_context()?)?;
    let kind = if manifest.is_some() { "dedup" } else { "full" };
    snapshot.set_param(PARAM_KIND, kind);
    if let Some(cfg) = manifest {
        let sections: Vec<(&str, &[u8])> = image.iter().collect();
        let built = crate::pool::manifest_parallel(&sections, cfg.chunk_bytes, cfg.workers);
        snapshot.set_param(PARAM_MANIFEST, &built.render());
    }
    snapshot.set_param("sections", &image.names().join(","));
    Ok(())
}

/// Decode a snapshot's context into its image. A snapshot whose metadata
/// says `ckpt_kind=delta` was written by an older build as a link of a
/// base→delta chain; its context is not an image and is refused by name
/// instead of failing somewhere inside the decoder.
pub fn read_full_image(snapshot: &LocalSnapshot) -> Result<ProcessImage, CrError> {
    if snapshot.param(PARAM_KIND) == Some("delta") {
        return Err(CrError::BadSnapshot {
            detail: format!(
                "rank {} interval {} is a delta-chain context written by an older \
                 build; this build restores only self-contained (full or dedup) \
                 intervals",
                snapshot.rank(),
                snapshot.interval()
            ),
        });
    }
    ProcessImage::from_bytes(&snapshot.read_context()?)
}

/// Callback the application may register through the SELF component.
pub type SelfCallback = Box<dyn FnMut() -> Result<(), CrError> + Send>;

/// Registry of SELF-component application callbacks for one process.
#[derive(Default)]
pub struct SelfCallbacks {
    /// Invoked just before the process image is captured.
    pub on_checkpoint: Mutex<Option<SelfCallback>>,
    /// Invoked when the process continues after a checkpoint.
    pub on_continue: Mutex<Option<SelfCallback>>,
    /// Invoked when the process has been restarted from a snapshot.
    pub on_restart: Mutex<Option<SelfCallback>>,
}

impl SelfCallbacks {
    /// Empty registry (no callbacks installed).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn fire(slot: &Mutex<Option<SelfCallback>>) -> Result<(), CrError> {
        if let Some(cb) = slot.lock().as_mut() {
            cb()?;
        }
        Ok(())
    }
}

/// A single-process checkpoint/restart system.
pub trait CrsComponent: Send + Sync {
    /// Component name as used in MCA selection and snapshot metadata.
    fn name(&self) -> &'static str;

    /// True when this component can actually take checkpoints. The snapshot
    /// coordinator consults this before initiating any process checkpoint.
    fn can_checkpoint(&self) -> bool {
        true
    }

    /// Persist `image` into `snapshot`: write the context file and set any
    /// component-specific parameters. The caller
    /// [`finish`](LocalSnapshot::finish)es the snapshot.
    fn checkpoint(
        &self,
        image: &ProcessImage,
        snapshot: &mut LocalSnapshot,
    ) -> Result<(), CrError>;

    /// Reconstruct a process image from `snapshot`.
    fn restart(&self, snapshot: &LocalSnapshot) -> Result<ProcessImage, CrError>;

    /// Notification delivered after the checkpoint operation resolves
    /// (continue in place, restarted image, or error). The SELF component
    /// uses this to fire application callbacks.
    fn post_event(&self, _state: FtEventState) -> Result<(), CrError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// blcr_sim
// ---------------------------------------------------------------------------

/// Simulated BLCR: transparent system-level checkpointing.
pub struct BlcrSim {
    /// Fail every Nth checkpoint (0 = never); deterministic fault injection
    /// via the `crs_blcr_sim_fail_every` MCA parameter.
    fail_every: u64,
    attempts: Mutex<u64>,
    /// Memory-exclusion hints (paper §5.4, citing Plank's memory
    /// exclusion): image sections named in the comma-separated
    /// `crs_blcr_sim_exclude` parameter are omitted from the context file.
    /// Excluded state must be reconstructible by its owner at restart —
    /// the classic use is scratch buffers the application can recompute.
    exclude: Vec<String>,
    /// Set in dedup mode: record the image's chunk manifest too.
    manifest: Option<ManifestCfg>,
}

impl BlcrSim {
    /// Build from MCA parameters.
    pub fn from_params(params: &McaParams) -> Self {
        let exclude = params
            .get("crs_blcr_sim_exclude")
            .map(|raw| {
                raw.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        BlcrSim {
            fail_every: params
                .get_parsed_or("crs_blcr_sim_fail_every", 0u64)
                .unwrap_or(0),
            attempts: Mutex::new(0),
            exclude,
            manifest: ManifestCfg::from_params(params),
        }
    }
}

impl CrsComponent for BlcrSim {
    fn name(&self) -> &'static str {
        "blcr_sim"
    }

    fn checkpoint(
        &self,
        image: &ProcessImage,
        snapshot: &mut LocalSnapshot,
    ) -> Result<(), CrError> {
        {
            let mut attempts = self.attempts.lock();
            *attempts += 1;
            if self.fail_every != 0 && (*attempts).is_multiple_of(self.fail_every) {
                return Err(CrError::FtEventFailed {
                    subsystem: "crs/blcr_sim".into(),
                    state: FtEventState::Checkpoint,
                    detail: format!("injected failure (attempt {})", *attempts),
                });
            }
        }
        let pruned;
        let image = if self.exclude.is_empty() {
            image
        } else {
            let mut kept = ProcessImage::new();
            for (name, bytes) in image.iter() {
                if !self.exclude.iter().any(|e| e == name) {
                    kept.insert(name, bytes.to_vec());
                }
            }
            pruned = kept;
            &pruned
        };
        write_image(image, snapshot, self.manifest)?;
        if !self.exclude.is_empty() {
            snapshot.set_param("excluded", &self.exclude.join(","));
        }
        Ok(())
    }

    fn restart(&self, snapshot: &LocalSnapshot) -> Result<ProcessImage, CrError> {
        read_full_image(snapshot)
    }
}

// ---------------------------------------------------------------------------
// self
// ---------------------------------------------------------------------------

/// The SELF component: application-level checkpointing callbacks around a
/// capture that otherwise matches `blcr_sim`'s on-disk format.
pub struct SelfCrs {
    callbacks: Arc<SelfCallbacks>,
    manifest: Option<ManifestCfg>,
}

impl SelfCrs {
    /// Build with dedup mode as the MCA parameters say.
    pub fn from_params(callbacks: Arc<SelfCallbacks>, params: &McaParams) -> Self {
        SelfCrs {
            callbacks,
            manifest: ManifestCfg::from_params(params),
        }
    }
}

impl CrsComponent for SelfCrs {
    fn name(&self) -> &'static str {
        "self"
    }

    fn checkpoint(
        &self,
        image: &ProcessImage,
        snapshot: &mut LocalSnapshot,
    ) -> Result<(), CrError> {
        SelfCallbacks::fire(&self.callbacks.on_checkpoint)?;
        write_image(image, snapshot, self.manifest)
    }

    fn restart(&self, snapshot: &LocalSnapshot) -> Result<ProcessImage, CrError> {
        read_full_image(snapshot)
    }

    fn post_event(&self, state: FtEventState) -> Result<(), CrError> {
        match state {
            FtEventState::Continue => SelfCallbacks::fire(&self.callbacks.on_continue),
            FtEventState::Restart => SelfCallbacks::fire(&self.callbacks.on_restart),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// none
// ---------------------------------------------------------------------------

/// No checkpointer available: the process is non-checkpointable.
pub struct NoneCrs;

impl CrsComponent for NoneCrs {
    fn name(&self) -> &'static str {
        "none"
    }

    fn can_checkpoint(&self) -> bool {
        false
    }

    fn checkpoint(
        &self,
        _image: &ProcessImage,
        _snapshot: &mut LocalSnapshot,
    ) -> Result<(), CrError> {
        Err(CrError::Unsupported {
            detail: "the none CRS component cannot take checkpoints".into(),
        })
    }

    fn restart(&self, _snapshot: &LocalSnapshot) -> Result<ProcessImage, CrError> {
        Err(CrError::Unsupported {
            detail: "the none CRS component cannot restart processes".into(),
        })
    }
}

/// Assemble the CRS framework for one process.
///
/// `blcr_sim` has the highest default priority (mirrors real deployments
/// where a system-level checkpointer is preferred when present), then
/// `self`, then `none`.
pub fn crs_framework(callbacks: Arc<SelfCallbacks>) -> Framework<dyn CrsComponent> {
    let mut fw: Framework<dyn CrsComponent> = Framework::new("crs");
    fw.register(
        "blcr_sim",
        20,
        "simulated system-level checkpointer (BLCR-like)",
        |params| Box::new(BlcrSim::from_params(params)),
    );
    let cbs = Arc::clone(&callbacks);
    fw.register(
        "self",
        10,
        "application-level checkpointing callbacks",
        move |params| Box::new(SelfCrs::from_params(Arc::clone(&cbs), params)),
    );
    fw.register("none", -1, "no checkpoint support", |_params| {
        Box::new(NoneCrs)
    });
    fw
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    use cr_core::Rank;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "opal_crs_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_image() -> ProcessImage {
        let mut img = ProcessImage::new();
        img.insert("app", vec![7u8; 256]);
        img.insert("pml", b"counters".to_vec());
        img
    }

    #[test]
    fn blcr_sim_checkpoint_restart_roundtrip() {
        let dir = tmpdir("blcr");
        let crs = BlcrSim::from_params(&McaParams::new());
        let mut snap = LocalSnapshot::create(&dir, Rank(0), crs.name(), 0, "node00").unwrap();
        let img = sample_image();
        crs.checkpoint(&img, &mut snap).unwrap();
        let restored = crs.restart(&snap).unwrap();
        assert_eq!(restored, img);
        assert_eq!(snap.param("sections"), Some("app,pml"));
    }

    #[test]
    fn blcr_sim_fault_injection_is_deterministic() {
        let dir = tmpdir("blcrfail");
        let params = McaParams::new();
        params.set("crs_blcr_sim_fail_every", "3");
        let crs = BlcrSim::from_params(&params);
        let mut snap = LocalSnapshot::create(&dir, Rank(0), crs.name(), 0, "node00").unwrap();
        let img = sample_image();
        assert!(crs.checkpoint(&img, &mut snap).is_ok()); // 1
        assert!(crs.checkpoint(&img, &mut snap).is_ok()); // 2
        assert!(crs.checkpoint(&img, &mut snap).is_err()); // 3 fails
        assert!(crs.checkpoint(&img, &mut snap).is_ok()); // 4
    }

    #[test]
    fn self_component_fires_callbacks_in_order() {
        let dir = tmpdir("selfcb");
        let callbacks = SelfCallbacks::new();
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));

        let o = Arc::clone(&order);
        *callbacks.on_checkpoint.lock() = Some(Box::new(move || {
            o.lock().push("checkpoint");
            Ok(())
        }));
        let o = Arc::clone(&order);
        *callbacks.on_continue.lock() = Some(Box::new(move || {
            o.lock().push("continue");
            Ok(())
        }));
        let o = Arc::clone(&order);
        *callbacks.on_restart.lock() = Some(Box::new(move || {
            o.lock().push("restart");
            Ok(())
        }));

        let crs = SelfCrs::from_params(Arc::clone(&callbacks), &McaParams::new());
        let mut snap = LocalSnapshot::create(&dir, Rank(1), crs.name(), 0, "node00").unwrap();
        crs.checkpoint(&sample_image(), &mut snap).unwrap();
        crs.post_event(FtEventState::Continue).unwrap();
        crs.post_event(FtEventState::Restart).unwrap();
        crs.post_event(FtEventState::Error).unwrap();
        assert_eq!(*order.lock(), vec!["checkpoint", "continue", "restart"]);
    }

    #[test]
    fn self_callback_failure_aborts_checkpoint() {
        let dir = tmpdir("selffail");
        let callbacks = SelfCallbacks::new();
        *callbacks.on_checkpoint.lock() = Some(Box::new(|| {
            Err(CrError::Unsupported {
                detail: "app refuses".into(),
            })
        }));
        let crs = SelfCrs::from_params(callbacks, &McaParams::new());
        let mut snap = LocalSnapshot::create(&dir, Rank(0), crs.name(), 0, "node00").unwrap();
        assert!(crs.checkpoint(&sample_image(), &mut snap).is_err());
        // No context file must have been written.
        assert!(!snap.context_path().exists());
    }

    #[test]
    fn none_component_refuses_everything() {
        let dir = tmpdir("none");
        let crs = NoneCrs;
        assert!(!crs.can_checkpoint());
        let mut snap = LocalSnapshot::create(&dir, Rank(0), crs.name(), 0, "node00").unwrap();
        assert!(crs.checkpoint(&sample_image(), &mut snap).is_err());
        assert!(crs.restart(&snap).is_err());
    }

    #[test]
    fn framework_selection_and_restart_by_name() {
        let fw = crs_framework(SelfCallbacks::new());
        let params = McaParams::new();
        // Default: highest priority wins.
        assert_eq!(fw.select(&params).unwrap().name(), "blcr_sim");
        params.set("crs", "self");
        assert_eq!(fw.select(&params).unwrap().name(), "self");
        // Restart path instantiates by metadata name regardless of params.
        assert_eq!(fw.instantiate("none", &params).unwrap().name(), "none");
        assert!(fw.instantiate("condor", &params).is_err());
    }

    #[test]
    fn components_restart_each_others_files() {
        // blcr_sim and self share the context format, so a snapshot taken by
        // one can be inspected by the other (heterogeneous support, §4).
        let dir = tmpdir("hetero");
        let blcr = BlcrSim::from_params(&McaParams::new());
        let selfcrs = SelfCrs::from_params(SelfCallbacks::new(), &McaParams::new());
        let mut snap = LocalSnapshot::create(&dir, Rank(0), blcr.name(), 0, "node00").unwrap();
        let img = sample_image();
        blcr.checkpoint(&img, &mut snap).unwrap();
        assert_eq!(selfcrs.restart(&snap).unwrap(), img);
    }

    #[test]
    fn default_mode_writes_plain_full_images_and_hashes_nothing() {
        let dir = tmpdir("fullmode");
        assert!(ManifestCfg::from_params(&McaParams::new()).is_none());
        let crs = BlcrSim::from_params(&McaParams::new());
        let img = sample_image();
        for interval in 0..3 {
            let parent = dir.join(format!("i{interval}"));
            let mut s =
                LocalSnapshot::create(&parent, Rank(0), crs.name(), interval, "node00").unwrap();
            crs.checkpoint(&img, &mut s).unwrap();
            assert_eq!(s.param(PARAM_KIND), Some("full"));
            assert!(s.param(PARAM_MANIFEST).is_none(), "no manifest");
            assert_eq!(crs.restart(&s).unwrap(), img);
        }
    }

    #[test]
    fn dedup_mode_writes_self_contained_manifested_images() {
        let dir = tmpdir("dedupmode");
        let params = McaParams::new();
        params.set("filem_dedup_enabled", "true");
        assert_eq!(
            ManifestCfg::from_params(&params).map(|c| c.chunk_bytes),
            Some(4096),
            "default mirrors the registry"
        );
        params.set("crs_incr_chunk_kb", "1");
        let crs = SelfCrs::from_params(SelfCallbacks::new(), &params);
        let mut img = ProcessImage::new();
        img.insert("app", vec![7u8; 4096]);
        for interval in 0..3 {
            let parent = dir.join(format!("i{interval}"));
            let mut s =
                LocalSnapshot::create(&parent, Rank(0), crs.name(), interval, "node00").unwrap();
            crs.checkpoint(&img, &mut s).unwrap();
            assert_eq!(s.param(PARAM_KIND), Some("dedup"));
            let manifest =
                codec::ChunkManifest::parse(s.param(PARAM_MANIFEST).expect("manifest")).unwrap();
            assert_eq!(manifest.chunk_bytes, 1024);
            assert_eq!(manifest.total_bytes(), 4096);
            // Self-contained: the context alone restores the image.
            assert_eq!(crs.restart(&s).unwrap(), img);
        }
    }

    #[test]
    fn context_file_is_the_image_bytes_plus_a_frame_and_still_checksummed() {
        const MIB: usize = 1 << 20;
        let dir = tmpdir("rawctx");
        let crs = BlcrSim::from_params(&McaParams::new());
        let mut snap = LocalSnapshot::create(&dir, Rank(0), crs.name(), 0, "node00").unwrap();
        let mut img = ProcessImage::new();
        img.insert("app", (0..MIB).map(|i| (i * 31 % 251) as u8).collect());
        crs.checkpoint(&img, &mut snap).unwrap();
        let path = snap.context_path();
        let on_disk = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(
            (MIB..=MIB + MIB / 100).contains(&on_disk),
            "context of a 1 MiB section is {on_disk} B"
        );
        assert_eq!(crs.restart(&snap).unwrap(), img);

        // A flipped payload byte, deep inside the raw run, is still caught.
        let mut raw = std::fs::read(&path).unwrap();
        raw[MIB / 2] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            crs.restart(&snap),
            Err(CrError::Codec(codec::Error::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn delta_context_from_an_older_build_is_refused_by_name() {
        let dir = tmpdir("refuse");
        let mut s = LocalSnapshot::create(&dir, Rank(0), "blcr_sim", 1, "node00").unwrap();
        // Hand-written stand-in for what an older build left on disk: a
        // context that is not an image, tagged as a delta.
        s.write_context(&codec::write_frame(b"dirty chunks only"))
            .unwrap();
        s.set_param(PARAM_KIND, "delta");
        s.finish().unwrap();
        let reopened = LocalSnapshot::open(s.dir()).unwrap();
        let err = read_full_image(&reopened).unwrap_err();
        assert!(matches!(err, CrError::BadSnapshot { .. }), "got: {err}");
        assert!(err.to_string().contains("older build"), "got: {err}");
    }

    #[test]
    fn callbacks_can_mutate_app_state() {
        let callbacks = SelfCallbacks::new();
        let counter = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&counter);
        *callbacks.on_continue.lock() = Some(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }));
        let crs = SelfCrs::from_params(callbacks, &McaParams::new());
        crs.post_event(FtEventState::Continue).unwrap();
        crs.post_event(FtEventState::Continue).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }
}

#[cfg(test)]
mod exclusion_tests {
    use super::*;
    use cr_core::Rank;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "opal_crs_excl_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_exclusion_hints_shrink_the_image() {
        let dir = tmpdir("shrink");
        let mut image = ProcessImage::new();
        image.insert("app", vec![1u8; 64]);
        image.insert("scratch", vec![0u8; 1 << 16]); // recomputable buffer
        image.insert("pml", vec![2u8; 32]);

        let params = McaParams::new();
        let full = BlcrSim::from_params(&params);
        let mut full_snap = LocalSnapshot::create(&dir, Rank(0), "blcr_sim", 0, "n0").unwrap();
        full.checkpoint(&image, &mut full_snap).unwrap();

        params.set("crs_blcr_sim_exclude", "scratch");
        let pruned = BlcrSim::from_params(&params);
        let dir2 = tmpdir("shrink2");
        let mut small_snap = LocalSnapshot::create(&dir2, Rank(0), "blcr_sim", 0, "n0").unwrap();
        pruned.checkpoint(&image, &mut small_snap).unwrap();

        let full_size = full_snap.size_bytes().unwrap();
        let small_size = small_snap.size_bytes().unwrap();
        assert!(
            small_size + (1 << 15) < full_size,
            "exclusion must drop the scratch section ({small_size} vs {full_size})"
        );
        assert_eq!(small_snap.param("excluded"), Some("scratch"));

        // Restart sees the kept sections only.
        let restored = pruned.restart(&small_snap).unwrap();
        assert!(restored.section("app").is_some());
        assert!(restored.section("pml").is_some());
        assert!(restored.section("scratch").is_none());
    }

    #[test]
    fn empty_and_unknown_exclusions_are_harmless() {
        let params = McaParams::new();
        params.set("crs_blcr_sim_exclude", " , nonexistent ,");
        let crs = BlcrSim::from_params(&params);
        let mut image = ProcessImage::new();
        image.insert("app", vec![5u8; 16]);
        let dir = tmpdir("harmless");
        let mut snap = LocalSnapshot::create(&dir, Rank(0), "blcr_sim", 0, "n0").unwrap();
        crs.checkpoint(&image, &mut snap).unwrap();
        let restored = crs.restart(&snap).unwrap();
        assert_eq!(restored.section("app"), Some(&[5u8; 16][..]));
    }
}
