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
//! Both checkpointing components write the same context. By default it is
//! the complete [`ProcessImage`] (`ckpt_kind=full`). With
//! `filem_dedup_enabled` (`ckpt_kind=dedup`) the CRS cuts each section
//! into fixed-size chunks ([`codec::chunk`], sized by `crs_incr_chunk_kb`),
//! digests them once over the hash pool, and records the resulting
//! manifest in the snapshot metadata. The context is then a *pack*: a
//! [`ProcessImage`] whose sections are chunks named by
//! [`ChunkId::render`], holding each distinct chunk the request's *base*
//! lacks. The base is the newest globally committed interval, when it has
//! chunk manifests. When it is the interval this CRS last wrote, the
//! chunks of that manifest are in the content-addressed store
//! ([`crate::store`]) already and stay out of the pack. With no base (or another one) the
//! pack holds every distinct chunk, so manifest + pack restores on its
//! own ([`CrsComponent::restart`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mca::{Framework, McaParams};
use parking_lot::Mutex;

use cr_core::snapshot::LocalSnapshot;
use cr_core::{CrError, FtEventState};

use crate::image::ProcessImage;
use crate::store::ChunkId;

/// Snapshot metadata key: `"full"`, or `"dedup"` when the context is a
/// chunk pack described by a recorded manifest.
const PARAM_KIND: &str = "ckpt_kind";
/// Snapshot metadata key: rendered [`codec::ChunkManifest`] of the image
/// (only written in dedup mode).
pub const PARAM_MANIFEST: &str = "manifest";

/// Dedup-mode capture of one CRS instance (`filem_dedup_enabled`).
#[derive(Debug)]
struct DedupCapture {
    /// Chunk size in bytes (`crs_incr_chunk_kb` × 1024).
    chunk_bytes: usize,
    /// Hash lanes (`opal_hash_workers`).
    workers: usize,
    /// Interval and distinct chunk ids of the last manifest this CRS
    /// wrote: what a pack against that interval as base leaves out.
    last: Mutex<Option<(u64, HashSet<ChunkId>)>>,
}

impl DedupCapture {
    /// `Some` when `filem_dedup_enabled` is set (defaults mirror the
    /// registry).
    fn from_params(params: &McaParams) -> Option<Self> {
        params
            .get_bool_or("filem_dedup_enabled", false)
            .unwrap_or(false)
            .then(|| DedupCapture {
                chunk_bytes: params
                    .get_parsed_or("crs_incr_chunk_kb", 4u64)
                    .unwrap_or(4)
                    .max(1) as usize
                    * 1024,
                workers: crate::pool::hash_workers(params),
                last: Mutex::new(None),
            })
    }

    /// Record `image`'s manifest in `snapshot` and write the pack of its
    /// distinct chunks that `base` lacks as the context.
    fn write(
        &self,
        image: &ProcessImage,
        snapshot: &mut LocalSnapshot,
        base: Option<u64>,
    ) -> Result<(), CrError> {
        let sections: Vec<(&str, &[u8])> = image.iter().collect();
        let manifest = crate::pool::manifest_parallel(&sections, self.chunk_bytes, self.workers);
        let mut last = self.last.lock();
        let stored = last
            .as_ref()
            .filter(|(interval, _)| Some(*interval) == base)
            .map(|(_, ids)| ids);
        let mut ids = HashSet::new();
        let mut pack = Vec::new();
        for ((_, bytes), sec) in sections.iter().zip(&manifest.sections) {
            for (chunk, rec) in bytes.chunks(self.chunk_bytes).zip(&sec.chunks) {
                let id = ChunkId::from(rec);
                if ids.insert(id) && !stored.is_some_and(|s| s.contains(&id)) {
                    pack.push((id.render(), chunk.to_vec()));
                }
            }
        }
        snapshot.write_context(&ProcessImage::from_distinct(pack).to_context())?;
        snapshot.set_param(PARAM_MANIFEST, &manifest.render());
        *last = Some((snapshot.interval(), ids));
        Ok(())
    }
}

/// Write `image` into `snapshot` — whole, or as manifest + pack in dedup
/// mode — and record its kind and section names.
fn write_image(
    image: &ProcessImage,
    snapshot: &mut LocalSnapshot,
    dedup: Option<&DedupCapture>,
    base: Option<u64>,
) -> Result<(), CrError> {
    match dedup {
        Some(capture) => capture.write(image, snapshot, base)?,
        None => snapshot.write_context(&image.to_context())?,
    }
    snapshot.set_param(PARAM_KIND, if dedup.is_some() { "dedup" } else { "full" });
    snapshot.set_param("sections", &image.names().join(","));
    Ok(())
}

/// Decode `context`, the frame payload of `snapshot`'s context file read
/// by the caller, into its whole image (what both components' `restart`
/// does). A `ckpt_kind=dedup` snapshot is reassembled from
/// its manifest and pack (a whole pack, as the daemon-less `direct` SNAPC
/// of earlier builds committed it to stable storage). Two contexts are refused by name instead of
/// failing somewhere inside the decoder: a pack that does not cover its
/// manifest (it was cut against a base interval, so it restores only
/// through the chunk store), and `ckpt_kind=delta`, a link of a base→delta
/// chain an older build wrote.
fn read_full_image(snapshot: &LocalSnapshot, context: &[u8]) -> Result<ProcessImage, CrError> {
    let refuse = |why: String| CrError::BadSnapshot {
        detail: format!(
            "rank {} interval {} {why}",
            snapshot.rank(),
            snapshot.interval()
        ),
    };
    let kind = snapshot.param(PARAM_KIND);
    if kind == Some("delta") {
        return Err(refuse(
            "is a delta-chain context written by an older build; this build \
             restores only self-contained (full or dedup) intervals"
                .into(),
        ));
    }
    let context = ProcessImage::from_bytes(context)?;
    if kind != Some("dedup") {
        return Ok(context);
    }
    let rendered = snapshot
        .param(PARAM_MANIFEST)
        .ok_or_else(|| refuse("is a dedup context with no chunk manifest".into()))?;
    let manifest = codec::ChunkManifest::parse(rendered).map_err(CrError::Codec)?;
    // Older builds wrote the whole image as a dedup context.
    if context
        .names()
        .into_iter()
        .eq(manifest.sections.iter().map(|s| s.name.as_str()))
    {
        return Ok(context);
    }
    let pack: HashMap<ChunkId, &[u8]> = context
        .iter()
        .filter_map(|(name, bytes)| Some((ChunkId::parse(name)?, bytes)))
        .collect();
    ProcessImage::assemble(&manifest, |id| pack.get(id).copied()).map_err(|e| {
        refuse(format!(
            "is a dedup pack that does not cover its manifest ({e}); it was \
             cut against a base interval and restores only through the chunk store"
        ))
    })
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
    /// component-specific parameters. `base` is the newest globally
    /// committed interval when it has chunk manifests, as the coordinator
    /// saw it (dedup mode packs only what it lacks; `None` packs every
    /// chunk).
    /// The caller [`finish`](LocalSnapshot::finish)es the snapshot.
    fn checkpoint(
        &self,
        image: &ProcessImage,
        snapshot: &mut LocalSnapshot,
        base: Option<u64>,
    ) -> Result<(), CrError>;

    /// Reconstruct a process image from `snapshot` and `context`, the
    /// frame payload of its context file (checksum already checked:
    /// [`LocalSnapshot::read_context`], or the same file held in memory).
    fn restart(&self, snapshot: &LocalSnapshot, context: &[u8]) -> Result<ProcessImage, CrError>;

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
    /// Set in dedup mode: write manifest + pack instead of the image.
    dedup: Option<DedupCapture>,
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
            dedup: DedupCapture::from_params(params),
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
        base: Option<u64>,
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
        write_image(image, snapshot, self.dedup.as_ref(), base)?;
        if !self.exclude.is_empty() {
            snapshot.set_param("excluded", &self.exclude.join(","));
        }
        Ok(())
    }

    fn restart(&self, snapshot: &LocalSnapshot, context: &[u8]) -> Result<ProcessImage, CrError> {
        read_full_image(snapshot, context)
    }
}

// ---------------------------------------------------------------------------
// self
// ---------------------------------------------------------------------------

/// The SELF component: application-level checkpointing callbacks around a
/// capture that otherwise matches `blcr_sim`'s on-disk format.
pub struct SelfCrs {
    callbacks: Arc<SelfCallbacks>,
    dedup: Option<DedupCapture>,
}

impl SelfCrs {
    /// Build with dedup mode as the MCA parameters say.
    pub fn from_params(callbacks: Arc<SelfCallbacks>, params: &McaParams) -> Self {
        SelfCrs {
            callbacks,
            dedup: DedupCapture::from_params(params),
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
        base: Option<u64>,
    ) -> Result<(), CrError> {
        SelfCallbacks::fire(&self.callbacks.on_checkpoint)?;
        write_image(image, snapshot, self.dedup.as_ref(), base)
    }

    fn restart(&self, snapshot: &LocalSnapshot, context: &[u8]) -> Result<ProcessImage, CrError> {
        read_full_image(snapshot, context)
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
        _base: Option<u64>,
    ) -> Result<(), CrError> {
        Err(CrError::Unsupported {
            detail: "the none CRS component cannot take checkpoints".into(),
        })
    }

    fn restart(&self, _snapshot: &LocalSnapshot, _context: &[u8]) -> Result<ProcessImage, CrError> {
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

    /// `crs` restarts `snapshot` from its context file.
    pub(super) fn reread(
        crs: &dyn CrsComponent,
        snapshot: &LocalSnapshot,
    ) -> Result<ProcessImage, CrError> {
        crs.restart(snapshot, &snapshot.read_context()?)
    }

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
        crs.checkpoint(&img, &mut snap, None).unwrap();
        let restored = reread(&crs, &snap).unwrap();
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
        assert!(crs.checkpoint(&img, &mut snap, None).is_ok()); // 1
        assert!(crs.checkpoint(&img, &mut snap, None).is_ok()); // 2
        assert!(crs.checkpoint(&img, &mut snap, None).is_err()); // 3 fails
        assert!(crs.checkpoint(&img, &mut snap, None).is_ok()); // 4
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
        crs.checkpoint(&sample_image(), &mut snap, None).unwrap();
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
        assert!(crs.checkpoint(&sample_image(), &mut snap, None).is_err());
        // No context file must have been written.
        assert!(!snap.context_path().exists());
    }

    #[test]
    fn none_component_refuses_everything() {
        let dir = tmpdir("none");
        let crs = NoneCrs;
        assert!(!crs.can_checkpoint());
        let mut snap = LocalSnapshot::create(&dir, Rank(0), crs.name(), 0, "node00").unwrap();
        assert!(crs.checkpoint(&sample_image(), &mut snap, None).is_err());
        assert!(crs.restart(&snap, &[]).is_err());
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
        blcr.checkpoint(&img, &mut snap, None).unwrap();
        assert_eq!(reread(&selfcrs, &snap).unwrap(), img);
    }

    #[test]
    fn default_mode_writes_plain_full_images_and_hashes_nothing() {
        let dir = tmpdir("fullmode");
        assert!(DedupCapture::from_params(&McaParams::new()).is_none());
        let crs = BlcrSim::from_params(&McaParams::new());
        let img = sample_image();
        for interval in 0..3 {
            let parent = dir.join(format!("i{interval}"));
            let mut s =
                LocalSnapshot::create(&parent, Rank(0), crs.name(), interval, "node00").unwrap();
            crs.checkpoint(&img, &mut s, None).unwrap();
            assert_eq!(s.param(PARAM_KIND), Some("full"));
            assert!(s.param(PARAM_MANIFEST).is_none(), "no manifest");
            assert_eq!(reread(&crs, &s).unwrap(), img);
        }
    }

    fn dedup_crs(chunk_kb: &str) -> SelfCrs {
        let params = McaParams::new();
        params.set("filem_dedup_enabled", "true");
        params.set("crs_incr_chunk_kb", chunk_kb);
        SelfCrs::from_params(SelfCallbacks::new(), &params)
    }

    /// Checkpoint `img` as `interval` against `base`; the finished
    /// snapshot, its manifest and its context's size on disk.
    fn dedup_checkpoint(
        crs: &SelfCrs,
        dir: &std::path::Path,
        img: &ProcessImage,
        interval: u64,
        base: Option<u64>,
    ) -> (LocalSnapshot, codec::ChunkManifest, u64) {
        let parent = dir.join(format!("i{interval}"));
        let mut s =
            LocalSnapshot::create(&parent, Rank(0), crs.name(), interval, "node00").unwrap();
        crs.checkpoint(img, &mut s, base).unwrap();
        s.finish().unwrap();
        assert_eq!(s.param(PARAM_KIND), Some("dedup"));
        let manifest = codec::ChunkManifest::parse(s.param(PARAM_MANIFEST).unwrap()).unwrap();
        let on_disk = std::fs::metadata(s.context_path()).unwrap().len();
        (s, manifest, on_disk)
    }

    /// 1 MiB of bytes no two 4 KiB chunks of which are equal.
    fn distinct_mib() -> Vec<u8> {
        (0..1u64 << 20)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8 ^ (i >> 12) as u8)
            .collect()
    }

    #[test]
    fn dedup_without_a_base_packs_each_distinct_chunk_once_and_restores_alone() {
        assert_eq!(
            DedupCapture::from_params(&{
                let p = McaParams::new();
                p.set("filem_dedup_enabled", "true");
                p
            })
            .map(|c| c.chunk_bytes),
            Some(4096),
            "default mirrors the registry"
        );
        let dir = tmpdir("dedupnobase");
        let crs = dedup_crs("1");
        let mut img = ProcessImage::new();
        // Two equal chunks, then a distinct one.
        img.insert("app", [vec![7u8; 2048], vec![9u8; 1024]].concat());
        let (s, manifest, _) = dedup_checkpoint(&crs, &dir, &img, 0, None);
        assert_eq!(manifest.chunk_bytes, 1024);
        assert_eq!(manifest.total_bytes(), 3072);
        let pack = ProcessImage::from_bytes(&s.read_context().unwrap()).unwrap();
        assert_eq!(
            pack.len(),
            2,
            "one copy of the repeated chunk: {:?}",
            pack.names()
        );
        assert_eq!(pack.total_bytes(), 2048);
        for (name, bytes) in pack.iter() {
            assert_eq!(ChunkId::parse(name), Some(ChunkId::of(bytes)));
        }
        // Manifest + pack restore on their own.
        assert_eq!(reread(&crs, &s).unwrap(), img);
    }

    #[test]
    fn dedup_against_the_last_interval_written_packs_only_the_dirty_chunks() {
        const MIB: u64 = 1 << 20;
        let dir = tmpdir("dedupbase");
        let crs = dedup_crs("4");
        let mut img = ProcessImage::new();
        img.insert("app", distinct_mib());
        let (_, _, cold) = dedup_checkpoint(&crs, &dir, &img, 0, None);
        assert!(cold >= MIB, "no base: every chunk packed ({cold} B)");

        let mut app = img.section("app").unwrap().to_vec();
        for b in &mut app[300_000..300_000 + MIB as usize / 10] {
            *b = b.wrapping_add(1);
        }
        img.insert("app", app);
        let (s, _, warm) = dedup_checkpoint(&crs, &dir, &img, 1, Some(0));
        assert!(warm <= MIB * 15 / 100, "10 % dirty packs {warm} B of {MIB}");
        // The pack alone does not cover its manifest: refused by name.
        let err = reread(&crs, &s).unwrap_err();
        assert!(matches!(err, CrError::BadSnapshot { .. }), "{err}");
        assert!(
            err.to_string().contains("does not cover its manifest"),
            "{err}"
        );
    }

    #[test]
    fn dedup_against_any_other_base_packs_every_distinct_chunk() {
        let dir = tmpdir("dedupother");
        let crs = dedup_crs("4");
        let mut img = ProcessImage::new();
        img.insert("app", distinct_mib());
        let (_, _, cold) = dedup_checkpoint(&crs, &dir, &img, 0, None);
        // The base is never the interval written just before (say that
        // one failed to commit, so an older one is the newest committed):
        // nothing may be left out.
        for (interval, base) in [(1, Some(7)), (2, Some(0)), (3, None)] {
            let (s, _, size) = dedup_checkpoint(&crs, &dir, &img, interval, base);
            assert_eq!(size, cold, "interval {interval} base {base:?}");
            assert_eq!(reread(&crs, &s).unwrap(), img);
        }
        // Against the interval written last, the same image packs nothing.
        let (_, _, size) = dedup_checkpoint(&crs, &dir, &img, 4, Some(3));
        assert!(size < cold / 100, "{size} B");
    }

    #[test]
    fn dedup_context_an_older_build_wrote_whole_still_restores() {
        let dir = tmpdir("dedupold");
        let img = sample_image();
        let mut s = LocalSnapshot::create(&dir, Rank(0), "self", 2, "node00").unwrap();
        s.write_context(&img.to_context()).unwrap();
        s.set_param(PARAM_KIND, "dedup");
        let sections: Vec<(&str, &[u8])> = img.iter().collect();
        s.set_param(
            PARAM_MANIFEST,
            &codec::ChunkManifest::of_sections(sections, 4096).render(),
        );
        s.finish().unwrap();
        assert_eq!(
            reread(
                &SelfCrs::from_params(SelfCallbacks::new(), &McaParams::new()),
                &LocalSnapshot::open(s.dir()).unwrap()
            )
            .unwrap(),
            img
        );
    }

    #[test]
    fn context_file_is_the_image_bytes_plus_a_frame_and_still_checksummed() {
        const MIB: usize = 1 << 20;
        let dir = tmpdir("rawctx");
        let crs = BlcrSim::from_params(&McaParams::new());
        let mut snap = LocalSnapshot::create(&dir, Rank(0), crs.name(), 0, "node00").unwrap();
        let mut img = ProcessImage::new();
        img.insert("app", (0..MIB).map(|i| (i * 31 % 251) as u8).collect());
        crs.checkpoint(&img, &mut snap, None).unwrap();
        let path = snap.context_path();
        let on_disk = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(
            (MIB..=MIB + MIB / 100).contains(&on_disk),
            "context of a 1 MiB section is {on_disk} B"
        );
        assert_eq!(reread(&crs, &snap).unwrap(), img);

        // A flipped payload byte, deep inside the raw run, is still caught.
        let mut raw = std::fs::read(&path).unwrap();
        raw[MIB / 2] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            reread(&crs, &snap),
            Err(CrError::BadSnapshot { detail }) if detail.contains("checksum mismatch")
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
        let err = reread(&BlcrSim::from_params(&McaParams::new()), &reopened).unwrap_err();
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
    use super::tests::reread;
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
        full.checkpoint(&image, &mut full_snap, None).unwrap();

        params.set("crs_blcr_sim_exclude", "scratch");
        let pruned = BlcrSim::from_params(&params);
        let dir2 = tmpdir("shrink2");
        let mut small_snap = LocalSnapshot::create(&dir2, Rank(0), "blcr_sim", 0, "n0").unwrap();
        pruned.checkpoint(&image, &mut small_snap, None).unwrap();

        let full_size = full_snap.size_bytes().unwrap();
        let small_size = small_snap.size_bytes().unwrap();
        assert!(
            small_size + (1 << 15) < full_size,
            "exclusion must drop the scratch section ({small_size} vs {full_size})"
        );
        assert_eq!(small_snap.param("excluded"), Some("scratch"));

        // Restart sees the kept sections only.
        let restored = reread(&pruned, &small_snap).unwrap();
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
        crs.checkpoint(&image, &mut snap, None).unwrap();
        let restored = reread(&crs, &snap).unwrap();
        assert_eq!(restored.section("app"), Some(&[5u8; 16][..]));
    }
}
