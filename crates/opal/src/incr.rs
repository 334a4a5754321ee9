//! The context writer every CRS component delegates to.
//!
//! A checkpoint interval is [`CkptKind::Full`] or [`CkptKind::Dedup`], and
//! either restores from itself alone: the context file always holds the
//! complete [`ProcessImage`]. With `filem_dedup_enabled` the engine also
//! cuts each section into fixed-size chunks ([`codec::chunk`], sized by
//! `crs_incr_chunk_kb`), digests them over the hash pool, and records the
//! resulting manifest in the snapshot metadata — the key the commit path
//! uses to move only never-before-seen chunks into the content-addressed
//! store ([`crate::store`]). No interval depends on an earlier one.

use mca::McaParams;

use cr_core::snapshot::LocalSnapshot;
use cr_core::CrError;

use crate::image::ProcessImage;

/// Snapshot metadata key: `"full"` or `"dedup"`.
pub const PARAM_KIND: &str = "ckpt_kind";
/// Snapshot metadata key: rendered [`codec::ChunkManifest`] of the image
/// (only written in dedup mode).
pub const PARAM_MANIFEST: &str = "manifest";

/// What a checkpoint wrote. Both kinds are complete images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptKind {
    /// Complete image, gathered whole.
    Full,
    /// Complete image whose manifest keys into the content-addressed
    /// chunk store ([`crate::store`]); restores by direct manifest→chunk
    /// fetch.
    Dedup,
}

impl CkptKind {
    /// Metadata string form.
    pub fn as_str(self) -> &'static str {
        match self {
            CkptKind::Full => "full",
            CkptKind::Dedup => "dedup",
        }
    }
}

/// The per-rank context writer CRS components delegate their encoding to.
pub struct IncrEngine {
    /// Content-addressed dedup mode (`filem_dedup_enabled`, default off).
    dedup: bool,
    /// Dedup chunk size in bytes (`crs_incr_chunk_kb` × 1024).
    chunk_bytes: usize,
    /// Hash lanes for manifest builds (`opal_hash_workers`).
    workers: usize,
}

impl IncrEngine {
    /// Engine configured from MCA parameters (defaults mirror the
    /// registry).
    pub fn from_params(params: &McaParams) -> Self {
        IncrEngine {
            dedup: params
                .get_bool_or("filem_dedup_enabled", false)
                .unwrap_or(false),
            chunk_bytes: params
                .get_parsed_or("crs_incr_chunk_kb", 4u64)
                .unwrap_or(4)
                .max(1) as usize
                * 1024,
            workers: crate::pool::hash_workers(params),
        }
    }

    /// Engine with dedup off: every checkpoint is a plain full image.
    pub fn disabled() -> Self {
        IncrEngine {
            dedup: false,
            chunk_bytes: 4 * 1024,
            workers: 1,
        }
    }

    /// Write `image` into `snapshot` as a full context and record its
    /// kind; in dedup mode also build and record the chunk manifest.
    /// Returns what was written.
    pub fn write_image(
        &self,
        image: &ProcessImage,
        snapshot: &mut LocalSnapshot,
    ) -> Result<CkptKind, CrError> {
        snapshot.write_context(&image.to_bytes()?)?;
        let kind = if self.dedup {
            CkptKind::Dedup
        } else {
            CkptKind::Full
        };
        snapshot.set_param(PARAM_KIND, kind.as_str())?;
        if self.dedup {
            let sections: Vec<(&str, &[u8])> = image.iter().collect();
            let manifest =
                crate::pool::manifest_parallel(&sections, self.chunk_bytes, self.workers);
            snapshot.set_param(PARAM_MANIFEST, &manifest.render())?;
        }
        Ok(kind)
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::Rank;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "opal_incr_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn image_of(sections: &[(&str, Vec<u8>)]) -> ProcessImage {
        let mut img = ProcessImage::new();
        for (name, bytes) in sections {
            img.insert(*name, bytes.clone());
        }
        img
    }

    fn snap(dir: &std::path::Path, interval: u64) -> LocalSnapshot {
        LocalSnapshot::create(dir, Rank(0), "blcr_sim", interval, "node00").unwrap()
    }

    #[test]
    fn default_engine_writes_plain_full_images_and_hashes_nothing() {
        let dir = tmpdir("default");
        let img = image_of(&[("app", vec![3u8; 1024])]);
        for engine in [IncrEngine::from_params(&McaParams::new()), IncrEngine::disabled()] {
            assert_eq!(engine.chunk_bytes, 4096, "default mirrors the registry");
            for interval in 0..3 {
                let mut s = snap(&dir.join(format!("i{interval}")), interval);
                assert_eq!(engine.write_image(&img, &mut s).unwrap(), CkptKind::Full);
                assert_eq!(s.param(PARAM_KIND), Some("full"));
                assert!(s.param(PARAM_MANIFEST).is_none(), "no manifest off the dedup path");
                assert_eq!(
                    ProcessImage::from_bytes(&s.read_context().unwrap()).unwrap(),
                    img
                );
            }
        }
    }

    #[test]
    fn dedup_mode_writes_self_contained_manifested_images() {
        let dir = tmpdir("dedup");
        let params = McaParams::new();
        params.set("filem_dedup_enabled", "true");
        params.set("crs_incr_chunk_kb", "1");
        let engine = IncrEngine::from_params(&params);
        let img = image_of(&[("app", vec![7u8; 4096])]);
        for interval in 0..3 {
            let mut s = snap(&dir.join(format!("i{interval}")), interval);
            assert_eq!(engine.write_image(&img, &mut s).unwrap(), CkptKind::Dedup);
            assert_eq!(s.param(PARAM_KIND), Some("dedup"));
            let manifest =
                codec::ChunkManifest::parse(s.param(PARAM_MANIFEST).expect("manifest")).unwrap();
            assert_eq!(manifest.chunk_bytes, 1024);
            assert_eq!(manifest.total_bytes(), 4096);
            // Self-contained: the context alone restores the image.
            assert_eq!(read_full_image(&s).unwrap(), img);
        }
    }

    #[test]
    fn delta_context_from_an_older_build_is_refused_by_name() {
        let dir = tmpdir("refuse");
        let mut s = snap(&dir, 1);
        // Hand-written stand-in for what an older build left on disk: a
        // context that is not an image, tagged as a delta.
        s.write_context(b"dirty chunks only").unwrap();
        s.set_param(PARAM_KIND, "delta").unwrap();
        let reopened = LocalSnapshot::open(s.dir()).unwrap();
        let err = read_full_image(&reopened).unwrap_err();
        assert!(matches!(err, CrError::BadSnapshot { .. }), "got: {err}");
        assert!(err.to_string().contains("older build"), "got: {err}");
    }
}
