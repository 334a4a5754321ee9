//! Content-addressed chunk store: digest-keyed blobs with refcount GC.
//!
//! In dedup mode the CRS ([`crate::crs`]) digests every chunk of every
//! capture section once, into the manifest it records, and packs only the
//! distinct chunks its base interval lacks; this module promotes that
//! digest to the *storage key*.  A [`ChunkId`] names a chunk by
//! `(digest, len)`; a [`ChunkStore`]
//! holds one frame-wrapped blob per distinct id plus a persisted refcount
//! table.  Identical chunks — across ranks of an SPMD job, or across
//! checkpoint intervals — are stored once and shared by every manifest that
//! references them.
//!
//! # Refcount lifecycle
//!
//! * **Commit:** blobs are [`insert`](ChunkStore::insert)ed and
//!   [`incref`](ChunkStore::incref_all)ed *before* the interval's manifest
//!   is recorded in the global snapshot metadata, so a manifest never
//!   references a chunk the store could sweep.
//! * **Retire:** the snapshot authority first drops the interval's manifest
//!   record, then [`decref`](ChunkStore::decref_all)s its chunks, then
//!   [`sweep`](ChunkStore::sweep)s count-zero blobs.  A crash between any
//!   two steps leaks at worst (a later sweep reclaims); it never dangles.
//!
//! That ordering is model-checked by the `gc` model in `cr-model`
//! (invariant: no chunk referenced by a live manifest is ever missing from
//! the store) and exercised randomly by the dedup proptests.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cr_core::snapshot::replace_file;
use cr_core::CrError;
use parking_lot::Mutex;

/// File holding the persisted refcount table inside a store directory.
const REFCOUNT_FILE: &str = "refcounts.meta";
/// Metadata section name inside [`REFCOUNT_FILE`].
const REFCOUNT_SECTION: &str = "refcounts";
/// Extension of blob files (one per distinct chunk id).
const BLOB_EXT: &str = "blob";

/// Content address of one chunk: its 64-bit digest plus its length.
///
/// The digest is [`codec::chunk_digest`] — the same one the chunk
/// manifests record — with the length as a collision backstop and
/// so callers can size fetches without reading blobs.  Rendered as
/// `{digest:016x}-{len}`, which is also the blob file stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId {
    /// Content digest of the chunk bytes ([`codec::chunk_digest`]).
    pub digest: u64,
    /// Chunk length in bytes.
    pub len: u32,
}
codec::wire_struct!(ChunkId { digest, len });

impl ChunkId {
    /// The content address of `bytes`.
    pub fn of(bytes: &[u8]) -> ChunkId {
        ChunkId {
            digest: codec::chunk_digest(bytes),
            len: bytes.len() as u32,
        }
    }

    /// Canonical text form: `{digest:016x}-{len}` (also the blob file stem).
    pub fn render(&self) -> String {
        format!("{:016x}-{}", self.digest, self.len)
    }

    /// Parse the [`render`](ChunkId::render) form back.
    pub fn parse(text: &str) -> Option<ChunkId> {
        let (digest, len) = text.split_once('-')?;
        Some(ChunkId {
            digest: u64::from_str_radix(digest, 16).ok()?,
            len: len.parse().ok()?,
        })
    }
}

impl From<&codec::chunk::ChunkRecord> for ChunkId {
    /// The content address a manifest records for one chunk.
    fn from(rec: &codec::chunk::ChunkRecord) -> ChunkId {
        ChunkId {
            digest: rec.digest,
            len: rec.len,
        }
    }
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// A directory of content-addressed, frame-wrapped chunk blobs with a
/// persisted refcount table.  This is the *stable* tier; the replica
/// (peer-memory) tier lives in `orte::replica::ReplicaStore`.
pub struct ChunkStore {
    dir: PathBuf,
    refs: Mutex<BTreeMap<ChunkId, u64>>,
}

impl ChunkStore {
    /// Open (creating if needed) the store rooted at `dir` and load its
    /// refcount table.
    pub fn open(dir: &Path) -> Result<ChunkStore, CrError> {
        std::fs::create_dir_all(dir).map_err(|e| CrError::io(dir.display().to_string(), &e))?;
        let mut refs = BTreeMap::new();
        let ref_path = dir.join(REFCOUNT_FILE);
        if ref_path.exists() {
            let text = std::fs::read_to_string(&ref_path)
                .map_err(|e| CrError::io(ref_path.display().to_string(), &e))?;
            let doc = codec::MetaDoc::parse(&text).map_err(CrError::Codec)?;
            for (key, value) in doc.section_map(REFCOUNT_SECTION) {
                let id = ChunkId::parse(&key).ok_or_else(|| CrError::BadSnapshot {
                    detail: format!("chunk store: bad refcount key {key:?}"),
                })?;
                let count: u64 = value.parse().map_err(|_| CrError::BadSnapshot {
                    detail: format!("chunk store: bad refcount value {value:?} for {key}"),
                })?;
                refs.insert(id, count);
            }
        }
        Ok(ChunkStore {
            dir: dir.to_path_buf(),
            refs: Mutex::new(refs),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn blob_path(&self, id: &ChunkId) -> PathBuf {
        self.dir.join(format!("{}.{BLOB_EXT}", id.render()))
    }

    fn save_refs(&self, refs: &BTreeMap<ChunkId, u64>) -> Result<(), CrError> {
        let mut doc = codec::MetaDoc::new();
        for (id, count) in refs {
            doc.set(REFCOUNT_SECTION, &id.render(), &count.to_string());
        }
        replace_file(&self.dir.join(REFCOUNT_FILE), doc.render().as_bytes())
    }

    /// Store `bytes` under their content address.  Returns the id and
    /// whether a new blob was written (`false` = dedup hit, the blob was
    /// already present).  Does **not** take a reference — pair with
    /// [`incref_all`](ChunkStore::incref_all) before recording a manifest.
    pub fn insert(&self, bytes: &[u8]) -> Result<(ChunkId, bool), CrError> {
        let id = ChunkId::of(bytes);
        let mut scratch = Vec::new();
        let fresh = self.insert_precomputed(&id, bytes, &mut scratch)?;
        Ok((id, fresh))
    }

    /// Store `bytes` under the *caller-computed* address `id`, framing
    /// through `scratch` so hot paths reuse one buffer across inserts
    /// (see [`crate::pool::insert_all_parallel`]). Returns whether a new blob was
    /// written. The caller vouches that `id == ChunkId::of(bytes)` — the
    /// dedup commit path verifies digests over the parallel hash pool
    /// before fanning inserts out, so re-digesting here would double the
    /// hash cost of every fresh chunk.
    pub fn insert_precomputed(
        &self,
        id: &ChunkId,
        bytes: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<bool, CrError> {
        if self.contains(id) {
            return Ok(false);
        }
        codec::write_frame_into(scratch, bytes);
        replace_file(&self.blob_path(id), scratch)?;
        Ok(true)
    }

    /// True when a whole blob for `id` is present. A file of any other
    /// length than `id`'s frame is a write cut short (by a crash, by a
    /// build that wrote blobs in place): it counts as absent, so the next
    /// insert rewrites it instead of every later interval deduplicating
    /// against bytes [`get`](ChunkStore::get) will refuse.
    pub fn contains(&self, id: &ChunkId) -> bool {
        let whole = (codec::frame::HEADER_LEN + id.len as usize) as u64;
        std::fs::metadata(self.blob_path(id)).is_ok_and(|m| m.len() == whole)
    }

    /// The subset of `ids` that have no blob in this store yet.
    pub fn missing(&self, ids: &[ChunkId]) -> Vec<ChunkId> {
        ids.iter().filter(|id| !self.contains(id)).copied().collect()
    }

    /// Read and digest-verify the blob for `id`.
    pub fn get(&self, id: &ChunkId) -> Result<Vec<u8>, CrError> {
        let path = self.blob_path(id);
        let framed = std::fs::read(&path)
            .map_err(|e| CrError::io(path.display().to_string(), &e))?;
        let bytes = codec::read_frame(&framed).map_err(CrError::Codec)?.to_vec();
        let actual = ChunkId::of(&bytes);
        if actual != *id {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "chunk {} failed digest verification (stored bytes hash to {})",
                    id, actual
                ),
            });
        }
        Ok(bytes)
    }

    /// Take one reference on each of `ids` and persist the table.  Ids may
    /// repeat (one reference per occurrence, so a manifest using the same
    /// chunk twice holds it twice).
    pub fn incref_all(&self, ids: &[ChunkId]) -> Result<(), CrError> {
        let mut refs = self.refs.lock();
        for id in ids {
            *refs.entry(*id).or_insert(0) += 1;
        }
        self.save_refs(&refs)
    }

    /// Drop one reference on each of `ids` (saturating at zero) and persist
    /// the table.  Blobs are not deleted here — that is
    /// [`sweep`](ChunkStore::sweep)'s job, so a crash between decrement and
    /// sweep leaks at worst.
    pub fn decref_all(&self, ids: &[ChunkId]) -> Result<(), CrError> {
        let mut refs = self.refs.lock();
        for id in ids {
            if let Some(count) = refs.get_mut(id) {
                *count = count.saturating_sub(1);
            }
        }
        self.save_refs(&refs)
    }

    /// Current reference count of `id` (zero when unknown).
    pub fn refcount(&self, id: &ChunkId) -> u64 {
        self.refs.lock().get(id).copied().unwrap_or(0)
    }

    /// Delete up to `batch` count-zero blobs and drop their table entries.
    /// Returns the ids removed.  Blobs on disk with no table entry count as
    /// zero (a crash between insert and incref leaves exactly that state).
    pub fn sweep(&self, batch: usize) -> Result<Vec<ChunkId>, CrError> {
        let mut refs = self.refs.lock();
        let mut removed = Vec::new();
        for id in self.disk_ids()? {
            if removed.len() >= batch {
                break;
            }
            if refs.get(&id).copied().unwrap_or(0) == 0 {
                let path = self.blob_path(&id);
                std::fs::remove_file(&path)
                    .map_err(|e| CrError::io(path.display().to_string(), &e))?;
                refs.remove(&id);
                removed.push(id);
            }
        }
        if !removed.is_empty() {
            self.save_refs(&refs)?;
        }
        Ok(removed)
    }

    /// Ids of every blob currently on disk, in id order.
    pub fn disk_ids(&self) -> Result<Vec<ChunkId>, CrError> {
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| CrError::io(self.dir.display().to_string(), &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| CrError::io(self.dir.display().to_string(), &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(&format!(".{BLOB_EXT}")) {
                if let Some(id) = ChunkId::parse(stem) {
                    ids.push(id);
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Number of distinct blobs on disk.
    pub fn chunk_count(&self) -> Result<usize, CrError> {
        Ok(self.disk_ids()?.len())
    }

    /// Total payload bytes of all blobs on disk (sum of chunk lengths, not
    /// file sizes, so frame overhead is excluded).
    pub fn total_bytes(&self) -> Result<u64, CrError> {
        Ok(self.disk_ids()?.iter().map(|id| u64::from(id.len)).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("opal_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn chunk_id_render_parse_roundtrip() {
        let id = ChunkId::of(b"hello world");
        let back = ChunkId::parse(&id.render()).unwrap();
        assert_eq!(back, id);
        assert_eq!(id.len, 11);
        assert!(ChunkId::parse("nope").is_none());
        assert!(ChunkId::parse("zz-4").is_none());
        assert!(ChunkId::parse("00ff-x").is_none());
    }

    #[test]
    fn insert_dedups_identical_bytes() {
        let store = ChunkStore::open(&tmp("dedup")).unwrap();
        let (a, fresh_a) = store.insert(b"same bytes").unwrap();
        let (b, fresh_b) = store.insert(b"same bytes").unwrap();
        assert_eq!(a, b);
        assert!(fresh_a);
        assert!(!fresh_b, "second insert of identical bytes must be a hit");
        assert_eq!(store.chunk_count().unwrap(), 1);
        assert_eq!(store.get(&a).unwrap(), b"same bytes");
    }

    #[test]
    fn get_detects_corruption() {
        let store = ChunkStore::open(&tmp("corrupt")).unwrap();
        let (id, _) = store.insert(b"precious").unwrap();
        // Re-frame different bytes under the same file name: the frame CRC
        // passes but the content digest no longer matches the id.
        std::fs::write(store.blob_path(&id), codec::write_frame(b"impostor")).unwrap();
        let err = store.get(&id).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
    }

    #[test]
    fn blob_cut_short_is_absent_and_the_next_insert_rewrites_it() {
        let store = ChunkStore::open(&tmp("tornblob")).unwrap();
        let bytes = [0xABu8; 300];
        let id = ChunkId::of(&bytes);
        // What a crash mid-write left at the blob's own path.
        let framed = codec::write_frame(&bytes);
        std::fs::write(store.blob_path(&id), &framed[..framed.len() / 2]).unwrap();
        assert!(!store.contains(&id));
        assert_eq!(store.missing(&[id]), vec![id]);
        assert_eq!(store.insert(&bytes).unwrap(), (id, true), "not a dedup hit");
        assert_eq!(store.get(&id).unwrap(), bytes);
        assert_eq!(store.insert(&bytes).unwrap(), (id, false));
        // A write in flight is not a blob to the listing or the sweep.
        std::fs::write(
            store.dir().join(format!("{}.blob.tmp", id.render())),
            b"cut",
        )
        .unwrap();
        assert_eq!(store.disk_ids().unwrap(), vec![id]);
        assert_eq!(store.sweep(64).unwrap(), vec![id]);
        assert_eq!(store.chunk_count().unwrap(), 0);
    }

    #[test]
    fn stale_refcount_temp_file_is_ignored_by_open_and_replaced_by_the_next_write() {
        let dir = tmp("staletmp");
        let id = {
            let store = ChunkStore::open(&dir).unwrap();
            let (id, _) = store.insert(b"counted").unwrap();
            store.incref_all(&[id]).unwrap();
            id
        };
        let stale = dir.join(format!("{REFCOUNT_FILE}.tmp"));
        std::fs::write(&stale, b"[refcounts]\n0000").unwrap();
        let store = ChunkStore::open(&dir).unwrap();
        assert_eq!(store.refcount(&id), 1);
        store.incref_all(&[id]).unwrap();
        assert!(!stale.exists());
        assert_eq!(ChunkStore::open(&dir).unwrap().refcount(&id), 2);
    }

    #[test]
    fn refcounts_persist_across_reopen() {
        let dir = tmp("persist");
        let id;
        {
            let store = ChunkStore::open(&dir).unwrap();
            let (i, _) = store.insert(b"counted").unwrap();
            id = i;
            store.incref_all(&[id, id]).unwrap();
        }
        let store = ChunkStore::open(&dir).unwrap();
        assert_eq!(store.refcount(&id), 2);
        store.decref_all(&[id]).unwrap();
        assert_eq!(store.refcount(&id), 1);
    }

    #[test]
    fn sweep_removes_only_count_zero_blobs() {
        let store = ChunkStore::open(&tmp("sweep")).unwrap();
        let (live, _) = store.insert(b"live chunk").unwrap();
        let (dead, _) = store.insert(b"dead chunk").unwrap();
        store.incref_all(&[live, dead]).unwrap();
        store.decref_all(&[dead]).unwrap();
        let removed = store.sweep(64).unwrap();
        assert_eq!(removed, vec![dead]);
        assert!(store.contains(&live));
        assert!(!store.contains(&dead));
        assert_eq!(store.refcount(&live), 1);
        // A second sweep finds nothing.
        assert!(store.sweep(64).unwrap().is_empty());
    }

    #[test]
    fn sweep_respects_batch_and_reclaims_orphans() {
        let store = ChunkStore::open(&tmp("batch")).unwrap();
        // Orphans: inserted, never incref'd (crash between insert and
        // incref leaves exactly this state).
        for i in 0..5u8 {
            store.insert(&[i; 32]).unwrap();
        }
        assert_eq!(store.sweep(2).unwrap().len(), 2);
        assert_eq!(store.sweep(64).unwrap().len(), 3);
        assert_eq!(store.chunk_count().unwrap(), 0);
    }

    #[test]
    fn missing_and_totals() {
        let store = ChunkStore::open(&tmp("missing")).unwrap();
        let (have, _) = store.insert(&[1u8; 100]).unwrap();
        let want = ChunkId::of(&[2u8; 200]);
        assert_eq!(store.missing(&[have, want]), vec![want]);
        assert_eq!(store.total_bytes().unwrap(), 100);
    }
}
