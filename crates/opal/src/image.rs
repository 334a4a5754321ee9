//! The captured state of one process.
//!
//! BLCR dumps a process's address space wholesale. Our simulated processes
//! instead *register sections*: each subsystem that owns restart-relevant
//! state (the application's state object, the point-to-point layer's
//! queues and counters, the collective module, ...) contributes one named
//! byte section. The union of sections is the process image that a CRS
//! component persists into the local snapshot's context file.
//!
//! A section's bytes are a `Vec<u8>`, which the codec writes as one raw
//! run, so an encoded image is its sections' bytes verbatim plus a few
//! dozen bytes of names, tags and lengths per section — the image is as
//! opaque to the codec as a BLCR context is to Open MPI. What is *inside*
//! a section is its owner's business (the application state still encodes
//! field by field).

use codec::{ChunkManifest, Wire};

use cr_core::CrError;

use crate::store::ChunkId;

/// One named section of a process image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (e.g. `"app"`, `"pml"`).
    pub name: String,
    /// Encoded subsystem state.
    pub bytes: Vec<u8>,
}
codec::wire_struct!(Section { name, bytes });

/// A complete captured process state: ordered named sections.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessImage {
    sections: Vec<Section>,
}
codec::wire_struct!(ProcessImage { sections });

impl ProcessImage {
    /// Empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add or replace a section.
    pub fn insert(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        let name = name.into();
        if let Some(existing) = self.sections.iter_mut().find(|s| s.name == name) {
            existing.bytes = bytes;
        } else {
            self.sections.push(Section { name, bytes });
        }
    }

    /// Bytes of `name`'s section, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.bytes.as_slice())
    }

    /// Bytes of `name`'s section, or a structured error naming what exists.
    pub fn require_section(&self, name: &str) -> Result<&[u8], CrError> {
        self.section(name).ok_or_else(|| CrError::BadSnapshot {
            detail: format!(
                "process image has no {name:?} section (has: {})",
                self.names().join(", ")
            ),
        })
    }

    /// Encode `value` and store it as section `name`. Never fails; the
    /// `Result` is kept for callers that chain it.
    pub fn encode_section<T: Wire>(&mut self, name: &str, value: &T) -> Result<(), CrError> {
        self.insert(name, codec::to_bytes(value));
        Ok(())
    }

    /// Section names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// Iterate `(name, bytes)` pairs in image order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|s| (s.name.as_str(), s.bytes.as_slice()))
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections have been captured.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Total payload bytes across sections.
    pub fn total_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }

    /// Capacity that holds the encoded image without regrowing: the
    /// payload plus generous slack for names, tags and lengths.
    fn encoded_hint(&self) -> usize {
        self.total_bytes() + 64 * (self.len() + 1)
    }

    /// Encode the whole image to context-file payload bytes. Never fails;
    /// the `Result` is kept for callers that chain it.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CrError> {
        let mut out = Vec::with_capacity(self.encoded_hint());
        self.encode_into(&mut out);
        Ok(out)
    }

    /// Encode the whole image as a context file — the payload of
    /// [`ProcessImage::to_bytes`] inside its checksummed frame — built in
    /// one buffer.
    pub fn to_context(&self) -> Vec<u8> {
        codec::to_framed_bytes(self, self.encoded_hint())
    }

    /// Parse an image from context-file payload bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CrError> {
        Ok(codec::from_bytes(bytes)?)
    }

    /// An image of `sections`, in order; the caller guarantees the names
    /// are distinct (no lookup per section, unlike [`insert`](Self::insert)).
    pub(crate) fn from_distinct(sections: impl IntoIterator<Item = (String, Vec<u8>)>) -> Self {
        ProcessImage {
            sections: sections
                .into_iter()
                .map(|(name, bytes)| Section { name, bytes })
                .collect(),
        }
    }

    /// Take the image apart into its `(name, bytes)` sections, in order.
    pub fn into_sections(self) -> impl Iterator<Item = (String, Vec<u8>)> {
        self.sections.into_iter().map(|s| (s.name, s.bytes))
    }

    /// Rebuild the image `manifest` describes, taking each chunk's bytes
    /// from `chunk`. The one assembly of a manifested image: restart from
    /// the chunk tiers and from a dedup local snapshot's pack both end
    /// here. A chunk `chunk` cannot supply, or supplies at another length
    /// than the manifest records, is a [`CrError::BadSnapshot`] naming the
    /// chunk and its section.
    pub fn assemble<'a>(
        manifest: &ChunkManifest,
        chunk: impl Fn(&ChunkId) -> Option<&'a [u8]>,
    ) -> Result<ProcessImage, CrError> {
        let mut sections = Vec::with_capacity(manifest.sections.len());
        for sec in &manifest.sections {
            let chunks = sec
                .chunks
                .iter()
                .map(|rec| {
                    let id = ChunkId::from(rec);
                    chunk(&id)
                        .filter(|bytes| bytes.len() == rec.len as usize)
                        .ok_or_else(|| CrError::BadSnapshot {
                            detail: format!(
                                "section {} chunk {}: no bytes for {id}",
                                sec.name, rec.id
                            ),
                        })
                })
                .collect::<Result<Vec<&[u8]>, CrError>>()?;
            // Sized by the bytes at hand, never by a length the manifest claims.
            let assembled = chunks.concat();
            if assembled.len() as u64 != sec.total_len {
                return Err(CrError::BadSnapshot {
                    detail: format!(
                        "section {} reassembled to {} bytes, manifest says {}",
                        sec.name,
                        assembled.len(),
                        sec.total_len
                    ),
                });
            }
            sections.push((sec.name.clone(), assembled));
        }
        Ok(Self::from_distinct(sections))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace() {
        let mut img = ProcessImage::new();
        assert!(img.is_empty());
        img.insert("app", vec![1, 2, 3]);
        img.insert("pml", vec![4]);
        img.insert("app", vec![9]);
        assert_eq!(img.len(), 2);
        assert_eq!(img.section("app"), Some(&[9u8][..]));
        assert_eq!(img.section("pml"), Some(&[4u8][..]));
        assert_eq!(img.section("missing"), None);
        assert_eq!(img.names(), vec!["app", "pml"]);
        assert_eq!(img.total_bytes(), 2);
    }

    #[test]
    fn require_section_error_lists_names() {
        let mut img = ProcessImage::new();
        img.insert("app", vec![]);
        let err = img.require_section("pml").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("pml"));
        assert!(msg.contains("app"));
    }

    #[test]
    fn image_roundtrip() {
        let mut img = ProcessImage::new();
        img.insert("app", vec![0u8; 1024]);
        img.insert("pml", b"queue state".to_vec());
        let bytes = img.to_bytes().unwrap();
        let back = ProcessImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn typed_sections() {
        #[derive(Debug, PartialEq)]
        struct AppState {
            iteration: u64,
            sum: f64,
        }
        codec::wire_struct!(AppState { iteration, sum });
        let mut img = ProcessImage::new();
        img.encode_section("app", &AppState { iteration: 7, sum: 1.5 })
            .unwrap();
        let back: AppState = codec::from_bytes(img.section("app").unwrap()).unwrap();
        assert_eq!(back, AppState { iteration: 7, sum: 1.5 });
    }

    /// `to_bytes()` of the image `{"app": [0, 1, 127, 128, 255, 42],
    /// "pml": []}` as the build before `Section.bytes` became a raw run
    /// wrote it: each section a `SEQ` of tagged integers.
    const PARENT_IMAGE: &[u8] = &[
        0x10, 0x01, 0x08, 0x73, 0x65, 0x63, 0x74, 0x69, 0x6f, 0x6e, 0x73, 0x0e, 0x02, 0x10, 0x02,
        0x04, 0x6e, 0x61, 0x6d, 0x65, 0x0a, 0x03, 0x61, 0x70, 0x70, 0x05, 0x62, 0x79, 0x74, 0x65,
        0x73, 0x0e, 0x06, 0x04, 0x00, 0x04, 0x01, 0x04, 0x7f, 0x04, 0x80, 0x01, 0x04, 0xff, 0x01,
        0x04, 0x2a, 0x10, 0x02, 0x04, 0x6e, 0x61, 0x6d, 0x65, 0x0a, 0x03, 0x70, 0x6d, 0x6c, 0x05,
        0x62, 0x79, 0x74, 0x65, 0x73, 0x0e, 0x00,
    ];

    #[test]
    fn image_written_by_the_parent_build_still_decodes() {
        let mut want = ProcessImage::new();
        want.insert("app", vec![0, 1, 127, 128, 255, 42]);
        want.insert("pml", vec![]);
        let old = ProcessImage::from_bytes(PARENT_IMAGE).unwrap();
        assert_eq!(old, want);
        let new = old.to_bytes().unwrap();
        assert!(new.len() < PARENT_IMAGE.len(), "{} bytes", new.len());
        assert_eq!(ProcessImage::from_bytes(&new).unwrap(), want);
    }

    #[test]
    fn encoded_image_is_its_payload_plus_a_small_skeleton() {
        let mut img = ProcessImage::new();
        img.insert("app", (0..=255u8).cycle().take(300_000).collect());
        img.insert("pml", vec![0xFF; 70_000]);
        img.insert("ompi", vec![]);
        let bound = img.total_bytes() + 64 * img.len();
        let bytes = img.to_bytes().unwrap();
        assert!(bytes.len() <= bound, "{} > {bound}", bytes.len());
        // The context form is the same payload behind the frame header.
        let context = img.to_context();
        assert_eq!(context, codec::write_frame(&bytes));
        assert_eq!(
            ProcessImage::from_bytes(&codec::into_payload(context).unwrap()).unwrap(),
            img
        );
    }

    #[test]
    fn assemble_rebuilds_a_manifested_image_and_names_what_is_missing() {
        let app: Vec<u8> = (0..=255u8).cycle().take(2500).collect();
        let mut img = ProcessImage::new();
        img.insert("app", app.clone());
        img.insert("pml", vec![]);
        let sections: Vec<(&str, &[u8])> = img.iter().collect();
        let manifest = ChunkManifest::of_sections(sections, 1024);
        let chunks: Vec<(ChunkId, &[u8])> = app.chunks(1024).map(|c| (ChunkId::of(c), c)).collect();
        let lookup = |id: &ChunkId| chunks.iter().find(|(k, _)| k == id).map(|(_, c)| *c);
        assert_eq!(ProcessImage::assemble(&manifest, lookup).unwrap(), img);

        // A chunk nobody supplies, or one supplied at another length.
        let last = ChunkId::of(&app[2048..]);
        for wrong in [None, Some(&app[..10])] {
            let supply = |id: &ChunkId| if *id == last { wrong } else { lookup(id) };
            let err = ProcessImage::assemble(&manifest, supply).unwrap_err();
            let named = format!("section app chunk 2: no bytes for {last}");
            assert!(err.to_string().contains(&named), "{err}");
        }
        // A manifest whose section length disagrees with its chunks.
        let mut lying = manifest.clone();
        lying.sections[0].total_len += 1;
        assert!(ProcessImage::assemble(&lying, lookup).is_err());
    }

    #[test]
    fn corrupt_image_bytes_error() {
        assert!(ProcessImage::from_bytes(&[0xFF, 0x00, 0x13]).is_err());
    }
}
