//! Fixed-size chunking and content digests for the dedup chunk store.
//!
//! A dedup checkpoint moves only the chunks of a process image that the
//! content-addressed store has never seen. The unit is a fixed-size chunk
//! of a named image section; each chunk is identified by its position
//! (`chunk_id`) and summarized by a fast 64-bit content digest. A
//! [`ChunkManifest`] records, per section, the `(chunk_id, digest, len)`
//! triple of every chunk — enough to key every chunk into the store at
//! commit and to reassemble the image from it at restart.
//!
//! The manifest is stored in snapshot *metadata* (a [`crate::MetaDoc`]
//! value), so it renders to and parses from a compact single-line string.

use crate::error::{Error, Result};

/// Manifest wire-format version (leading token of [`ChunkManifest::render`]).
pub const MANIFEST_VERSION: u32 = 1;

/// Fast 64-bit content digest of one chunk.
///
/// Word-at-a-time FNV-style multiply/xor mix with a length seed and a
/// murmur-style finalizer. This is a *change detector*, not a cryptographic
/// hash: it must be cheap (it runs over every chunk of every section on
/// every checkpoint) and must make accidental collisions — the same chunk
/// slot holding different bytes across intervals — vanishingly unlikely.
pub fn chunk_digest(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3; // FNV-1a 64 prime
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ (data.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut words = data.chunks_exact(8);
    for word in words.by_ref() {
        let v = match word.split_first_chunk::<8>() {
            Some((w, _)) => u64::from_le_bytes(*w),
            None => 0, // unreachable: chunks_exact(8) yields 8-byte slices
        };
        h = (h ^ v).wrapping_mul(PRIME);
        h ^= h.rotate_right(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// Identity and digest of one fixed-size chunk of a section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Position of the chunk: byte offset is `id * chunk_bytes`.
    pub id: u32,
    /// Content digest ([`chunk_digest`]) of the chunk's bytes.
    pub digest: u64,
    /// Chunk length in bytes (only the final chunk may be short).
    pub len: u32,
}

/// Chunk listing of one named image section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionManifest {
    /// Section name (as registered with the process image).
    pub name: String,
    /// Total section length in bytes.
    pub total_len: u64,
    /// Chunk records in id order, covering the section exactly.
    pub chunks: Vec<ChunkRecord>,
}

impl SectionManifest {
    /// Chunk `bytes` into `chunk_bytes`-sized pieces and digest each.
    pub fn of(name: &str, bytes: &[u8], chunk_bytes: usize) -> Self {
        let step = chunk_bytes.max(1);
        SectionManifest {
            name: name.to_string(),
            total_len: bytes.len() as u64,
            chunks: bytes
                .chunks(step)
                .enumerate()
                .map(|(i, c)| ChunkRecord {
                    id: i as u32,
                    digest: chunk_digest(c),
                    len: c.len() as u32,
                })
                .collect(),
        }
    }
}

/// Per-section chunk manifest of a whole process image at one interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChunkManifest {
    /// Chunk size every section was cut with.
    pub chunk_bytes: u32,
    /// One entry per image section, in image order.
    pub sections: Vec<SectionManifest>,
}

impl ChunkManifest {
    /// Build the manifest of a full image presented as `(name, bytes)`
    /// sections in image order.
    pub fn of_sections<'a>(
        sections: impl IntoIterator<Item = (&'a str, &'a [u8])>,
        chunk_bytes: usize,
    ) -> Self {
        ChunkManifest {
            chunk_bytes: chunk_bytes.max(1) as u32,
            sections: sections
                .into_iter()
                .map(|(name, bytes)| SectionManifest::of(name, bytes, chunk_bytes))
                .collect(),
        }
    }

    /// Sum of all section lengths.
    pub fn total_bytes(&self) -> u64 {
        self.sections.iter().map(|s| s.total_len).sum()
    }

    /// Render to the compact single-line form stored in snapshot metadata:
    /// `v1 c<chunk_bytes>|<name>=<total_len>:<id>.<digest>.<len>,...|...`
    /// (section names percent-escaped; digests in hex).
    pub fn render(&self) -> String {
        let mut out = format!("v{MANIFEST_VERSION} c{}", self.chunk_bytes);
        for s in &self.sections {
            out.push('|');
            out.push_str(&escape_name(&s.name));
            out.push('=');
            out.push_str(&s.total_len.to_string());
            for (i, c) in s.chunks.iter().enumerate() {
                out.push(if i == 0 { ':' } else { ',' });
                out.push_str(&format!("{}.{:x}.{}", c.id, c.digest, c.len));
            }
        }
        out
    }

    /// Parse the [`render`](ChunkManifest::render) form back.
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |what: &str| Error::Message(format!("chunk manifest: {what} in {text:?}"));
        let mut parts = text.split('|');
        let header = parts.next().ok_or_else(|| bad("empty input"))?;
        let (version, chunk_bytes) = header
            .strip_prefix('v')
            .and_then(|rest| rest.split_once(" c"))
            .ok_or_else(|| bad("malformed header"))?;
        if version.parse::<u32>().ok() != Some(MANIFEST_VERSION) {
            return Err(bad("unsupported version"));
        }
        let chunk_bytes: u32 = chunk_bytes.parse().map_err(|_| bad("bad chunk size"))?;
        let mut sections = Vec::new();
        for part in parts {
            let (name, rest) = part.split_once('=').ok_or_else(|| bad("section missing '='"))?;
            let (total_len, chunk_list) = match rest.split_once(':') {
                Some((t, c)) => (t, Some(c)),
                None => (rest, None),
            };
            let total_len: u64 = total_len.parse().map_err(|_| bad("bad section length"))?;
            let mut chunks = Vec::new();
            for triple in chunk_list.iter().flat_map(|c| c.split(',')) {
                let mut fields = triple.split('.');
                let id = fields.next().and_then(|f| f.parse().ok());
                let digest = fields.next().and_then(|f| u64::from_str_radix(f, 16).ok());
                let len = fields.next().and_then(|f| f.parse().ok());
                match (id, digest, len, fields.next()) {
                    (Some(id), Some(digest), Some(len), None) => {
                        chunks.push(ChunkRecord { id, digest, len })
                    }
                    _ => return Err(bad("malformed chunk record")),
                }
            }
            sections.push(SectionManifest {
                name: unescape_name(name)?,
                total_len,
                chunks,
            });
        }
        Ok(ChunkManifest {
            chunk_bytes,
            sections,
        })
    }
}

fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        match ch {
            '%' | '|' | '=' | ':' | ',' | '\n' | '\r' => {
                out.push('%');
                out.push_str(&format!("{:02x}", ch as u32));
            }
            _ => out.push(ch),
        }
    }
    out
}

fn unescape_name(escaped: &str) -> Result<String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(ch) = chars.next() {
        if ch != '%' {
            out.push(ch);
            continue;
        }
        let hi = chars.next();
        let lo = chars.next();
        let code = match (hi, lo) {
            (Some(h), Some(l)) => u32::from_str_radix(&format!("{h}{l}"), 16).ok(),
            _ => None,
        };
        match code.and_then(char::from_u32) {
            Some(decoded) => out.push(decoded),
            None => {
                return Err(Error::Message(format!(
                    "chunk manifest: bad escape in section name {escaped:?}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_changes_with_content_and_length() {
        let a = chunk_digest(b"hello world");
        let b = chunk_digest(b"hello worle");
        let c = chunk_digest(b"hello worl");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, chunk_digest(b"hello world"));
        // Trailing zeros are not confused with a shorter chunk.
        assert_ne!(chunk_digest(&[0u8; 16]), chunk_digest(&[0u8; 8]));
    }

    #[test]
    fn chunking_covers_the_section_exactly() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let s = SectionManifest::of("app", &bytes, 4096);
        assert_eq!(s.total_len, 10_000);
        assert_eq!(s.chunks.len(), 3);
        assert_eq!(s.chunks[0].len, 4096);
        assert_eq!(s.chunks[1].len, 4096);
        assert_eq!(s.chunks[2].len, 10_000 - 2 * 4096);
        assert_eq!(s.chunks.iter().map(|c| u64::from(c.len)).sum::<u64>(), 10_000);
        for (i, c) in s.chunks.iter().enumerate() {
            assert_eq!(c.id as usize, i);
        }
        // Empty section: zero chunks, zero length.
        let empty = SectionManifest::of("empty", &[], 4096);
        assert_eq!(empty.total_len, 0);
        assert!(empty.chunks.is_empty());
    }

    #[test]
    fn render_parse_roundtrip_with_awkward_names() {
        let sections: Vec<(String, Vec<u8>)> = vec![
            ("app".into(), (0..200u8).collect()),
            ("pml|state=weird:1,2%".into(), vec![7; 5000]),
            ("empty".into(), Vec::new()),
        ];
        let m = ChunkManifest::of_sections(
            sections.iter().map(|(n, b)| (n.as_str(), b.as_slice())),
            1024,
        );
        let back = ChunkManifest::parse(&m.render()).unwrap();
        assert_eq!(back, m);
        assert!(!m.render().contains('\n'));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChunkManifest::parse("").is_err());
        assert!(ChunkManifest::parse("v2 c4096").is_err());
        assert!(ChunkManifest::parse("v1 c4096|app").is_err());
        assert!(ChunkManifest::parse("v1 c4096|app=10:0.zz.10").is_err());
        assert!(ChunkManifest::parse("v1 c4096|a%zz=0").is_err());
    }

    #[test]
    fn total_bytes_sums_sections() {
        let m = ChunkManifest::of_sections([("a", &[1u8; 10][..]), ("b", &[2u8; 30][..])], 8);
        assert_eq!(m.total_bytes(), 40);
    }
}
