//! CRC-32 (IEEE 802.3 polynomial) used to checksum checkpoint context files.
//!
//! A restarted process image that has been truncated or bit-flipped on disk
//! must fail loudly at restart time, not resume with corrupt state. Every
//! context frame written by the CRS components carries a CRC-32 of its
//! payload (see [`crate::frame`]), and the dedup context writer digests
//! every chunk (see [`crate::chunk`]) — so this routine sits on the
//! checkpoint critical path and is implemented with slicing-by-8 (eight
//! bytes folded per table round). The classic 256-entry single-table fold
//! handles the unaligned tail and serves as the reference the sliced path
//! is tested against.

/// Reflected polynomial for CRC-32/IEEE (the one used by zlib, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, computed at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The eight derived tables for slicing-by-8: `tables[j][b]` is the CRC of
/// byte `b` followed by `j` zero bytes, so eight per-byte lookups can be
/// XOR-combined to advance the state by a whole 64-bit word at once.
static SLICE_TABLES: std::sync::OnceLock<Vec<[u32; 256]>> = std::sync::OnceLock::new();

fn slice_tables() -> &'static [[u32; 256]] {
    SLICE_TABLES.get_or_init(|| {
        let mut tables: Vec<[u32; 256]> = vec![TABLE];
        for _ in 1..8 {
            let prev = tables.last().copied().unwrap_or(TABLE);
            let next: [u32; 256] = core::array::from_fn(|i| {
                let c = prev.get(i).copied().unwrap_or(0);
                (c >> 8) ^ lut(&TABLE, c & 0xff)
            });
            tables.push(next);
        }
        tables
    })
}

/// Bounds-checked table lookup (the low byte of `idx` is always in range,
/// so the fallback value is unreachable; it keeps the lookup panic-free).
#[inline]
fn lut(table: &[u32; 256], idx: u32) -> u32 {
    table.get(idx as usize).copied().unwrap_or(0)
}

#[inline]
fn slice_lut(tables: &[[u32; 256]], j: usize, idx: u32) -> u32 {
    tables.get(j).map(|t| lut(t, idx)).unwrap_or(0)
}

/// Classic one-table folding loop, also the remainder path of `update`.
#[inline]
fn fold_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        let idx = ((crc ^ u32::from(byte)) & 0xff) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    crc
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the running checksum (slicing-by-8 fast path).
    pub fn update(&mut self, data: &[u8]) {
        let tables = slice_tables();
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for word in words.by_ref() {
            match word.split_first_chunk::<4>() {
                Some((lo4, hi4)) => {
                    let lo = crc ^ u32::from_le_bytes(*lo4);
                    let hi = match hi4.split_first_chunk::<4>() {
                        Some((h, _)) => u32::from_le_bytes(*h),
                        None => 0, // unreachable: the word is exactly 8 bytes
                    };
                    crc = slice_lut(tables, 7, lo & 0xff)
                        ^ slice_lut(tables, 6, (lo >> 8) & 0xff)
                        ^ slice_lut(tables, 5, (lo >> 16) & 0xff)
                        ^ slice_lut(tables, 4, lo >> 24)
                        ^ slice_lut(tables, 3, hi & 0xff)
                        ^ slice_lut(tables, 2, (hi >> 8) & 0xff)
                        ^ slice_lut(tables, 1, (hi >> 16) & 0xff)
                        ^ slice_lut(tables, 0, hi >> 24);
                }
                None => crc = fold_bytewise(crc, word),
            }
        }
        self.state = fold_bytewise(crc, words.remainder());
    }

    /// Finish and return the checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let whole = crc32(&data);
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), whole);
    }

    #[test]
    fn sliced_matches_bytewise_on_random_inputs() {
        // SplitMix64: deterministic pseudo-random lengths and contents.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for trial in 0..200 {
            // Exercise every alignment class: short tails, word multiples,
            // and lengths straddling the 8-byte fold boundary.
            let len = (next() % 513) as usize + (trial % 9);
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut fast = Crc32::new();
            fast.update(&data);
            let mut slow = Crc32::new();
            slow.state = fold_bytewise(slow.state, &data);
            assert_eq!(
                fast.finalize(),
                slow.finalize(),
                "sliced and bytewise CRC diverge on len {len}"
            );
            // Split the same input at a random point: mixing the two entry
            // points mid-stream must also agree.
            let cut = (next() as usize) % (len + 1);
            let mut mixed = Crc32::new();
            let (head, tail) = data.split_at(cut);
            mixed.state = fold_bytewise(mixed.state, head);
            mixed.update(tail);
            assert_eq!(mixed.finalize(), fast.finalize());
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 512];
        let base = crc32(&data);
        data[200] ^= 0x10;
        assert_ne!(crc32(&data), base);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut h = Crc32::new();
        h.update(b"snapshot");
        assert_eq!(h.finalize(), h.finalize());
    }
}
