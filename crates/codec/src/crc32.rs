//! CRC-32 (IEEE 802.3 polynomial) used to checksum checkpoint context files.
//!
//! A restarted process image that has been truncated or bit-flipped on disk
//! must fail loudly at restart time, not resume with corrupt state. Every
//! context frame written by the CRS components carries a CRC-32 of its
//! payload (see [`crate::frame`]), and the dedup context writer digests
//! every chunk (see [`crate::chunk`]) — so this routine sits on the
//! checkpoint and restart critical paths and is implemented with
//! slicing-by-16 (sixteen bytes folded per table round, over tables built
//! at compile time). The classic 256-entry single-table fold handles the
//! tail and serves as the reference the sliced path is tested against.

/// Reflected polynomial for CRC-32/IEEE (the one used by zlib, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per round of the sliced loop.
const SLICE: usize = 16;

/// The tables for slicing-by-16: `TABLES[j][b]` is the CRC of byte `b`
/// followed by `j` zero bytes, so sixteen per-byte lookups can be
/// XOR-combined to advance the state by sixteen bytes at once.
/// `TABLES[0]` is the classic single table.
static TABLES: [[u32; 256]; SLICE] = [
    build_table(0),
    build_table(1),
    build_table(2),
    build_table(3),
    build_table(4),
    build_table(5),
    build_table(6),
    build_table(7),
    build_table(8),
    build_table(9),
    build_table(10),
    build_table(11),
    build_table(12),
    build_table(13),
    build_table(14),
    build_table(15),
];

/// The table for a byte followed by `zeros` zero bytes: each zero byte
/// is eight more shift-and-reduce steps.
const fn build_table(zeros: usize) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 * (zeros + 1) {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Table lookup by the low byte of `idx` (always in range; the fallback
/// keeps the lookup panic-free).
#[inline]
fn lut(table: &[u32; 256], idx: u32) -> u32 {
    table.get((idx & 0xff) as usize).copied().unwrap_or(0)
}

/// Classic one-table folding loop, also the tail path of `update`.
#[inline]
fn fold_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ lut(&TABLES[0], crc ^ u32::from(byte));
    }
    crc
}

/// Slicing-by-16 over the whole blocks of `data`, returning the state
/// and the tail shorter than a block: the state is XORed into the first
/// four bytes of each block, and byte `i` of the block is looked up in
/// the table for the `15 - i` bytes that follow it.
#[inline]
fn fold_sliced(mut crc: u32, mut data: &[u8]) -> (u32, &[u8]) {
    while let Some((block, rest)) = data.split_first_chunk::<SLICE>() {
        let mut bytes = u128::from_le_bytes(*block) ^ u128::from(crc);
        crc = 0;
        for table in TABLES.iter().rev() {
            crc ^= lut(table, bytes as u32);
            bytes >>= 8;
        }
        data = rest;
    }
    (crc, data)
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

    /// Fold `data` into the running checksum (slicing-by-16 fast path).
    pub fn update(&mut self, data: &[u8]) {
        let (crc, tail) = fold_sliced(self.state, data);
        self.state = fold_bytewise(crc, tail);
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
        for trial in 0..300 {
            // Exercise every alignment class: short tails, block multiples,
            // and lengths straddling the 16-byte fold boundary, up to 4 KiB.
            let len = match trial % 3 {
                0 => (next() % 64) as usize,
                1 => (next() % 4096) as usize + 1,
                _ => 16 * (next() % 256) as usize + (trial % 17),
            };
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
