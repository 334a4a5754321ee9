//! Property tests: the CRC-32 slicing-by-16 fast path agrees with a
//! bit-at-a-time reference for arbitrary lengths, unaligned offsets, and
//! arbitrary streaming split points.
//!
//! The unit tests in `crc32.rs` cover known vectors and random whole
//! buffers; these properties additionally drive *subslices* (so the fast
//! path sees every word-alignment class relative to the allocation) and
//! multi-way streaming splits, against an independent reference that
//! shares no tables with the implementation.

use codec::crc32::{crc32, Crc32};
use proptest::collection::vec;
use proptest::prelude::*;

/// Independent bit-at-a-time CRC-32/IEEE reference: no lookup tables, so
/// it cannot share a table-generation bug with the implementation.
fn crc32_bitwise(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
        }
    }
    crc ^ 0xFFFF_FFFF
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sliced_matches_bitwise_reference(data in vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    #[test]
    fn unaligned_offsets_agree(
        data in vec(any::<u8>(), 0..1024),
        start in any::<prop::sample::Index>(),
        end in any::<prop::sample::Index>(),
    ) {
        // Subslices at arbitrary offsets: the fast path's 16-byte folds
        // land on every alignment class relative to the allocation.
        let (mut s, mut e) = (start.index(data.len() + 1), end.index(data.len() + 1));
        if s > e {
            std::mem::swap(&mut s, &mut e);
        }
        let slice = &data[s..e];
        prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
    }

    #[test]
    fn streaming_split_points_agree(
        data in vec(any::<u8>(), 0..1024),
        cuts in vec(any::<prop::sample::Index>(), 0..8),
    ) {
        // Feed the same input in arbitrary pieces and require the running
        // state to agree with the one-shot reference at the end.
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        let mut h = Crc32::new();
        for pair in offsets.windows(2) {
            h.update(&data[pair[0]..pair[1]]);
        }
        prop_assert_eq!(h.finalize(), crc32_bitwise(&data));
    }
}
