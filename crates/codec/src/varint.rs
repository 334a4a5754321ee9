//! LEB128 variable-length integers with zigzag encoding for signed values.
//!
//! Context files are dominated by small integers (ranks, tags, interval
//! numbers, sequence counts), so a varint representation keeps process
//! images compact without a compression pass.

use crate::error::{Error, Result};

/// Maximum number of bytes a 64-bit LEB128 varint can occupy.
pub const MAX_VARINT64_LEN: usize = 10;

/// Append `value` to `out` as an unsigned LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `value` using zigzag-then-LEB128 encoding.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag_encode(value));
}

/// Map a signed integer onto an unsigned one so small magnitudes stay small.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Decode an unsigned varint from the front of `input`, advancing it.
/// Error offsets count back from the end of the input, as in
/// [`crate::Wire::decode`].
pub fn read_u64(input: &mut &[u8]) -> Result<u64> {
    let start = input.len();
    let mut shift = 0u32;
    let mut value = 0u64;
    loop {
        let (&byte, rest) = input
            .split_first()
            .ok_or(Error::UnexpectedEof { offset: 0 })?;
        *input = rest;
        if shift == 63 && byte > 1 {
            return Err(Error::VarintOverflow { offset: start });
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::VarintOverflow { offset: start });
        }
    }
}

/// Decode a zigzag signed varint from the front of `input`, advancing it.
pub fn read_i64(input: &mut &[u8]) -> Result<i64> {
    Ok(zigzag_decode(read_u64(input)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u(v: u64) -> u64 {
        let mut out = Vec::new();
        write_u64(&mut out, v);
        let mut input = out.as_slice();
        let back = read_u64(&mut input).unwrap();
        assert!(input.is_empty(), "all bytes consumed");
        back
    }

    fn roundtrip_i(v: i64) -> i64 {
        let mut out = Vec::new();
        write_i64(&mut out, v);
        read_i64(&mut out.as_slice()).unwrap()
    }

    #[test]
    fn unsigned_roundtrip_edges() {
        for v in [0, 1, 127, 128, 255, 256, 16383, 16384, u64::MAX, u64::MAX - 1] {
            assert_eq!(roundtrip_u(v), v);
        }
    }

    #[test]
    fn signed_roundtrip_edges() {
        for v in [0, -1, 1, i64::MIN, i64::MAX, -64, 63, -65, 64] {
            assert_eq!(roundtrip_i(v), v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0..=127u64 {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn max_u64_is_ten_bytes() {
        let mut out = Vec::new();
        write_u64(&mut out, u64::MAX);
        assert_eq!(out.len(), MAX_VARINT64_LEN);
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut out = Vec::new();
        write_u64(&mut out, u64::from(u32::MAX));
        out.pop();
        assert!(matches!(
            read_u64(&mut out.as_slice()),
            Err(Error::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_overflow() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        assert!(matches!(
            read_u64(&mut buf.as_slice()),
            Err(Error::VarintOverflow { .. })
        ));
    }

    #[test]
    fn tenth_byte_overflow_bits_rejected() {
        // 9 continuation bytes then a final byte with bits above the 64th.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert!(matches!(
            read_u64(&mut buf.as_slice()),
            Err(Error::VarintOverflow { .. })
        ));
    }
}
