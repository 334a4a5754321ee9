//! Checksummed frame wrapping a checkpoint context payload.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------+---------+-------------+-------------+-----------+
//! | magic  | version | payload len | payload crc |  payload  |
//! | 4 B    | 2 B     | 8 B         | 4 B         |  len B    |
//! +--------+---------+-------------+-------------+-----------+
//! ```
//!
//! The magic (`OCRX`) identifies a context file written by this
//! implementation; the version allows the on-disk format to evolve; the
//! CRC-32 detects truncation and corruption before a process image is
//! resurrected from it.

use crate::crc32::crc32;
use crate::error::{Error, Result};
use crate::wire::Wire;

/// Magic bytes at the start of every context file.
pub const MAGIC: [u8; 4] = *b"OCRX";

/// Current frame format version.
pub const VERSION: u16 = 1;

/// Fixed number of header bytes preceding the payload.
pub const HEADER_LEN: usize = 4 + 2 + 8 + 4;

/// Wrap `payload` in a checksummed frame.
pub fn write_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame_into(&mut out, payload);
    out
}

/// Wrap `payload` in a checksummed frame, reusing `out`'s allocation.
///
/// `out` is cleared first; after the call it holds exactly what
/// [`write_frame`] would have returned. Hot paths that frame many
/// payloads (the chunk store's blob writer) call this with a pooled
/// buffer so steady-state framing allocates O(pool) buffers, not
/// O(payloads).
pub fn write_frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.clear();
    out.reserve(HEADER_LEN + payload.len());
    write_header(out, payload);
    out.extend_from_slice(payload);
}

/// Append the header describing `payload`.
fn write_header(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Encode `value` straight into a frame: the header is reserved up
/// front in a buffer sized for `payload_hint` encoded bytes, the value is
/// encoded behind it, and the length and CRC are patched in afterwards.
/// The result equals `write_frame(&to_bytes(value))` without building the
/// payload anywhere else first.
pub fn to_framed_bytes<T: Wire>(value: &T, payload_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_hint);
    out.resize(HEADER_LEN, 0);
    value.encode_into(&mut out);
    let (header, payload) = out.split_at_mut(HEADER_LEN);
    let mut fields = Vec::with_capacity(HEADER_LEN);
    write_header(&mut fields, payload);
    header.copy_from_slice(&fields);
    out
}

/// Validate a frame held in an owned buffer and strip its header in place:
/// the returned vector is `framed`'s own allocation, holding the payload.
pub fn into_payload(mut framed: Vec<u8>) -> Result<Vec<u8>> {
    read_frame(&framed)?;
    framed.drain(..HEADER_LEN);
    Ok(framed)
}

/// Fixed-size header field at `at`, or a truncation error.
fn header_field<const N: usize>(data: &[u8], at: usize) -> Result<[u8; N]> {
    data.get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            Error::BadFrame(format!(
                "file too short for frame header: {} bytes",
                data.len()
            ))
        })
}

/// Unwrap a frame, validating magic, version, length, and checksum.
pub fn read_frame(data: &[u8]) -> Result<&[u8]> {
    if data.len() < HEADER_LEN {
        return Err(Error::BadFrame(format!(
            "file too short for frame header: {} bytes",
            data.len()
        )));
    }
    if header_field::<4>(data, 0)? != MAGIC {
        return Err(Error::BadFrame("bad magic (not a context file)".into()));
    }
    let version = u16::from_le_bytes(header_field(data, 4)?);
    if version != VERSION {
        return Err(Error::BadFrame(format!(
            "unsupported context format version {version} (this build reads {VERSION})"
        )));
    }
    let len = u64::from_le_bytes(header_field(data, 6)?) as usize;
    let stored = u32::from_le_bytes(header_field(data, 14)?);
    let body = data.split_at(HEADER_LEN).1;
    if body.len() != len {
        return Err(Error::BadFrame(format!(
            "payload length mismatch: header says {len}, file has {}",
            body.len()
        )));
    }
    let computed = crc32(body);
    if computed != stored {
        return Err(Error::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let payload = b"process image bytes".to_vec();
        let framed = write_frame(&payload);
        assert_eq!(read_frame(&framed).unwrap(), payload.as_slice());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let framed = write_frame(&[]);
        assert_eq!(read_frame(&framed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn corruption_detected() {
        let mut framed = write_frame(b"state");
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        assert!(matches!(
            read_frame(&framed),
            Err(Error::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let framed = write_frame(b"a longer payload that we will cut short");
        let cut = &framed[..framed.len() - 5];
        assert!(matches!(read_frame(cut), Err(Error::BadFrame(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut framed = write_frame(b"x");
        framed[0] = b'Z';
        let err = read_frame(&framed).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn future_version_rejected() {
        let mut framed = write_frame(b"x");
        framed[4] = 0xFF;
        let err = read_frame(&framed).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn short_file_rejected() {
        assert!(matches!(read_frame(b"OC"), Err(Error::BadFrame(_))));
    }
}
