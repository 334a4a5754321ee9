//! On-disk journal format.
//!
//! ```text
//! +--------+---------+----------+   +---------+---------+----------+
//! | magic  | version | reserved |   | rec len | rec crc | payload  |  ...
//! | 4 B    | 2 B     | 2 B      |   | 4 B     | 4 B     | len B    |
//! +--------+---------+----------+   +---------+---------+----------+
//!      file header (once)                one record per entry
//! ```
//!
//! All integers little-endian.  Each record's payload is the
//! `codec::to_bytes` encoding of one [`JournalEntry`]; the CRC-32 is
//! computed over the payload, so any byte flip inside a record is caught
//! at that record, while the entry-level hash chain catches *logical*
//! tampering (a re-framed rewrite with a recomputed CRC) at the first
//! link after it.  Appending is O(1): one record is written at the tail,
//! nothing earlier is touched.

use cr_core::CrError;

use crate::entry::JournalEntry;

/// Magic bytes at the start of every journal file.
pub const MAGIC: [u8; 4] = *b"OCRJ";

/// Current journal format version.
pub const VERSION: u16 = 1;

/// Fixed file-header size.
pub const HEADER_LEN: usize = 8;

/// Fixed per-record header size (length + CRC).
pub const RECORD_HEADER_LEN: usize = 8;

/// The fixed file header.
pub fn header_bytes() -> [u8; HEADER_LEN] {
    let [m0, m1, m2, m3] = MAGIC;
    let [v0, v1] = VERSION.to_le_bytes();
    [m0, m1, m2, m3, v0, v1, 0, 0]
}

/// Encode one entry as a framed record (`len | crc | payload`).
pub fn encode_record(entry: &JournalEntry) -> Result<Vec<u8>, CrError> {
    let payload = codec::to_bytes(entry);
    let len = u32::try_from(payload.len()).map_err(|_| {
        CrError::protocol(format!(
            "journal entry {} payload is {} bytes (over the 4 GiB record cap)",
            entry.seq,
            payload.len()
        ))
    })?;
    let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    rec.extend_from_slice(&len.to_le_bytes());
    rec.extend_from_slice(&codec::crc32::crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::GENESIS_HASH;

    #[test]
    fn header_is_fixed_size_with_magic() {
        let h = header_bytes();
        assert_eq!(&h[..4], b"OCRJ");
        assert_eq!(h.len(), HEADER_LEN);
    }

    #[test]
    fn record_layout() {
        let e = JournalEntry::chained(0, GENESIS_HASH, "", "a.b", "d", 1);
        let rec = encode_record(&e).unwrap();
        let len = u32::from_le_bytes(rec[..4].try_into().unwrap()) as usize;
        assert_eq!(rec.len(), RECORD_HEADER_LEN + len);
        let crc = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        assert_eq!(crc, codec::crc32::crc32(&rec[8..]));
        let back: JournalEntry = codec::from_bytes(&rec[8..]).unwrap();
        assert_eq!(back, e);
    }

    /// `encode_record` of entry 3 below, as the build before `codec::Wire`
    /// replaced the generic (de)serializer wrote it.
    const PARENT_RECORD: &[u8] = &[
        0x6d, 0x00, 0x00, 0x00, 0x19, 0xda, 0xf3, 0xed, 0x10, 0x07, 0x03, 0x73, 0x65, 0x71, 0x04,
        0x03, 0x05, 0x61, 0x63, 0x74, 0x6f, 0x72, 0x0a, 0x05, 0x72, 0x61, 0x6e, 0x6b, 0x31, 0x05,
        0x70, 0x68, 0x61, 0x73, 0x65, 0x0a, 0x0c, 0x63, 0x72, 0x63, 0x70, 0x2e, 0x71, 0x75, 0x69,
        0x65, 0x73, 0x63, 0x65, 0x06, 0x64, 0x65, 0x74, 0x61, 0x69, 0x6c, 0x0a, 0x0a, 0x69, 0x6e,
        0x74, 0x65, 0x72, 0x76, 0x61, 0x6c, 0x20, 0x32, 0x0a, 0x65, 0x6c, 0x61, 0x70, 0x73, 0x65,
        0x64, 0x5f, 0x6e, 0x73, 0x04, 0xb9, 0x60, 0x09, 0x70, 0x72, 0x65, 0x76, 0x5f, 0x68, 0x61,
        0x73, 0x68, 0x04, 0xb1, 0xe0, 0xb0, 0xf3, 0xa6, 0xce, 0x9a, 0xb9, 0x63, 0x04, 0x68, 0x61,
        0x73, 0x68, 0x04, 0xcf, 0x9c, 0xaf, 0x81, 0x81, 0xbc, 0xc1, 0xef, 0x67,
    ];

    #[test]
    fn record_written_by_the_parent_build_is_pinned() {
        let e =
            JournalEntry::chained(3, GENESIS_HASH, "rank1", "crcp.quiesce", "interval 2", 12345);
        assert_eq!(e.hash, 0x67df_05e0_102b_ce4f);
        assert_eq!(encode_record(&e).unwrap(), PARENT_RECORD);
        let back: JournalEntry = codec::from_bytes(&PARENT_RECORD[RECORD_HEADER_LEN..]).unwrap();
        assert_eq!(back, e);
    }
}
