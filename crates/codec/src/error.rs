//! Error type shared by the wire, frame and metadata codecs.

use std::fmt;

/// Result alias used throughout the codec crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while encoding or decoding checkpoint data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A malformed chunk manifest string (see [`crate::ChunkManifest::parse`]).
    Message(String),
    /// The input ended before a complete value was decoded.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// An unknown type tag was encountered at the given offset.
    BadTag {
        /// The tag byte that was read.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A tag was valid but not the one required by the caller.
    WrongTag {
        /// Human-readable name of what was expected.
        expected: &'static str,
        /// The tag byte that was actually read.
        found: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A varint ran past its maximum encodable width.
    VarintOverflow {
        /// Byte offset at which decoding started.
        offset: usize,
    },
    /// A string field contained invalid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the string payload.
        offset: usize,
    },
    /// A char value was not a valid Unicode scalar.
    InvalidChar {
        /// The raw 32-bit value.
        value: u32,
    },
    /// An integer did not fit the type being decoded.
    IntOutOfRange {
        /// The type being decoded.
        ty: &'static str,
        /// Byte offset of the integer's tag.
        offset: usize,
    },
    /// A struct lacked a field that has no default.
    MissingField {
        /// The field's name.
        field: &'static str,
    },
    /// A struct carried the same field twice.
    DuplicateField {
        /// The field's name.
        field: &'static str,
    },
    /// An enum variant name the type does not have.
    UnknownVariant {
        /// The name that was read.
        name: String,
    },
    /// A tuple or tuple variant held the wrong number of values.
    LengthMismatch {
        /// Values the type has.
        expected: usize,
        /// Values the input declared.
        found: usize,
    },
    /// Trailing bytes remained after the top-level value was decoded.
    TrailingBytes {
        /// Number of bytes left over.
        remaining: usize,
    },
    /// A length prefix exceeded the remaining input (corruption guard).
    LengthOverrun {
        /// The declared length.
        declared: usize,
        /// Bytes actually remaining.
        remaining: usize,
        /// Byte offset of the length prefix.
        offset: usize,
    },
    /// The checksum stored in a context-file frame did not match the payload.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A frame header had an unknown magic number or version.
    BadFrame(String),
    /// A metadata document failed to parse.
    Meta {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Message(m) => write!(f, "{m}"),
            Error::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at offset {offset}")
            }
            Error::BadTag { tag, offset } => {
                write!(f, "unknown type tag {tag:#04x} at offset {offset}")
            }
            Error::WrongTag {
                expected,
                found,
                offset,
            } => write!(
                f,
                "expected {expected} but found tag {found:#04x} at offset {offset}"
            ),
            Error::VarintOverflow { offset } => {
                write!(f, "varint overflow at offset {offset}")
            }
            Error::InvalidUtf8 { offset } => {
                write!(f, "invalid UTF-8 in string at offset {offset}")
            }
            Error::InvalidChar { value } => {
                write!(f, "invalid char scalar value {value:#x}")
            }
            Error::IntOutOfRange { ty, offset } => {
                write!(f, "integer out of range for {ty} at offset {offset}")
            }
            Error::MissingField { field } => write!(f, "missing field `{field}`"),
            Error::DuplicateField { field } => write!(f, "duplicate field `{field}`"),
            Error::UnknownVariant { name } => write!(f, "unknown variant `{name}`"),
            Error::LengthMismatch { expected, found } => {
                write!(f, "expected {expected} values, found {found}")
            }
            Error::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after top-level value")
            }
            Error::LengthOverrun {
                declared,
                remaining,
                offset,
            } => write!(
                f,
                "declared length {declared} exceeds remaining {remaining} bytes at offset {offset}"
            ),
            Error::ChecksumMismatch { stored, computed } => write!(
                f,
                "context frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Error::BadFrame(m) => write!(f, "bad context frame: {m}"),
            Error::Meta { line, msg } => write!(f, "metadata parse error on line {line}: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Turn an offset counted back from the end of a `total`-byte input
    /// (how [`crate::Wire`] decoders report one) into one counted from its
    /// start.
    pub(crate) fn rebase(mut self, total: usize) -> Self {
        if let Error::UnexpectedEof { offset }
        | Error::BadTag { offset, .. }
        | Error::WrongTag { offset, .. }
        | Error::VarintOverflow { offset }
        | Error::InvalidUtf8 { offset }
        | Error::IntOutOfRange { offset, .. }
        | Error::LengthOverrun { offset, .. } = &mut self
        {
            *offset = total.saturating_sub(*offset);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::WrongTag {
            expected: "struct",
            found: 0x42,
            offset: 7,
        };
        let s = e.to_string();
        assert!(s.contains("struct"));
        assert!(s.contains("0x42"));
        assert!(s.contains("7"));
    }

    #[test]
    fn checksum_mismatch_mentions_both_values() {
        let e = Error::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        let s = e.to_string();
        assert!(s.contains("0x00000001"));
        assert!(s.contains("0x00000002"));
    }
}
