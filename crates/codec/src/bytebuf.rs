//! Owned bulk bytes that cross the codec as one raw run.
//!
//! serde serialises a `Vec<u8>` like any other `Vec<T>`: a sequence of
//! `u8` elements, which in [`crate::binary`] costs a tag and a varint per
//! byte (2–3 bytes out per byte in, one visitor call per byte back). A
//! captured process image, a replicated snapshot file, a chunk or a
//! message payload is not a sequence of small integers; it is a run of
//! bytes. [`ByteBuf`] is the `Vec<u8>` that says so: one `BYTES` tag, one
//! varint length, then the bytes themselves — a `memcpy` each way.

use std::fmt;
use std::ops::Deref;

use serde::de::{Deserialize, Deserializer, Error, SeqAccess, Visitor};
use serde::ser::{Serialize, Serializer};

/// Largest reservation made from a legacy sequence's declared length
/// before any element has been read; longer sequences grow as they go.
const SEQ_RESERVE_CAP: usize = 64 * 1024;

/// A `Vec<u8>` that serialises as one length-prefixed raw run.
///
/// Use it for every bulk `Vec<u8>` field of a serde-derived type on the
/// data path (`cr-lint`'s `bulk-bytes` rule holds `opal`, `orte`, `ompi`
/// and `core` to that). It derefs to `Vec<u8>` (and so to `[u8]`) and
/// converts from and into `Vec<u8>` without copying, so code that only
/// reads or moves the bytes does not change.
///
/// The writer only ever emits the raw form. The reader also accepts the
/// element-by-element sequence a plain `Vec<u8>` field produced, so a
/// snapshot written before a field became a `ByteBuf` still restores.
#[derive(Clone, Default, Eq, PartialOrd, Ord, Hash)]
pub struct ByteBuf(Vec<u8>);

impl fmt::Debug for ByteBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Deref for ByteBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.0
    }
}

impl AsRef<[u8]> for ByteBuf {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for ByteBuf {
    fn from(bytes: Vec<u8>) -> Self {
        ByteBuf(bytes)
    }
}

impl From<ByteBuf> for Vec<u8> {
    fn from(buf: ByteBuf) -> Self {
        buf.0
    }
}

/// Equal to whatever the `Vec<u8>` inside is equal to: slices, arrays,
/// vectors, and (through the impl below) other `ByteBuf`s.
impl<T: ?Sized> PartialEq<T> for ByteBuf
where
    Vec<u8>: PartialEq<T>,
{
    fn eq(&self, other: &T) -> bool {
        self.0 == *other
    }
}

impl PartialEq<ByteBuf> for Vec<u8> {
    fn eq(&self, other: &ByteBuf) -> bool {
        *self == other.0
    }
}

impl Serialize for ByteBuf {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

impl<'de> Deserialize<'de> for ByteBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct RunOrSeq;

        impl<'de> Visitor<'de> for RunOrSeq {
            type Value = ByteBuf;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a byte run (or a legacy sequence of bytes)")
            }

            fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<ByteBuf, E> {
                Ok(ByteBuf(v.to_vec()))
            }

            fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<ByteBuf, E> {
                Ok(ByteBuf(v))
            }

            /// What a plain `Vec<u8>` field wrote: one tagged `u8` per byte.
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<ByteBuf, A::Error> {
                let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(SEQ_RESERVE_CAP));
                while let Some(byte) = seq.next_element::<u8>()? {
                    out.push(byte);
                }
                Ok(ByteBuf(out))
            }
        }

        deserializer.deserialize_byte_buf(RunOrSeq)
    }
}
