//! Self-describing binary serde format for checkpoint context files.
//!
//! Every value is prefixed with a one-byte type tag, so a reader can skip or
//! introspect values it does not statically know about (needed for
//! `deserialize_any` / `IgnoredAny`, and for forward compatibility between
//! checkpointer versions). Integers use LEB128 varints (zigzag for signed),
//! lengths are varints, strings are UTF-8 with a byte-length prefix, and
//! struct fields are written as `(name, value)` pairs so field reordering
//! between versions does not corrupt restarts.
//!
//! The format is deliberately *not* the most compact possible encoding:
//! checkpoint images are dominated by application byte buffers, stored as
//! raw `BYTES` runs (one tag, one varint length, then the bytes) because
//! every bulk field is a [`crate::ByteBuf`], and the self-description of
//! the surrounding skeleton is noise by comparison, while the
//! debuggability of a tagged stream is worth a great deal when a restart
//! goes wrong. A plain `Vec<u8>` is still a `SEQ` of tagged integers (2–3
//! bytes per byte) — fine for a digest, wrong for a payload; `ByteBuf`
//! reads that legacy form too, so contexts written before a field became
//! a `ByteBuf` still restore.

use serde::de::{self, Deserialize, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};

use crate::error::{Error, Result};
use crate::varint;

/// Type tags. Stability matters: context files written by one build must be
/// restartable by another, so tags are append-only.
mod tag {
    pub const UNIT: u8 = 0x00;
    pub const FALSE: u8 = 0x01;
    pub const TRUE: u8 = 0x02;
    pub const INT: u8 = 0x03; // zigzag varint, any signed width
    pub const UINT: u8 = 0x04; // varint, any unsigned width
    pub const I128: u8 = 0x05; // 16 bytes LE
    pub const U128: u8 = 0x06; // 16 bytes LE
    pub const F32: u8 = 0x07; // 4 bytes LE
    pub const F64: u8 = 0x08; // 8 bytes LE
    pub const CHAR: u8 = 0x09; // u32 varint scalar
    pub const STR: u8 = 0x0A; // len varint + UTF-8
    pub const BYTES: u8 = 0x0B; // len varint + raw
    pub const NONE: u8 = 0x0C;
    pub const SOME: u8 = 0x0D; // value
    pub const SEQ: u8 = 0x0E; // count varint + values
    pub const MAP: u8 = 0x0F; // count varint + (key value)*
    pub const STRUCT: u8 = 0x10; // count varint + (name-str value)*
    pub const UNIT_VARIANT: u8 = 0x11; // name-str
    pub const NEWTYPE_VARIANT: u8 = 0x12; // name-str + value
    pub const TUPLE_VARIANT: u8 = 0x13; // name-str + count + values
    pub const STRUCT_VARIANT: u8 = 0x14; // name-str + count + (name value)*
}

/// Serialize `value` into a tagged binary byte vector.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_bytes_into(Vec::new(), value)
}

/// Serialize `value` onto the end of `out` and hand the buffer back. A
/// caller that knows roughly how large the encoding will be passes a
/// buffer with that capacity (and any prefix it wants in front), so a bulk
/// value is written once into its final allocation.
pub fn to_bytes_into<T: Serialize + ?Sized>(out: Vec<u8>, value: &T) -> Result<Vec<u8>> {
    let mut ser = Serializer { out };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

/// Deserialize a value of type `T` from bytes produced by [`to_bytes`].
///
/// Fails if any bytes are left over, which catches framing bugs early.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut de = Deserializer { buf: bytes, pos: 0 };
    let value = T::deserialize(&mut de)?;
    if de.pos != bytes.len() {
        return Err(Error::TrailingBytes {
            remaining: bytes.len() - de.pos,
        });
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

struct Serializer {
    out: Vec<u8>,
}

impl Serializer {
    fn put_str_raw(&mut self, s: &str) {
        varint::write_u64(&mut self.out, s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn put_tagged_str(&mut self, s: &str) {
        self.out.push(tag::STR);
        self.put_str_raw(s);
    }
}

/// Compound serializer for sequences/maps with possibly unknown length.
///
/// serde permits `serialize_seq(None)`; since the wire format carries a
/// count prefix, unknown-length compounds buffer their elements and patch
/// the count in afterwards.
struct Compound<'a> {
    ser: &'a mut Serializer,
    /// Bytes of the buffered elements (only used when length was unknown).
    buffered: Option<Vec<u8>>,
    count: u64,
}

impl<'a> Compound<'a> {
    fn begin(ser: &'a mut Serializer, len: Option<usize>) -> Self {
        match len {
            Some(n) => {
                varint::write_u64(&mut ser.out, n as u64);
                Compound {
                    ser,
                    buffered: None,
                    count: 0,
                }
            }
            None => Compound {
                ser,
                buffered: Some(Vec::new()),
                count: 0,
            },
        }
    }

    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.count += 1;
        match &mut self.buffered {
            Some(buf) => {
                let mut sub = Serializer {
                    out: std::mem::take(buf),
                };
                value.serialize(&mut sub)?;
                *buf = sub.out;
                Ok(())
            }
            None => value.serialize(&mut *self.ser),
        }
    }

    fn finish(self) -> Result<()> {
        if let Some(buf) = self.buffered {
            varint::write_u64(&mut self.ser.out, self.count);
            self.ser.out.extend_from_slice(&buf);
        }
        Ok(())
    }
}

impl<'a> ser::Serializer for &'a mut Serializer {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn is_human_readable(&self) -> bool {
        false
    }

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.push(if v { tag::TRUE } else { tag::FALSE });
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<()> {
        self.serialize_i64(i64::from(v))
    }
    fn serialize_i16(self, v: i16) -> Result<()> {
        self.serialize_i64(i64::from(v))
    }
    fn serialize_i32(self, v: i32) -> Result<()> {
        self.serialize_i64(i64::from(v))
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.out.push(tag::INT);
        varint::write_i64(&mut self.out, v);
        Ok(())
    }
    fn serialize_i128(self, v: i128) -> Result<()> {
        self.out.push(tag::I128);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<()> {
        self.serialize_u64(u64::from(v))
    }
    fn serialize_u16(self, v: u16) -> Result<()> {
        self.serialize_u64(u64::from(v))
    }
    fn serialize_u32(self, v: u32) -> Result<()> {
        self.serialize_u64(u64::from(v))
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.out.push(tag::UINT);
        varint::write_u64(&mut self.out, v);
        Ok(())
    }
    fn serialize_u128(self, v: u128) -> Result<()> {
        self.out.push(tag::U128);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<()> {
        self.out.push(tag::F32);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<()> {
        self.out.push(tag::F64);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<()> {
        self.out.push(tag::CHAR);
        varint::write_u64(&mut self.out, u64::from(u32::from(v)));
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.put_tagged_str(v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.out.push(tag::BYTES);
        varint::write_u64(&mut self.out, v.len() as u64);
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.out.push(tag::NONE);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.out.push(tag::SOME);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        self.out.push(tag::UNIT);
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.out.push(tag::UNIT_VARIANT);
        self.put_str_raw(variant);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        // Newtype structs are transparent: `Rank(u32)` encodes as its inner.
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.out.push(tag::NEWTYPE_VARIANT);
        self.put_str_raw(variant);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq> {
        self.out.push(tag::SEQ);
        Ok(Compound::begin(self, len))
    }

    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant> {
        self.out.push(tag::TUPLE_VARIANT);
        self.put_str_raw(variant);
        Ok(Compound::begin(self, Some(len)))
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap> {
        self.out.push(tag::MAP);
        Ok(Compound::begin(self, len))
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<Self::SerializeStruct> {
        self.out.push(tag::STRUCT);
        Ok(Compound::begin(self, Some(len)))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant> {
        self.out.push(tag::STRUCT_VARIANT);
        self.put_str_raw(variant);
        Ok(Compound::begin(self, Some(len)))
    }
}

impl ser::SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTuple for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTupleStruct for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTupleVariant for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        // Keys and values are interleaved; count each pair once (on the key).
        self.count += 1;
        match &mut self.buffered {
            Some(buf) => {
                let mut sub = Serializer {
                    out: std::mem::take(buf),
                };
                key.serialize(&mut sub)?;
                *buf = sub.out;
                Ok(())
            }
            None => key.serialize(&mut *self.ser),
        }
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        match &mut self.buffered {
            Some(buf) => {
                let mut sub = Serializer {
                    out: std::mem::take(buf),
                };
                value.serialize(&mut sub)?;
                *buf = sub.out;
                Ok(())
            }
            None => value.serialize(&mut *self.ser),
        }
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        debug_assert!(self.buffered.is_none(), "structs always have known len");
        self.ser.put_str_raw(key);
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.ser.put_str_raw(key);
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

// ---------------------------------------------------------------------------
// Deserializer
// ---------------------------------------------------------------------------

struct Deserializer<'de> {
    buf: &'de [u8],
    pos: usize,
}

impl<'de> Deserializer<'de> {
    fn peek_tag(&self) -> Result<u8> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or(Error::UnexpectedEof { offset: self.pos })
    }

    fn take_tag(&mut self) -> Result<u8> {
        let t = self.peek_tag()?;
        self.pos += 1;
        Ok(t)
    }

    fn read_len(&mut self) -> Result<usize> {
        let offset = self.pos;
        let len = varint::read_u64(self.buf, &mut self.pos)? as usize;
        let remaining = self.buf.len() - self.pos;
        // A length can never exceed the remaining bytes (each element is at
        // least one byte); this guards against corrupt lengths causing huge
        // allocations.
        if len > remaining {
            return Err(Error::LengthOverrun {
                declared: len,
                remaining,
                offset,
            });
        }
        Ok(len)
    }

    fn read_exact(&mut self, n: usize) -> Result<&'de [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::UnexpectedEof { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let offset = self.pos;
        let bytes = self.read_exact(N)?;
        bytes
            .try_into()
            .map_err(|_| Error::UnexpectedEof { offset })
    }

    fn read_str_raw(&mut self) -> Result<&'de str> {
        let len = self.read_len()?;
        let offset = self.pos;
        let bytes = self.read_exact(len)?;
        std::str::from_utf8(bytes).map_err(|_| Error::InvalidUtf8 { offset })
    }

    /// Drive `visitor` with whatever value is next on the wire.
    fn visit_next<V: Visitor<'de>>(&mut self, visitor: V) -> Result<V::Value> {
        let offset = self.pos;
        let t = self.take_tag()?;
        match t {
            tag::UNIT => visitor.visit_unit(),
            tag::FALSE => visitor.visit_bool(false),
            tag::TRUE => visitor.visit_bool(true),
            tag::INT => {
                let v = varint::read_i64(self.buf, &mut self.pos)?;
                visitor.visit_i64(v)
            }
            tag::UINT => {
                let v = varint::read_u64(self.buf, &mut self.pos)?;
                visitor.visit_u64(v)
            }
            tag::I128 => {
                let raw = self.read_array::<16>()?;
                visitor.visit_i128(i128::from_le_bytes(raw))
            }
            tag::U128 => {
                let raw = self.read_array::<16>()?;
                visitor.visit_u128(u128::from_le_bytes(raw))
            }
            tag::F32 => {
                let raw = self.read_array::<4>()?;
                visitor.visit_f32(f32::from_le_bytes(raw))
            }
            tag::F64 => {
                let raw = self.read_array::<8>()?;
                visitor.visit_f64(f64::from_le_bytes(raw))
            }
            tag::CHAR => {
                let raw = varint::read_u64(self.buf, &mut self.pos)?;
                let scalar =
                    u32::try_from(raw).map_err(|_| Error::InvalidChar { value: u32::MAX })?;
                let c = char::from_u32(scalar).ok_or(Error::InvalidChar { value: scalar })?;
                visitor.visit_char(c)
            }
            tag::STR => {
                let s = self.read_str_raw()?;
                visitor.visit_borrowed_str(s)
            }
            tag::BYTES => {
                let len = self.read_len()?;
                let b = self.read_exact(len)?;
                visitor.visit_borrowed_bytes(b)
            }
            tag::NONE => visitor.visit_none(),
            tag::SOME => visitor.visit_some(&mut *self),
            tag::SEQ => {
                let len = self.read_len()?;
                visitor.visit_seq(SeqAccess {
                    de: self,
                    remaining: len,
                })
            }
            tag::MAP => {
                let len = self.read_len()?;
                visitor.visit_map(MapAccess {
                    de: self,
                    remaining: len,
                    value_pending: false,
                })
            }
            tag::STRUCT => {
                let len = self.read_len()?;
                visitor.visit_map(StructAccess {
                    de: self,
                    remaining: len,
                    value_pending: false,
                })
            }
            tag::UNIT_VARIANT | tag::NEWTYPE_VARIANT | tag::TUPLE_VARIANT
            | tag::STRUCT_VARIANT => {
                // Rewind so EnumAccess re-reads the tag.
                self.pos = offset;
                visitor.visit_enum(EnumAccess { de: self })
            }
            other => Err(Error::BadTag { tag: other, offset }),
        }
    }
}

struct SeqAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for SeqAccess<'_, 'de> {
    type Error = Error;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct MapAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
    value_pending: bool,
}

impl<'de> de::MapAccess<'de> for MapAccess<'_, 'de> {
    type Error = Error;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        self.value_pending = true;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        debug_assert!(self.value_pending, "next_value without next_key");
        self.value_pending = false;
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Struct fields arrive as raw name strings (no STR tag) followed by values.
struct StructAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
    value_pending: bool,
}

impl<'de> de::MapAccess<'de> for StructAccess<'_, 'de> {
    type Error = Error;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        self.value_pending = true;
        let name = self.de.read_str_raw()?;
        seed.deserialize(name.into_deserializer()).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        debug_assert!(self.value_pending, "next_value without next_key");
        self.value_pending = false;
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = Error;
    type Variant = VariantAccess<'a, 'de>;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant)> {
        let offset = self.de.pos;
        let t = self.de.take_tag()?;
        let kind = match t {
            tag::UNIT_VARIANT => VariantKind::Unit,
            tag::NEWTYPE_VARIANT => VariantKind::Newtype,
            tag::TUPLE_VARIANT => VariantKind::Tuple,
            tag::STRUCT_VARIANT => VariantKind::Struct,
            other => {
                return Err(Error::WrongTag {
                    expected: "enum variant",
                    found: other,
                    offset,
                })
            }
        };
        let name = self.de.read_str_raw()?;
        let value = seed.deserialize(name.into_deserializer())?;
        Ok((value, VariantAccess { de: self.de, kind }))
    }
}

enum VariantKind {
    Unit,
    Newtype,
    Tuple,
    Struct,
}

/// Accessor for a single enum variant's payload.
struct VariantAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    kind: VariantKind,
}

impl<'de> de::VariantAccess<'de> for VariantAccess<'_, 'de> {
    type Error = Error;

    fn unit_variant(self) -> Result<()> {
        match self.kind {
            VariantKind::Unit => Ok(()),
            // Lenient: discard an unexpected payload (e.g. version skew).
            VariantKind::Newtype => {
                de::IgnoredAny::deserialize(&mut *self.de)?;
                Ok(())
            }
            VariantKind::Tuple | VariantKind::Struct => {
                let len = self.de.read_len()?;
                for _ in 0..len {
                    if matches!(self.kind, VariantKind::Struct) {
                        self.de.read_str_raw()?;
                    }
                    de::IgnoredAny::deserialize(&mut *self.de)?;
                }
                Ok(())
            }
        }
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        use serde::de::value::{MapAccessDeserializer, SeqAccessDeserializer, UnitDeserializer};
        match self.kind {
            VariantKind::Newtype => seed.deserialize(&mut *self.de),
            // `IgnoredAny` funnels every variant shape through here; map the
            // actual wire shape onto an equivalent deserializer.
            VariantKind::Unit => seed.deserialize(UnitDeserializer::new()),
            VariantKind::Tuple => {
                let len = self.de.read_len()?;
                seed.deserialize(SeqAccessDeserializer::new(SeqAccess {
                    de: self.de,
                    remaining: len,
                }))
            }
            VariantKind::Struct => {
                let len = self.de.read_len()?;
                seed.deserialize(MapAccessDeserializer::new(StructAccess {
                    de: self.de,
                    remaining: len,
                    value_pending: false,
                }))
            }
        }
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value> {
        match self.kind {
            VariantKind::Tuple => {
                let len = self.de.read_len()?;
                visitor.visit_seq(SeqAccess {
                    de: self.de,
                    remaining: len,
                })
            }
            _ => Err(Error::Message("expected tuple variant".into())),
        }
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        match self.kind {
            VariantKind::Struct => {
                let len = self.de.read_len()?;
                visitor.visit_map(StructAccess {
                    de: self.de,
                    remaining: len,
                    value_pending: false,
                })
            }
            _ => Err(Error::Message("expected struct variant".into())),
        }
    }
}

macro_rules! forward_to_visit_next {
    ($($method:ident)*) => {
        $(fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            self.visit_next(visitor)
        })*
    };
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = Error;

    fn is_human_readable(&self) -> bool {
        false
    }

    forward_to_visit_next! {
        deserialize_any deserialize_bool
        deserialize_i8 deserialize_i16 deserialize_i32 deserialize_i64 deserialize_i128
        deserialize_u8 deserialize_u16 deserialize_u32 deserialize_u64 deserialize_u128
        deserialize_f32 deserialize_f64 deserialize_char
        deserialize_str deserialize_string
        deserialize_bytes deserialize_byte_buf
        deserialize_unit deserialize_map
        deserialize_identifier deserialize_ignored_any
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.peek_tag()? {
            tag::NONE => {
                self.pos += 1;
                visitor.visit_none()
            }
            tag::SOME => {
                self.pos += 1;
                visitor.visit_some(&mut *self)
            }
            other => Err(Error::WrongTag {
                expected: "option",
                found: other,
                offset: self.pos,
            }),
        }
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        self.visit_next(visitor)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        // Transparent on the wire.
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.visit_next(visitor)
    }

    fn deserialize_tuple<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value> {
        self.visit_next(visitor)
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value> {
        self.visit_next(visitor)
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        self.visit_next(visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_enum(EnumAccess { de: self })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};

    fn roundtrip<T>(value: &T) -> T
    where
        T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(value).expect("serialize");
        let back: T = from_bytes(&bytes).expect("deserialize");
        assert_eq!(&back, value);
        back
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Nested {
        name: String,
        values: Vec<f64>,
        blob: Vec<u8>,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Empty,
        One(u32),
        Pair(i16, i16),
        Rec { left: String, right: Option<Box<Kind>> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Everything {
        b: bool,
        i: i64,
        u: u64,
        small: u8,
        neg: i8,
        f: f64,
        c: char,
        s: String,
        opt_none: Option<u32>,
        opt_some: Option<String>,
        tup: (u8, String, bool),
        seq: Vec<Nested>,
        map: BTreeMap<String, i32>,
        kinds: Vec<Kind>,
        unit: (),
        big_u: u128,
        big_i: i128,
    }

    fn everything() -> Everything {
        let mut map = BTreeMap::new();
        map.insert("alpha".into(), -3);
        map.insert("beta".into(), 12);
        Everything {
            b: true,
            i: -1234567890123,
            u: 9876543210,
            small: 255,
            neg: -128,
            f: std::f64::consts::PI,
            c: '✓',
            s: "checkpoint/restart".into(),
            opt_none: None,
            opt_some: Some("inner".into()),
            tup: (7, "t".into(), false),
            seq: vec![
                Nested {
                    name: "rank0".into(),
                    values: vec![1.5, -0.0, f64::MAX],
                    blob: vec![0, 1, 2, 255],
                },
                Nested {
                    name: String::new(),
                    values: vec![],
                    blob: vec![],
                },
            ],
            map,
            kinds: vec![
                Kind::Empty,
                Kind::One(42),
                Kind::Pair(-1, 1),
                Kind::Rec {
                    left: "l".into(),
                    right: Some(Box::new(Kind::Empty)),
                },
            ],
            unit: (),
            big_u: u128::MAX - 7,
            big_i: i128::MIN + 7,
        }
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&-1i32);
        roundtrip(&3.5f32);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&'x');
        roundtrip(&'\u{1F600}');
        roundtrip(&String::from("hello"));
        roundtrip(&String::new());
        roundtrip(&());
    }

    #[test]
    fn float_nan_roundtrips_as_nan() {
        let bytes = to_bytes(&f64::NAN).unwrap();
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn kitchen_sink_roundtrip() {
        roundtrip(&everything());
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<String>::new());
        let mut hm = HashMap::new();
        hm.insert(3u16, "c".to_string());
        hm.insert(1, "a".to_string());
        roundtrip(&hm);
        roundtrip(&Some(Some(Some(5u8))));
        roundtrip(&[0u8; 32].to_vec());
    }

    #[test]
    fn nested_options_distinguish_none_levels() {
        roundtrip(&Option::<Option<u8>>::None);
        roundtrip(&Some(Option::<u8>::None));
    }

    #[test]
    fn newtype_struct_is_transparent() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Rank(u32);
        let bytes = to_bytes(&Rank(9)).unwrap();
        let plain = to_bytes(&9u32).unwrap();
        assert_eq!(bytes, plain);
        roundtrip(&Rank(9));
    }

    #[test]
    fn unknown_struct_fields_are_skipped() {
        // Simulates restarting a context file written by a newer build that
        // added a field: the old reader must skip it cleanly.
        #[derive(Serialize)]
        struct V2 {
            rank: u32,
            extra: Vec<String>,
            hostname: String,
        }
        #[derive(Debug, PartialEq, Deserialize)]
        struct V1 {
            rank: u32,
            hostname: String,
        }
        let bytes = to_bytes(&V2 {
            rank: 3,
            extra: vec!["a".into(), "b".into()],
            hostname: "n0".into(),
        })
        .unwrap();
        let v1: V1 = from_bytes(&bytes).unwrap();
        assert_eq!(
            v1,
            V1 {
                rank: 3,
                hostname: "n0".into()
            }
        );
    }

    #[test]
    fn missing_field_is_an_error() {
        #[derive(Serialize)]
        struct Small {
            rank: u32,
        }
        #[derive(Debug, Deserialize)]
        #[allow(dead_code)]
        struct Big {
            rank: u32,
            hostname: String,
        }
        let bytes = to_bytes(&Small { rank: 1 }).unwrap();
        assert!(from_bytes::<Big>(&bytes).is_err());
    }

    #[test]
    fn serde_default_fields_fill_in() {
        #[derive(Serialize)]
        struct Old {
            rank: u32,
        }
        #[derive(Debug, PartialEq, Deserialize)]
        struct New {
            rank: u32,
            #[serde(default)]
            retries: u32,
        }
        let bytes = to_bytes(&Old { rank: 1 }).unwrap();
        let new: New = from_bytes(&bytes).unwrap();
        assert_eq!(new, New { rank: 1, retries: 0 });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u32).unwrap();
        bytes.push(0x00);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(Error::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&everything()).unwrap();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_bytes::<Everything>(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupt_length_prefix_rejected_without_huge_alloc() {
        // STR tag followed by an absurd length must error, not allocate.
        let mut bytes = vec![tag::STR];
        crate::varint::write_u64(&mut bytes, u64::MAX / 2);
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(Error::LengthOverrun { .. })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            from_bytes::<u32>(&[0x7F]),
            Err(Error::BadTag { tag: 0x7F, .. })
        ));
    }

    #[test]
    fn wrong_shape_is_type_error_not_panic() {
        let bytes = to_bytes(&"a string").unwrap();
        assert!(from_bytes::<Vec<u32>>(&bytes).is_err());
        let bytes = to_bytes(&vec![1u8, 2]).unwrap();
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn ignored_any_skips_every_shape() {
        #[derive(Serialize)]
        struct Wrapper {
            before: u8,
            skipme: Everything,
            variants: Vec<Kind>,
            after: u8,
        }
        #[derive(Debug, PartialEq, Deserialize)]
        struct Sparse {
            before: u8,
            after: u8,
        }
        let bytes = to_bytes(&Wrapper {
            before: 1,
            skipme: everything(),
            variants: vec![
                Kind::Empty,
                Kind::One(1),
                Kind::Pair(2, 3),
                Kind::Rec {
                    left: "x".into(),
                    right: None,
                },
            ],
            after: 2,
        })
        .unwrap();
        let sparse: Sparse = from_bytes(&bytes).unwrap();
        assert_eq!(sparse, Sparse { before: 1, after: 2 });
    }

    #[test]
    fn bytes_with_serde_bytes_style_buffers() {
        // Vec<u8> serializes element-wise through serde by default; make sure
        // large byte payloads still roundtrip exactly.
        let blob: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        roundtrip(&blob);
    }

    #[test]
    fn deeply_nested_enum_roundtrip() {
        let mut k = Kind::Empty;
        for _ in 0..64 {
            k = Kind::Rec {
                left: "l".into(),
                right: Some(Box::new(k)),
            };
        }
        roundtrip(&k);
    }

    #[test]
    fn char_invalid_scalar_rejected() {
        let mut bytes = vec![tag::CHAR];
        crate::varint::write_u64(&mut bytes, 0xD800); // surrogate
        assert!(matches!(
            from_bytes::<char>(&bytes),
            Err(Error::InvalidChar { value: 0xD800 })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = vec![tag::STR];
        crate::varint::write_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(Error::InvalidUtf8 { .. })
        ));
    }
}
