//! The tagged binary format of every context file, OOB message, frame and
//! journal record, written and read through one explicit trait, [`Wire`].
//!
//! Every value starts with a one-byte tag, so a reader can step over a
//! value whose type it does not know: an unknown struct field written by
//! a newer build is skipped, not misread. Integers are LEB128 varints
//! (zigzag for signed), lengths and counts are varints, strings are UTF-8
//! behind their byte length, structs are `(name, value)` pairs so fields
//! can be added, dropped or reordered between builds, and enum variants
//! travel by name.
//!
//! | tag | name | body | written by |
//! | --- | --- | --- | --- |
//! | `0x00` | `UNIT` | — | `()`, unit structs |
//! | `0x01` | `FALSE` | — | `bool` |
//! | `0x02` | `TRUE` | — | `bool` |
//! | `0x03` | `INT` | zigzag varint | `i8`–`i64`, `isize` |
//! | `0x04` | `UINT` | varint | `u8`–`u64`, `usize` |
//! | `0x05` | `I128` | 16 bytes LE | `i128` |
//! | `0x06` | `U128` | 16 bytes LE | `u128` |
//! | `0x07` | `F32` | 4 bytes LE | `f32` |
//! | `0x08` | `F64` | 8 bytes LE | `f64` |
//! | `0x09` | `CHAR` | varint scalar value | `char` |
//! | `0x0A` | `STR` | varint length, UTF-8 | `String`, `PathBuf` |
//! | `0x0B` | `BYTES` | varint length, raw bytes | `Vec<u8>`, `Bytes` |
//! | `0x0C` | `NONE` | — | `Option` |
//! | `0x0D` | `SOME` | value | `Option` |
//! | `0x0E` | `SEQ` | varint count, values | `Vec<T>`, `VecDeque`, tuples |
//! | `0x0F` | `MAP` | varint count, (key, value) pairs | `BTreeMap`, `HashMap` |
//! | `0x10` | `STRUCT` | varint count, (name, value) pairs | [`wire_struct!`](crate::wire_struct) |
//! | `0x11` | `UNIT_VARIANT` | name | [`wire_enum!`](crate::wire_enum) |
//! | `0x12` | `NEWTYPE_VARIANT` | name, value | [`wire_enum!`](crate::wire_enum) |
//! | `0x13` | `TUPLE_VARIANT` | name, varint count, values | [`wire_enum!`](crate::wire_enum) |
//! | `0x14` | `STRUCT_VARIANT` | name, varint count, (name, value) pairs | [`wire_enum!`](crate::wire_enum) |
//!
//! A field or variant *name* is an untagged string: varint length, UTF-8.
//! A newtype struct (`Rank(u32)`) is its inner value, unchanged; `Box`
//! and `Arc` are transparent too. Tags are append-only: a context file
//! written by one build must restart under the next.
//!
//! A `Vec<u8>` is one `BYTES` run — a `memcpy` each way. Every other
//! `Vec<T>` is a `SEQ`. A `Vec<u8>` also reads the `SEQ` of tagged bytes
//! that builds before the run existed wrote, so their snapshots restore.
//! A `Vec<f64>` is a `SEQ` of `F64` records like any other, but it is
//! written into one resized buffer and read back in one checked pass.
//! A [`bytes::Bytes`] is written and read exactly as a `Vec<u8>`.
//!
//! Decoding expects one specific type and checks everything it reads:
//!
//! * a struct skips fields it does not know, fills a field listed as
//!   `skip` or `#[default]` with its `Default` when it is absent, and
//!   fails on any other missing field or on a repeated one;
//! * a unit variant ignores a payload it does not expect; every other
//!   variant shape must match;
//! * an integer may arrive under any integer tag and must fit its type;
//!   a float also reads an integer;
//! * trailing bytes, truncation, bad UTF-8, an invalid `char`, a wrong or
//!   unknown tag and a length longer than the input all return a typed
//!   [`Error`], and no declared length is reserved before it is checked
//!   against the bytes that remain.
//!
//! Skipping an unknown value is iterative, so no nesting depth in an
//! outside input can exhaust the stack.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::path::PathBuf;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::varint;

/// Type tags, append-only; the table in the module docs says what each
/// one carries.
#[allow(missing_docs)]
pub mod tag {
    pub const UNIT: u8 = 0x00;
    pub const FALSE: u8 = 0x01;
    pub const TRUE: u8 = 0x02;
    pub const INT: u8 = 0x03;
    pub const UINT: u8 = 0x04;
    pub const I128: u8 = 0x05;
    pub const U128: u8 = 0x06;
    pub const F32: u8 = 0x07;
    pub const F64: u8 = 0x08;
    pub const CHAR: u8 = 0x09;
    pub const STR: u8 = 0x0A;
    pub const BYTES: u8 = 0x0B;
    pub const NONE: u8 = 0x0C;
    pub const SOME: u8 = 0x0D;
    pub const SEQ: u8 = 0x0E;
    pub const MAP: u8 = 0x0F;
    pub const STRUCT: u8 = 0x10;
    pub const UNIT_VARIANT: u8 = 0x11;
    pub const NEWTYPE_VARIANT: u8 = 0x12;
    pub const TUPLE_VARIANT: u8 = 0x13;
    pub const STRUCT_VARIANT: u8 = 0x14;
}

/// Most elements reserved up front from a declared count; longer
/// sequences grow as they are read.
const RESERVE_CAP: usize = 4096;

/// A type with one explicit encoding in the tagged format.
///
/// Implemented here for the primitives, `String`, `PathBuf`, `Option`,
/// `Box`, `Arc`, `Vec`, `VecDeque`, maps and tuples; structs and enums
/// implement it with [`wire_struct!`](crate::wire_struct) and
/// [`wire_enum!`](crate::wire_enum).
///
/// Decoders report error offsets counted back from the end of the input;
/// [`from_bytes`] turns them into offsets from its start.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `input` and advance past it.
    fn decode(input: &mut &[u8]) -> Result<Self>;

    /// Append `items` as a `Vec<Self>`: a `SEQ` of values, except for
    /// `u8`, whose slice is one `BYTES` run.
    #[doc(hidden)]
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        put_header(out, tag::SEQ, items.len());
        for item in items {
            item.encode_into(out);
        }
    }

    /// Decode a `Vec<Self>` written by [`Wire::encode_slice`].
    #[doc(hidden)]
    fn decode_vec(input: &mut &[u8]) -> Result<Vec<Self>> {
        let count = take_header(input, tag::SEQ, "sequence")?;
        decode_n(input, count)
    }
}

/// Encode `value` into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_into(&mut out);
    out
}

/// Decode a `T` that must fill `bytes` exactly: leftover bytes are
/// [`Error::TrailingBytes`], which catches framing bugs early.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T> {
    let mut input = bytes;
    let value = T::decode(&mut input).map_err(|e| e.rebase(bytes.len()))?;
    if !input.is_empty() {
        return Err(Error::TrailingBytes {
            remaining: input.len(),
        });
    }
    Ok(value)
}

/// Append the pair `(first, second)` exactly as the tuple `(A, B)` would
/// encode, from borrowed halves.
pub fn encode_pair<A: Wire, B: Wire>(first: &A, second: &B, out: &mut Vec<u8>) {
    put_header(out, tag::SEQ, 2);
    first.encode_into(out);
    second.encode_into(out);
}

// ---------------------------------------------------------------------------
// Reading and writing the pieces
// ---------------------------------------------------------------------------

/// Append `tag` and a varint `count`.
pub fn put_header(out: &mut Vec<u8>, tag: u8, count: usize) {
    out.push(tag);
    varint::write_u64(out, count as u64);
}

fn put_str(out: &mut Vec<u8>, name: &str) {
    varint::write_u64(out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
}

/// The error for tag `found` where `expected` was wanted, at `offset`.
fn mismatch(found: u8, expected: &'static str, offset: usize) -> Error {
    if found > tag::STRUCT_VARIANT {
        Error::BadTag { tag: found, offset }
    } else {
        Error::WrongTag {
            expected,
            found,
            offset,
        }
    }
}

fn take_tag(input: &mut &[u8]) -> Result<u8> {
    let (&t, rest) = input
        .split_first()
        .ok_or(Error::UnexpectedEof { offset: 0 })?;
    *input = rest;
    Ok(t)
}

fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if input.len() < n {
        return Err(Error::UnexpectedEof {
            offset: input.len(),
        });
    }
    let (bytes, rest) = input.split_at(n);
    *input = rest;
    Ok(bytes)
}

fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N]> {
    let mut out = [0; N];
    out.copy_from_slice(take_bytes(input, N)?);
    Ok(out)
}

/// A varint length or count, checked against the bytes that remain: every
/// element takes at least one byte, so a longer count is a lie.
fn take_len(input: &mut &[u8]) -> Result<usize> {
    let offset = input.len();
    let declared = varint::read_u64(input)?;
    let remaining = input.len();
    if declared > remaining as u64 {
        return Err(Error::LengthOverrun {
            declared: usize::try_from(declared).unwrap_or(usize::MAX),
            remaining,
            offset,
        });
    }
    Ok(declared as usize)
}

/// Read tag `want` (named `what` in the error), then its count.
pub fn take_header(input: &mut &[u8], want: u8, what: &'static str) -> Result<usize> {
    let offset = input.len();
    match take_tag(input)? {
        t if t == want => take_len(input),
        other => Err(mismatch(other, what, offset)),
    }
}

/// Read an untagged string: a field or variant name, or a `STR` body.
pub fn take_str<'a>(input: &mut &'a [u8]) -> Result<&'a str> {
    let len = take_len(input)?;
    let offset = input.len();
    std::str::from_utf8(take_bytes(input, len)?).map_err(|_| Error::InvalidUtf8 { offset })
}

/// A `CHAR` body.
fn take_char(input: &mut &[u8]) -> Result<char> {
    let raw = varint::read_u64(input)?;
    let scalar = u32::try_from(raw).map_err(|_| Error::InvalidChar { value: u32::MAX })?;
    char::from_u32(scalar).ok_or(Error::InvalidChar { value: scalar })
}

fn decode_n<T: Wire>(input: &mut &[u8], count: usize) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(count.min(RESERVE_CAP));
    for _ in 0..count {
        out.push(T::decode(input)?);
    }
    Ok(out)
}

/// Any integer tag, range-checked into `T` (named `ty` in the error).
fn take_int<T>(input: &mut &[u8], ty: &'static str) -> Result<T>
where
    T: TryFrom<i64> + TryFrom<u64> + TryFrom<i128> + TryFrom<u128>,
{
    let offset = input.len();
    let fits = match take_tag(input)? {
        tag::INT => T::try_from(varint::read_i64(input)?).ok(),
        tag::UINT => T::try_from(varint::read_u64(input)?).ok(),
        tag::I128 => T::try_from(i128::from_le_bytes(take_array(input)?)).ok(),
        tag::U128 => T::try_from(u128::from_le_bytes(take_array(input)?)).ok(),
        other => return Err(mismatch(other, "an integer", offset)),
    };
    fits.ok_or(Error::IntOutOfRange { ty, offset })
}

/// Skip one value of any shape.
pub fn skip(input: &mut &[u8]) -> Result<()> {
    skip_values(input, 1, false)
}

/// Skip `count` values, each behind a field name when `named`.
///
/// Iterative: the stack holds one frame per open container that still
/// owes values. A frame is dropped before its last value is opened, so a
/// chain of single wrappers (`SOME SOME …`) never grows it, and each frame
/// owes at least one byte of input, so it never outgrows the input.
fn skip_values(input: &mut &[u8], count: usize, named: bool) -> Result<()> {
    let mut stack = vec![(count, named)];
    while let Some((left, named)) = stack.pop() {
        if left == 0 {
            continue;
        }
        if left > 1 {
            stack.push((left - 1, named));
        }
        if named {
            take_str(input)?;
        }
        let offset = input.len();
        match take_tag(input)? {
            tag::UNIT | tag::FALSE | tag::TRUE | tag::NONE => {}
            tag::INT | tag::UINT => {
                varint::read_u64(input)?;
            }
            tag::I128 | tag::U128 => {
                take_bytes(input, 16)?;
            }
            tag::F32 => {
                take_bytes(input, 4)?;
            }
            tag::F64 => {
                take_bytes(input, 8)?;
            }
            tag::CHAR => {
                take_char(input)?;
            }
            tag::STR | tag::UNIT_VARIANT => {
                take_str(input)?;
            }
            tag::BYTES => {
                let len = take_len(input)?;
                take_bytes(input, len)?;
            }
            tag::SOME => stack.push((1, false)),
            tag::SEQ => stack.push((take_len(input)?, false)),
            // `count <= remaining bytes`, so doubling cannot overflow.
            tag::MAP => stack.push((take_len(input)? * 2, false)),
            tag::STRUCT => stack.push((take_len(input)?, true)),
            tag::NEWTYPE_VARIANT => {
                take_str(input)?;
                stack.push((1, false));
            }
            tag::TUPLE_VARIANT => {
                take_str(input)?;
                stack.push((take_len(input)?, false));
            }
            tag::STRUCT_VARIANT => {
                take_str(input)?;
                stack.push((take_len(input)?, true));
            }
            other => return Err(Error::BadTag { tag: other, offset }),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pieces the `wire_struct!` / `wire_enum!` expansions call
// ---------------------------------------------------------------------------

/// Append one `(name, value)` struct field.
pub fn field<T: Wire>(out: &mut Vec<u8>, name: &str, value: &T) {
    put_str(out, name);
    value.encode_into(out);
}

/// Start a variant: its tag and name.
pub fn variant_header(out: &mut Vec<u8>, tag: u8, name: &str) {
    out.push(tag);
    put_str(out, name);
}

/// Decode the value of field `name` into `slot` when `name` is `key`,
/// the field `slot` stands for; whether it was. `slot` must still be
/// empty.
pub fn decode_field<T: Wire>(
    slot: &mut Option<T>,
    key: &'static str,
    name: &str,
    input: &mut &[u8],
) -> Result<bool> {
    if name != key {
        return Ok(false);
    }
    if slot.is_some() {
        return Err(Error::DuplicateField { field: key });
    }
    *slot = Some(T::decode(input)?);
    Ok(true)
}

/// Read a variant's tag and name.
pub fn take_variant<'a>(input: &mut &'a [u8]) -> Result<(u8, &'a str)> {
    let offset = input.len();
    match take_tag(input)? {
        t @ tag::UNIT_VARIANT..=tag::STRUCT_VARIANT => Ok((t, take_str(input)?)),
        other => Err(mismatch(other, "an enum variant", offset)),
    }
}

/// Finish a unit variant written as `kind`: any payload is skipped.
pub fn unit_variant(input: &mut &[u8], kind: u8) -> Result<()> {
    match kind {
        tag::NEWTYPE_VARIANT => skip_values(input, 1, false),
        tag::TUPLE_VARIANT => {
            let count = take_len(input)?;
            skip_values(input, count, false)
        }
        tag::STRUCT_VARIANT => {
            let count = take_len(input)?;
            skip_values(input, count, true)
        }
        _ => Ok(()),
    }
}

/// Check that a variant written as `kind` has the shape `want` its type
/// declares, and return how many values follow its name: one for a
/// newtype, the declared count (which must be `arity`, when given) for a
/// tuple or struct variant.
pub fn variant_shape(
    input: &mut &[u8],
    kind: u8,
    want: u8,
    arity: Option<usize>,
) -> Result<usize> {
    if kind != want {
        let what = match want {
            tag::NEWTYPE_VARIANT => "a newtype variant",
            tag::TUPLE_VARIANT => "a tuple variant",
            _ => "a struct variant",
        };
        return Err(mismatch(kind, what, input.len()));
    }
    if want == tag::NEWTYPE_VARIANT {
        return Ok(1);
    }
    let found = take_len(input)?;
    match arity {
        Some(expected) if expected != found => Err(Error::LengthMismatch { expected, found }),
        _ => Ok(found),
    }
}

// ---------------------------------------------------------------------------
// Implementations for std types
// ---------------------------------------------------------------------------

macro_rules! wire_int {
    ($tag:expr, $widen:ty, $write:path => $($t:ty),*) => {$(
        impl Wire for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.push($tag);
                $write(out, *self as $widen);
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                take_int(input, stringify!($t))
            }
        }
    )*};
}

wire_int!(tag::UINT, u64, varint::write_u64 => u16, u32, u64, usize);
wire_int!(tag::INT, i64, varint::write_i64 => i8, i16, i32, i64, isize);

/// A byte is a `UINT`, but a `Vec<u8>` is one `BYTES` run.
impl Wire for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(tag::UINT);
        varint::write_u64(out, u64::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        take_int(input, "u8")
    }

    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        put_header(out, tag::BYTES, items.len());
        out.extend_from_slice(items);
    }

    /// The run, or the `SEQ` of tagged bytes older builds wrote.
    fn decode_vec(input: &mut &[u8]) -> Result<Vec<u8>> {
        let offset = input.len();
        match take_tag(input)? {
            tag::BYTES => {
                let len = take_len(input)?;
                Ok(take_bytes(input, len)?.to_vec())
            }
            tag::SEQ => {
                let count = take_len(input)?;
                decode_n(input, count)
            }
            other => Err(mismatch(other, "bytes", offset)),
        }
    }
}

/// Any float or integer tag, as an `f64` (an `F32` widens exactly).
fn take_float(input: &mut &[u8]) -> Result<f64> {
    let offset = input.len();
    Ok(match take_tag(input)? {
        tag::F32 => f64::from(f32::from_le_bytes(take_array(input)?)),
        tag::F64 => f64::from_le_bytes(take_array(input)?),
        tag::INT => varint::read_i64(input)? as f64,
        tag::UINT => varint::read_u64(input)? as f64,
        other => return Err(mismatch(other, "a float", offset)),
    })
}

/// Fixed-width numbers: the tag, then the little-endian bytes.
macro_rules! wire_le {
    ($($t:ty => $tag:expr, |$input:ident| $decode:expr;)*) => {$(
        impl Wire for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.push($tag);
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode($input: &mut &[u8]) -> Result<Self> {
                $decode
            }
        }
    )*};
}

wire_le! {
    i128 => tag::I128, |input| take_int(input, "i128");
    u128 => tag::U128, |input| take_int(input, "u128");
    f32 => tag::F32, |input| take_float(input).map(|v| v as f32);
}

/// One `F64` record: the tag, then the 8 little-endian bytes.
const F64_RECORD: usize = 9;

/// An `F64`. A `Vec<f64>` is the `SEQ` of `F64` records any sequence
/// writes, but written and read as one slab.
impl Wire for f64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(tag::F64);
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        take_float(input)
    }

    fn encode_slice(items: &[f64], out: &mut Vec<u8>) {
        put_header(out, tag::SEQ, items.len());
        let start = out.len();
        out.resize(start + items.len() * F64_RECORD, tag::F64);
        let slab = out.get_mut(start..).unwrap_or_default();
        for (record, value) in slab.chunks_exact_mut(F64_RECORD).zip(items) {
            if let Some((_, le)) = record.split_first_mut() {
                le.copy_from_slice(&value.to_le_bytes());
            }
        }
    }

    /// One pass checks that all `count` records are present and tagged
    /// `F64`, the next converts them. Anything else (an `F32`, `INT` or
    /// `UINT` element, or a short input) takes the per-item path, which
    /// reads every numeric tag and reports where the input goes wrong.
    fn decode_vec(input: &mut &[u8]) -> Result<Vec<f64>> {
        let count = take_header(input, tag::SEQ, "sequence")?;
        let slab = count
            .checked_mul(F64_RECORD)
            .and_then(|len| input.get(..len))
            .filter(|slab| slab.chunks_exact(F64_RECORD).all(|r| r.first() == Some(&tag::F64)));
        let Some(slab) = slab else {
            return decode_n(input, count);
        };
        *input = input.get(slab.len()..).unwrap_or_default();
        Ok(slab
            .chunks_exact(F64_RECORD)
            .map(|r| r.last_chunk().map_or(0.0, |le| f64::from_le_bytes(*le)))
            .collect())
    }
}

impl Wire for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(if *self { tag::TRUE } else { tag::FALSE });
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let offset = input.len();
        match take_tag(input)? {
            tag::TRUE => Ok(true),
            tag::FALSE => Ok(false),
            other => Err(mismatch(other, "a boolean", offset)),
        }
    }
}

/// A `CHAR`; also reads a one-character `STR`.
impl Wire for char {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(tag::CHAR);
        varint::write_u64(out, u64::from(u32::from(*self)));
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let offset = input.len();
        match take_tag(input)? {
            tag::CHAR => take_char(input),
            tag::STR => {
                let mut chars = take_str(input)?.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(mismatch(tag::STR, "a char", offset)),
                }
            }
            other => Err(mismatch(other, "a char", offset)),
        }
    }
}

/// A `STR`; also reads a `CHAR`.
impl Wire for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(tag::STR);
        put_str(out, self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let offset = input.len();
        match take_tag(input)? {
            tag::STR => Ok(take_str(input)?.to_owned()),
            tag::CHAR => Ok(take_char(input)?.to_string()),
            other => Err(mismatch(other, "a string", offset)),
        }
    }
}

/// A path is its string (lossy for a path that is not UTF-8).
impl Wire for PathBuf {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(tag::STR);
        put_str(out, &self.to_string_lossy());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        String::decode(input).map(PathBuf::from)
    }
}

impl Wire for () {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(tag::UNIT);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let offset = input.len();
        match take_tag(input)? {
            tag::UNIT => Ok(()),
            other => Err(mismatch(other, "a unit", offset)),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(tag::NONE),
            Some(value) => {
                out.push(tag::SOME);
                value.encode_into(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let offset = input.len();
        match take_tag(input)? {
            tag::NONE => Ok(None),
            tag::SOME => T::decode(input).map(Some),
            other => Err(mismatch(other, "an option", offset)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (**self).encode_into(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        T::decode(input).map(Box::new)
    }
}

/// Transparent; decoding yields a fresh, unshared `Arc`.
impl<T: Wire> Wire for Arc<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (**self).encode_into(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        T::decode(input).map(Arc::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        T::decode_vec(input)
    }
}

/// The same bytes as a `Vec<u8>`: one run, or an old build's `SEQ`.
impl Wire for bytes::Bytes {
    fn encode_into(&self, out: &mut Vec<u8>) {
        u8::encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        u8::decode_vec(input).map(bytes::Bytes::from)
    }
}

/// Always a `SEQ`, even of bytes.
impl<T: Wire> Wire for VecDeque<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_header(out, tag::SEQ, self.len());
        for item in self {
            item.encode_into(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let count = take_header(input, tag::SEQ, "sequence")?;
        decode_n(input, count).map(VecDeque::from)
    }
}

fn encode_map<'a, K: Wire + 'a, V: Wire + 'a>(
    out: &mut Vec<u8>,
    len: usize,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    put_header(out, tag::MAP, len);
    for (key, value) in entries {
        key.encode_into(out);
        value.encode_into(out);
    }
}

fn decode_map<K: Wire, V: Wire, M: Extend<(K, V)>>(input: &mut &[u8], mut map: M) -> Result<M> {
    let count = take_header(input, tag::MAP, "a map")?;
    for _ in 0..count {
        let key = K::decode(input)?;
        let value = V::decode(input)?;
        map.extend([(key, value)]);
    }
    Ok(map)
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_map(out, self.len(), self.iter());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        decode_map(input, BTreeMap::new())
    }
}

impl<K: Wire + Eq + Hash, V: Wire, S: BuildHasher + Default> Wire for HashMap<K, V, S> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_map(out, self.len(), self.iter());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        decode_map(input, HashMap::with_hasher(S::default()))
    }
}

macro_rules! wire_tuple {
    ($len:expr => $($t:ident $i:tt)+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn encode_into(&self, out: &mut Vec<u8>) {
                put_header(out, tag::SEQ, $len);
                $( self.$i.encode_into(out); )+
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                let found = take_header(input, tag::SEQ, "a tuple")?;
                if found != $len {
                    return Err(Error::LengthMismatch { expected: $len, found });
                }
                Ok(($( $t::decode(input)?, )+))
            }
        }
    };
}

wire_tuple!(2 => A 0 B 1);
wire_tuple!(3 => A 0 B 1 C 2);
wire_tuple!(4 => A 0 B 1 C 2 D 3);

// ---------------------------------------------------------------------------
// Struct and enum macros
// ---------------------------------------------------------------------------

/// Implement [`Wire`] for a struct, from a field list written after its
/// definition.
///
/// * `wire_struct!(Name)` — a unit struct: `UNIT`.
/// * `wire_struct!(Name(_))` — a newtype: its inner value, unchanged.
/// * `wire_struct!(Name { a, #[default] b, c } skip { d })` — a `STRUCT`
///   of the listed fields in the order given (list them in declaration
///   order: the order is the bytes). A `#[default]` field decodes to its
///   `Default` when absent; a `skip` field is never written and always
///   decodes to its `Default`.
/// * `wire_struct!(Name { a, b: Inner { x as b_x, y as b_y }, c })` —
///   `b` is flattened: the listed fields of the nested struct are written
///   in `b`'s place as fields of `Name` under the given names. On decode
///   every listed name must be present, and the fields of `Inner` not
///   listed keep their `Default`.
///
/// The decoder builds the value with a struct literal, so a field left
/// out of both lists is a compile error, not a silent gap.
///
/// ```
/// #[derive(Debug, PartialEq, Default)]
/// struct RankState { rank: u32, data: Vec<u8>, scratch: Vec<u64> }
/// codec::wire_struct!(RankState { rank, data } skip { scratch });
///
/// let state = RankState { rank: 3, data: vec![1, 2, 3], scratch: vec![9] };
/// let back: RankState = codec::from_bytes(&codec::to_bytes(&state)).unwrap();
/// assert_eq!(back, RankState { scratch: vec![], ..state });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident) => {
        impl $crate::Wire for $name {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::Wire::encode_into(&(), out)
            }
            fn decode(input: &mut &[u8]) -> $crate::Result<Self> {
                <() as $crate::Wire>::decode(input).map(|()| $name)
            }
        }
    };
    ($name:ident (_)) => {
        impl $crate::Wire for $name {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::Wire::encode_into(&self.0, out)
            }
            fn decode(input: &mut &[u8]) -> $crate::Result<Self> {
                $crate::Wire::decode(input).map($name)
            }
        }
    };
    ($name:ident { $( $(#[$default:ident])? $field:ident
                      $( : $nested:ty { $( $sub:ident as $key:ident ),* $(,)? } )? ),* $(,)? }
     $( skip { $( $skip:ident ),* $(,)? } )?) => {
        impl $crate::Wire for $name {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                let fields = 0 $( + $crate::__wire_keys!($field $( { $( $key ),* } )?).len() )*;
                $crate::wire::put_header(out, $crate::wire::tag::STRUCT, fields);
                $( $crate::__wire_put!(out, self.$field, $field $( { $( $sub as $key ),* } )?); )*
            }
            fn decode(input: &mut &[u8]) -> $crate::Result<Self> {
                let count = $crate::wire::take_header(input, $crate::wire::tag::STRUCT, "struct")?;
                $crate::__wire_fields!(input, count, $name {
                    $( $(#[$default])? $field $( : $nested { $( $sub as $key ),* } )? ),*
                } skip { $( $( $skip ),* )? })
            }
        }
    };
}

/// Implement [`Wire`] for an enum, from a variant list written after its
/// definition: `Unit`, `Newtype(x)`, `Tuple(a, b)` and `Struct { f, g }`
/// (the names inside `(..)` only bind the values). Every variant is
/// written by name; the match over `self` makes a missing variant a
/// compile error. A struct variant's field may be marked `#[default]`, as
/// in [`wire_struct!`]: bytes written before the field existed decode
/// with its `Default`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Msg { Stop, Ack(u32), Move(i16, i16), Put { key: String, data: Vec<u8> } }
/// codec::wire_enum!(Msg { Stop, Ack(node), Move(x, y), Put { key, data } });
///
/// let msg = Msg::Put { key: "ctx".into(), data: vec![7; 3] };
/// assert_eq!(codec::from_bytes::<Msg>(&codec::to_bytes(&msg)).unwrap(), msg);
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ident { $( $variant:ident $( ( $( $elem:ident ),* ) )?
        $( { $( $(#[$default:ident])? $field:ident ),* $(,)? } )? ),* $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $( $name::$variant $( ( $( $elem ),* ) )? $( { $( $field ),* } )? => {
                        $crate::__wire_encode_variant!(out, $variant $( ( $( $elem ),* ) )? $( { $( $field ),* } )?)
                    } )*
                }
            }
            fn decode(input: &mut &[u8]) -> $crate::Result<Self> {
                let (kind, name) = $crate::wire::take_variant(input)?;
                match name {
                    $( stringify!($variant) => $crate::__wire_decode_variant!(
                        input, kind, $name :: $variant $( ( $( $elem ),* ) )?
                        $( { $( $(#[$default])? $field ),* } )?
                    ), )*
                    other => ::std::result::Result::Err($crate::Error::UnknownVariant {
                        name: other.to_string(),
                    }),
                }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_fields {
    ($input:ident, $count:ident, $($path:ident)::+ { $( $(#[$default:ident])? $field:ident
        $( : $nested:ty { $( $sub:ident as $key:ident ),* } )? ),* }
     skip { $( $skip:ident ),* }) => {{
        $( $crate::__wire_slots!($field $( { $( $key ),* } )?); )*
        for _ in 0..$count {
            let name = $crate::wire::take_str($input)?;
            let known = false
                $( || $crate::__wire_take!($input, name, $field $( { $( $key ),* } )?) )*;
            if !known {
                $crate::wire::skip($input)?;
            }
        }
        ::std::result::Result::Ok($($path)::+ {
            $( $field: $crate::__wire_field_value!(
                $field $( : $nested { $( $sub as $key ),* } )? $(, $default)?
            ), )*
            $( $skip: ::std::default::Default::default(), )*
        })
    }};
}

/// The wire names one `wire_struct!` entry writes.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_keys {
    ($field:ident) => {
        [stringify!($field)]
    };
    ($field:ident { $( $key:ident ),* }) => {
        [$( stringify!($key) ),*]
    };
}

/// Write one `wire_struct!` entry: the field, or a flattened struct's
/// listed fields under their wire names.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($out:ident, $value:expr, $field:ident) => {
        $crate::wire::field($out, stringify!($field), &$value)
    };
    ($out:ident, $value:expr, $field:ident { $( $sub:ident as $key:ident ),* }) => {
        $( $crate::wire::field($out, stringify!($key), &$value.$sub); )*
    };
}

/// One empty decode slot per wire name of a `wire_struct!` entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_slots {
    ($field:ident) => {
        let mut $field = ::std::option::Option::None;
    };
    ($field:ident { $( $key:ident ),* }) => {
        $( let mut $key = ::std::option::Option::None; )*
    };
}

/// Decode the field named `name` into its slot if it is one of this
/// entry's wire names; whether it was.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_take {
    ($input:ident, $name:ident, $field:ident) => {
        $crate::wire::decode_field(&mut $field, stringify!($field), $name, $input)?
    };
    ($input:ident, $name:ident, $field:ident { $( $key:ident ),* }) => {
        (false $( || $crate::wire::decode_field(&mut $key, stringify!($key), $name, $input)? )*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_field_value {
    ($field:ident) => {
        $field.ok_or($crate::Error::MissingField { field: stringify!($field) })?
    };
    ($field:ident, default) => {
        $field.unwrap_or_default()
    };
    ($field:ident : $nested:ty { $( $sub:ident as $key:ident ),* }) => {{
        let mut nested: $nested = ::std::default::Default::default();
        $( nested.$sub = $key.ok_or($crate::Error::MissingField { field: stringify!($key) })?; )*
        nested
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_encode_variant {
    ($out:ident, $variant:ident) => {
        $crate::wire::variant_header($out, $crate::wire::tag::UNIT_VARIANT, stringify!($variant))
    };
    ($out:ident, $variant:ident ( $elem:ident )) => {{
        $crate::wire::variant_header($out, $crate::wire::tag::NEWTYPE_VARIANT, stringify!($variant));
        $crate::Wire::encode_into($elem, $out);
    }};
    ($out:ident, $variant:ident ( $( $elem:ident ),* )) => {{
        $crate::wire::variant_header($out, $crate::wire::tag::TUPLE_VARIANT, stringify!($variant));
        $crate::varint::write_u64($out, <[&str]>::len(&[$( stringify!($elem) ),*]) as u64);
        $( $crate::Wire::encode_into($elem, $out); )*
    }};
    ($out:ident, $variant:ident { $( $field:ident ),* }) => {{
        $crate::wire::variant_header($out, $crate::wire::tag::STRUCT_VARIANT, stringify!($variant));
        $crate::varint::write_u64($out, <[&str]>::len(&[$( stringify!($field) ),*]) as u64);
        $( $crate::wire::field($out, stringify!($field), $field); )*
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_decode_variant {
    ($input:ident, $kind:ident, $name:ident :: $variant:ident) => {
        $crate::wire::unit_variant($input, $kind).map(|()| $name::$variant)
    };
    ($input:ident, $kind:ident, $name:ident :: $variant:ident ( $elem:ident )) => {{
        $crate::wire::variant_shape($input, $kind, $crate::wire::tag::NEWTYPE_VARIANT, None)?;
        ::std::result::Result::Ok($name::$variant($crate::Wire::decode($input)?))
    }};
    ($input:ident, $kind:ident, $name:ident :: $variant:ident ( $( $elem:ident ),* )) => {{
        let arity = <[&str]>::len(&[$( stringify!($elem) ),*]);
        $crate::wire::variant_shape($input, $kind, $crate::wire::tag::TUPLE_VARIANT, Some(arity))?;
        ::std::result::Result::Ok($name::$variant($( {
            let $elem = $crate::Wire::decode($input)?;
            $elem
        } ),*))
    }};
    ($input:ident, $kind:ident, $name:ident :: $variant:ident
     { $( $(#[$default:ident])? $field:ident ),* }) => {{
        let count =
            $crate::wire::variant_shape($input, $kind, $crate::wire::tag::STRUCT_VARIANT, None)?;
        $crate::__wire_fields!($input, count, $name :: $variant { $( $(#[$default])? $field ),* }
            skip {})
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let bytes = to_bytes(value);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, value);
        back
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Nested {
        name: String,
        values: Vec<f64>,
        blob: Vec<u8>,
    }
    crate::wire_struct!(Nested { name, values, blob });

    #[derive(Debug, Clone, PartialEq)]
    enum Kind {
        Empty,
        One(u32),
        Pair(i16, i16),
        Rec { left: String, right: Option<Box<Kind>> },
    }
    crate::wire_enum!(Kind { Empty, One(n), Pair(a, b), Rec { left, right } });

    #[derive(Debug, Clone, PartialEq)]
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
    crate::wire_struct!(Everything {
        b, i, u, small, neg, f, c, s, opt_none, opt_some, tup, seq, map, kinds, unit, big_u, big_i
    });

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
        let bytes = to_bytes(&f64::NAN);
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
        roundtrip(&VecDeque::from(vec![1u8, 2, 3]));
    }

    #[test]
    fn nested_options_distinguish_none_levels() {
        roundtrip(&Option::<Option<u8>>::None);
        roundtrip(&Some(Option::<u8>::None));
    }

    #[test]
    fn newtype_struct_is_transparent() {
        #[derive(Debug, PartialEq)]
        struct Rank(u32);
        crate::wire_struct!(Rank(_));
        let bytes = to_bytes(&Rank(9));
        assert_eq!(bytes, to_bytes(&9u32));
        roundtrip(&Rank(9));
    }

    #[test]
    fn unknown_struct_fields_are_skipped() {
        // Simulates restarting a context file written by a newer build that
        // added a field: the old reader must skip it cleanly.
        struct V2 {
            rank: u32,
            extra: Vec<String>,
            hostname: String,
        }
        crate::wire_struct!(V2 { rank, extra, hostname });
        #[derive(Debug, PartialEq)]
        struct V1 {
            rank: u32,
            hostname: String,
        }
        crate::wire_struct!(V1 { rank, hostname });
        let bytes = to_bytes(&V2 {
            rank: 3,
            extra: vec!["a".into(), "b".into()],
            hostname: "n0".into(),
        });
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
        struct Small {
            rank: u32,
        }
        crate::wire_struct!(Small { rank });
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Big {
            rank: u32,
            hostname: String,
        }
        crate::wire_struct!(Big { rank, hostname });
        let bytes = to_bytes(&Small { rank: 1 });
        assert!(matches!(
            from_bytes::<Big>(&bytes),
            Err(Error::MissingField { field: "hostname" })
        ));
    }

    /// A flattened struct writes the bytes of the same fields listed flat,
    /// needs every listed name back, and leaves an unlisted field default.
    #[test]
    fn flattened_fields_are_fields_of_the_parent() {
        #[derive(Debug, Default, PartialEq)]
        struct Log {
            entries: Vec<u32>,
            bytes: u64,
            marks: Vec<u64>,
        }
        #[derive(Debug, PartialEq)]
        struct Nesting {
            id: u8,
            log: Log,
            tail: bool,
        }
        crate::wire_struct!(Nesting { id, log: Log { entries as log, bytes as log_bytes }, tail });
        struct Flat {
            id: u8,
            log: Vec<u32>,
            log_bytes: u64,
            tail: bool,
        }
        crate::wire_struct!(Flat { id, log, log_bytes, tail });
        let log = Log { entries: vec![4, 5], bytes: 8, marks: vec![1] };
        let value = Nesting { id: 1, log, tail: true };
        let flat = Flat { id: 1, log: vec![4, 5], log_bytes: 8, tail: true };
        assert_eq!(to_bytes(&value), to_bytes(&flat));
        let back: Nesting = from_bytes(&to_bytes(&value)).unwrap();
        assert_eq!(back.log, Log { marks: vec![], ..value.log });
        crate::wire_struct!(Short { id, log, tail });
        struct Short {
            id: u8,
            log: Vec<u32>,
            tail: bool,
        }
        let short = Short { id: 1, log: vec![], tail: false };
        assert!(matches!(
            from_bytes::<Nesting>(&to_bytes(&short)),
            Err(Error::MissingField { field: "log_bytes" })
        ));
    }

    #[test]
    fn default_fields_fill_in() {
        struct Old {
            rank: u32,
        }
        crate::wire_struct!(Old { rank });
        #[derive(Debug, PartialEq)]
        struct New {
            rank: u32,
            retries: u32,
        }
        crate::wire_struct!(New { rank, #[default] retries });
        let bytes = to_bytes(&Old { rank: 1 });
        let new: New = from_bytes(&bytes).unwrap();
        assert_eq!(new, New { rank: 1, retries: 0 });
    }

    #[test]
    fn default_variant_fields_fill_in() {
        enum Old {
            Mark { from: u32 },
        }
        crate::wire_enum!(Old { Mark { from } });
        #[derive(Debug, PartialEq)]
        enum New {
            Mark { from: u32, epoch: u64 },
        }
        crate::wire_enum!(New { Mark { from, #[default] epoch } });
        let new: New = from_bytes(&to_bytes(&Old::Mark { from: 3 })).unwrap();
        assert_eq!(new, New::Mark { from: 3, epoch: 0 });
        let back: New = from_bytes(&to_bytes(&New::Mark { from: 3, epoch: 7 })).unwrap();
        assert_eq!(back, New::Mark { from: 3, epoch: 7 });
    }

    #[test]
    fn duplicate_field_is_an_error() {
        let mut bytes = Vec::new();
        put_header(&mut bytes, tag::STRUCT, 2);
        field(&mut bytes, "rank", &1u32);
        field(&mut bytes, "rank", &2u32);
        struct One {
            rank: u32,
        }
        crate::wire_struct!(One { rank });
        assert!(matches!(
            from_bytes::<One>(&bytes),
            Err(Error::DuplicateField { field: "rank" })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u32);
        bytes.push(0x00);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(Error::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&everything());
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
        varint::write_u64(&mut bytes, u64::MAX / 2);
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(Error::LengthOverrun { offset: 1, .. })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            from_bytes::<u32>(&[0x7F]),
            Err(Error::BadTag { tag: 0x7F, offset: 0 })
        ));
    }

    #[test]
    fn error_offsets_count_from_the_start_of_the_input() {
        // A valid `(u32, u32)` prefix, then a bad tag at byte 4.
        let bytes = [tag::SEQ, 2, tag::UINT, 1, 0x7F];
        assert!(matches!(
            from_bytes::<(u32, u32)>(&bytes),
            Err(Error::BadTag { tag: 0x7F, offset: 4 })
        ));
        assert!(matches!(
            from_bytes::<(u32, u32)>(&bytes[..4]),
            Err(Error::UnexpectedEof { offset: 4 })
        ));
    }

    #[test]
    fn wrong_shape_is_type_error_not_panic() {
        let bytes = to_bytes(&String::from("a string"));
        assert!(matches!(
            from_bytes::<Vec<u32>>(&bytes),
            Err(Error::WrongTag { found: tag::STR, .. })
        ));
        let bytes = to_bytes(&vec![1u8, 2]);
        assert!(from_bytes::<String>(&bytes).is_err());
        assert!(matches!(
            from_bytes::<u8>(&to_bytes(&256u32)),
            Err(Error::IntOutOfRange { ty: "u8", .. })
        ));
        assert!(matches!(
            from_bytes::<(u8, u8)>(&to_bytes(&(1u8, 2u8, 3u8))),
            Err(Error::LengthMismatch { expected: 2, found: 3 })
        ));
        assert!(matches!(
            from_bytes::<Kind>(&to_bytes(&String::from("Empty"))),
            Err(Error::WrongTag { .. })
        ));
    }

    #[test]
    fn unknown_variant_is_an_error() {
        let mut bytes = Vec::new();
        variant_header(&mut bytes, tag::UNIT_VARIANT, "Gone");
        assert!(matches!(
            from_bytes::<Kind>(&bytes),
            Err(Error::UnknownVariant { name }) if name == "Gone"
        ));
    }

    #[test]
    fn unit_variant_ignores_an_unexpected_payload() {
        // `Empty` written by a build where it carried a value.
        let mut bytes = Vec::new();
        variant_header(&mut bytes, tag::STRUCT_VARIANT, "Empty");
        varint::write_u64(&mut bytes, 1);
        field(&mut bytes, "why", &everything());
        assert_eq!(from_bytes::<Kind>(&bytes).unwrap(), Kind::Empty);
    }

    #[test]
    fn skip_steps_over_every_shape() {
        struct Wrapper {
            before: u8,
            skipme: Everything,
            variants: Vec<Kind>,
            after: u8,
        }
        crate::wire_struct!(Wrapper { before, skipme, variants, after });
        #[derive(Debug, PartialEq)]
        struct Sparse {
            before: u8,
            after: u8,
        }
        crate::wire_struct!(Sparse { before, after });
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
        });
        let sparse: Sparse = from_bytes(&bytes).unwrap();
        assert_eq!(sparse, Sparse { before: 1, after: 2 });
    }

    #[test]
    fn large_byte_vectors_roundtrip() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        roundtrip(&blob);
    }

    #[test]
    fn shared_bytes_write_and_read_what_a_byte_vector_does() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let shared = bytes::Bytes::from(blob.clone()).slice(3..);
        assert_eq!(to_bytes(&shared), to_bytes(&blob[3..].to_vec()));
        assert_eq!(roundtrip(&shared), shared);
        // The per-byte `SEQ` builds before the run wrote.
        let mut old = vec![tag::SEQ];
        varint::write_u64(&mut old, 2);
        for b in [7u8, 9] {
            b.encode_into(&mut old);
        }
        assert_eq!(from_bytes::<bytes::Bytes>(&old).unwrap(), &[7u8, 9][..]);
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
        varint::write_u64(&mut bytes, 0xD800); // surrogate
        assert!(matches!(
            from_bytes::<char>(&bytes),
            Err(Error::InvalidChar { value: 0xD800 })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = vec![tag::STR];
        varint::write_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(Error::InvalidUtf8 { offset: 2 })
        ));
    }

    /// A struct with a known field `a` and an unknown field `x` whose
    /// value is `depth` nested `SOME` tags around a `UNIT`.
    fn deep_unknown_field(depth: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(depth + 16);
        put_header(&mut bytes, tag::STRUCT, 2);
        field(&mut bytes, "a", &7u32);
        put_str(&mut bytes, "x");
        bytes.resize(bytes.len() + depth, tag::SOME);
        bytes.push(tag::UNIT);
        bytes
    }

    #[derive(Debug, PartialEq)]
    struct OnlyA {
        a: u32,
    }
    crate::wire_struct!(OnlyA { a });

    #[test]
    fn deeply_nested_unknown_field_is_skipped_without_recursion() {
        for depth in [1_000, 100_000, 1_000_000] {
            let bytes = deep_unknown_field(depth);
            assert_eq!(from_bytes::<OnlyA>(&bytes).unwrap(), OnlyA { a: 7 }, "depth {depth}");
            // Cut short anywhere inside the nesting, it is an error.
            assert!(matches!(
                from_bytes::<OnlyA>(&bytes[..bytes.len() - 1]),
                Err(Error::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn skip_holds_open_containers_on_the_heap() {
        // `SEQ 2 (SEQ 2 (… UNIT …) UNIT) UNIT`: every level stays open
        // while the one inside it is skipped. Each owes at least one byte,
        // so the skip stack is bounded by the input, not the call stack.
        let depth = 200_000;
        let mut bytes = Vec::new();
        put_header(&mut bytes, tag::STRUCT, 2);
        field(&mut bytes, "a", &7u32);
        put_str(&mut bytes, "x");
        for _ in 0..depth {
            bytes.extend_from_slice(&[tag::SEQ, 2]);
        }
        bytes.resize(bytes.len() + depth + 1, tag::UNIT);
        assert_eq!(from_bytes::<OnlyA>(&bytes).unwrap(), OnlyA { a: 7 });
        assert!(from_bytes::<OnlyA>(&bytes[..bytes.len() - 1]).is_err());
    }

    /// Bytes the tagged format wrote before `Wire` replaced the generic
    /// (de)serializer, for each variant shape and a newtype struct.
    #[test]
    fn variant_shapes_keep_their_parent_encoding() {
        let cases: [(Kind, &[u8]); 4] = [
            (Kind::Empty, &[0x11, 0x05, 0x45, 0x6D, 0x70, 0x74, 0x79]),
            (Kind::One(42), &[0x12, 0x03, 0x4F, 0x6E, 0x65, 0x04, 0x2A]),
            (
                Kind::Pair(-1, 1),
                &[0x13, 0x04, 0x50, 0x61, 0x69, 0x72, 0x02, 0x03, 0x01, 0x03, 0x02],
            ),
            (
                Kind::Rec {
                    left: "l".into(),
                    right: Some(Box::new(Kind::Empty)),
                },
                &[
                    0x14, 0x03, 0x52, 0x65, 0x63, 0x02, 0x04, 0x6C, 0x65, 0x66, 0x74, 0x0A,
                    0x01, 0x6C, 0x05, 0x72, 0x69, 0x67, 0x68, 0x74, 0x0D, 0x11, 0x05, 0x45,
                    0x6D, 0x70, 0x74, 0x79,
                ],
            ),
        ];
        for (value, parent) in cases {
            assert_eq!(to_bytes(&value), parent, "{value:?}");
            assert_eq!(from_bytes::<Kind>(parent).unwrap(), value);
        }
    }
}
