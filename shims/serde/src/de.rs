//! Deserialization half of the serde data model.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

/// Error produced by a [`Deserializer`].
///
/// The helper constructors (`missing_field`, `unknown_variant`, …) take
/// plain strings rather than real serde's `Unexpected`/`Expected` types;
/// nothing in this workspace constructs those.
pub trait Error: Sized + std::error::Error {
    /// Build an error from an arbitrary display-able message.
    fn custom<T: fmt::Display>(msg: T) -> Self;

    /// A value of the wrong type was encountered.
    fn invalid_type(unexpected: &str, expected: &str) -> Self {
        Self::custom(format_args!(
            "invalid type: {unexpected}, expected {expected}"
        ))
    }

    /// A value of the right type but wrong content was encountered.
    fn invalid_value(unexpected: &str, expected: &str) -> Self {
        Self::custom(format_args!(
            "invalid value: {unexpected}, expected {expected}"
        ))
    }

    /// A sequence or tuple ended early.
    fn invalid_length(len: usize, expected: &str) -> Self {
        Self::custom(format_args!("invalid length {len}, expected {expected}"))
    }

    /// An enum variant name that is not part of the expected set.
    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "unknown variant `{variant}`, expected one of {expected:?}"
        ))
    }

    /// A struct field name that is not part of the expected set.
    fn unknown_field(field: &str, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "unknown field `{field}`, expected one of {expected:?}"
        ))
    }

    /// A required struct field was absent.
    fn missing_field(field: &'static str) -> Self {
        Self::custom(format_args!("missing field `{field}`"))
    }

    /// A struct field appeared twice.
    fn duplicate_field(field: &'static str) -> Self {
        Self::custom(format_args!("duplicate field `{field}`"))
    }
}

/// A value that can be deserialized from any serde data format.
pub trait Deserialize<'de>: Sized {
    /// Deserialize a value from `deserializer`.
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: Deserializer<'de>;
}

/// A value deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Stateful deserialization entry point; `PhantomData<T>` is the stateless
/// seed standing in for `T: Deserialize`.
pub trait DeserializeSeed<'de>: Sized {
    /// The produced value.
    type Value;
    /// Deserialize using this seed.
    fn deserialize<D>(self, deserializer: D) -> Result<Self::Value, D::Error>
    where
        D: Deserializer<'de>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    fn deserialize<D>(self, deserializer: D) -> Result<T, D::Error>
    where
        D: Deserializer<'de>,
    {
        T::deserialize(deserializer)
    }
}

/// A serde data format's deserialization driver.
pub trait Deserializer<'de>: Sized {
    /// Error type for this format.
    type Error: Error;

    /// Deserialize whatever the input contains next.
    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a `bool`.
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an `i8`.
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an `i16`.
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an `i32`.
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an `i64`.
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an `i128`.
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a `u8`.
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a `u16`.
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a `u32`.
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a `u64`.
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a `u128`.
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an `f32`.
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an `f64`.
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a `char`.
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a string slice.
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an owned string.
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect borrowed bytes.
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect owned bytes.
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect an optional value.
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect `()`.
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a unit struct.
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Expect a newtype struct.
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Expect a variable-length sequence.
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a fixed-length tuple.
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Expect a tuple struct.
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Expect a map.
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Expect a struct with the given fields.
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Expect an enum with the given variants.
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Expect a struct-field or enum-variant identifier.
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Skip over whatever the input contains next.
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// Whether the format is human readable. Binary formats return false.
    fn is_human_readable(&self) -> bool {
        true
    }
}

/// Renders "invalid type: {got}, expected {visitor.expecting()}" for the
/// default [`Visitor`] methods.
fn type_mismatch<'de, V: Visitor<'de>>(visitor: &V, got: &str) -> String {
    struct Expecting<'a, 'de, V: Visitor<'de>>(&'a V, PhantomData<fn() -> &'de ()>);
    impl<'a, 'de, V: Visitor<'de>> fmt::Display for Expecting<'a, 'de, V> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.expecting(f)
        }
    }
    format!(
        "invalid type: {got}, expected {}",
        Expecting(visitor, PhantomData)
    )
}

/// Receives values from a [`Deserializer`]. Every method defaults to a
/// type-mismatch error (or widening, for the narrow integer visits).
pub trait Visitor<'de>: Sized {
    /// The produced value.
    type Value;

    /// Describe what this visitor expects, for error messages.
    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// Receive a `bool`.
    fn visit_bool<E: Error>(self, v: bool) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "a boolean")))
    }

    /// Receive an `i8` (widens to [`Visitor::visit_i64`]).
    fn visit_i8<E: Error>(self, v: i8) -> Result<Self::Value, E> {
        self.visit_i64(v as i64)
    }

    /// Receive an `i16` (widens to [`Visitor::visit_i64`]).
    fn visit_i16<E: Error>(self, v: i16) -> Result<Self::Value, E> {
        self.visit_i64(v as i64)
    }

    /// Receive an `i32` (widens to [`Visitor::visit_i64`]).
    fn visit_i32<E: Error>(self, v: i32) -> Result<Self::Value, E> {
        self.visit_i64(v as i64)
    }

    /// Receive an `i64`.
    fn visit_i64<E: Error>(self, v: i64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "an integer")))
    }

    /// Receive an `i128`.
    fn visit_i128<E: Error>(self, v: i128) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "a 128-bit integer")))
    }

    /// Receive a `u8` (widens to [`Visitor::visit_u64`]).
    fn visit_u8<E: Error>(self, v: u8) -> Result<Self::Value, E> {
        self.visit_u64(v as u64)
    }

    /// Receive a `u16` (widens to [`Visitor::visit_u64`]).
    fn visit_u16<E: Error>(self, v: u16) -> Result<Self::Value, E> {
        self.visit_u64(v as u64)
    }

    /// Receive a `u32` (widens to [`Visitor::visit_u64`]).
    fn visit_u32<E: Error>(self, v: u32) -> Result<Self::Value, E> {
        self.visit_u64(v as u64)
    }

    /// Receive a `u64`.
    fn visit_u64<E: Error>(self, v: u64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "an unsigned integer")))
    }

    /// Receive a `u128`.
    fn visit_u128<E: Error>(self, v: u128) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "a 128-bit unsigned integer")))
    }

    /// Receive an `f32` (widens to [`Visitor::visit_f64`]).
    fn visit_f32<E: Error>(self, v: f32) -> Result<Self::Value, E> {
        self.visit_f64(v as f64)
    }

    /// Receive an `f64`.
    fn visit_f64<E: Error>(self, v: f64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "a float")))
    }

    /// Receive a `char` (defaults to a one-character string visit).
    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        let mut buf = [0u8; 4];
        self.visit_str(v.encode_utf8(&mut buf))
    }

    /// Receive a transient string slice.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "a string")))
    }

    /// Receive a string slice borrowed from the input.
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }

    /// Receive an owned string.
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }

    /// Receive transient bytes.
    fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(type_mismatch(&self, "bytes")))
    }

    /// Receive bytes borrowed from the input.
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }

    /// Receive an owned byte buffer.
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }

    /// Receive an absent optional.
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::custom(type_mismatch(&self, "an optional")))
    }

    /// Receive a present optional.
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = &deserializer;
        Err(D::Error::custom(type_mismatch(&self, "an optional")))
    }

    /// Receive `()`.
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::custom(type_mismatch(&self, "a unit")))
    }

    /// Receive a newtype struct's inner value.
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = &deserializer;
        Err(D::Error::custom(type_mismatch(&self, "a newtype struct")))
    }

    /// Receive a sequence.
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = &seq;
        Err(A::Error::custom(type_mismatch(&self, "a sequence")))
    }

    /// Receive a map.
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = &map;
        Err(A::Error::custom(type_mismatch(&self, "a map")))
    }

    /// Receive an enum.
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = &data;
        Err(A::Error::custom(type_mismatch(&self, "an enum")))
    }
}

/// Access to the elements of a sequence.
pub trait SeqAccess<'de> {
    /// Error type of the owning deserializer.
    type Error: Error;

    /// Deserialize the next element with an explicit seed.
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    /// Deserialize the next element.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    /// Number of remaining elements, when known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to the entries of a map or the fields of a struct.
pub trait MapAccess<'de> {
    /// Error type of the owning deserializer.
    type Error: Error;

    /// Deserialize the next key with an explicit seed.
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    /// Deserialize the value following a key, with an explicit seed.
    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V)
        -> Result<V::Value, Self::Error>;

    /// Deserialize the next key.
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    /// Deserialize the value following a key.
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    /// Deserialize the next key/value entry.
    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        match self.next_key()? {
            Some(key) => Ok(Some((key, self.next_value()?))),
            None => Ok(None),
        }
    }

    /// Number of remaining entries, when known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to the variant tag of an enum.
pub trait EnumAccess<'de>: Sized {
    /// Error type of the owning deserializer.
    type Error: Error;
    /// Accessor for the variant's contents.
    type Variant: VariantAccess<'de, Error = Self::Error>;

    /// Deserialize the variant identifier with an explicit seed.
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    /// Deserialize the variant identifier.
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// Access to the contents of one enum variant.
pub trait VariantAccess<'de>: Sized {
    /// Error type of the owning deserializer.
    type Error: Error;

    /// The variant is unit-shaped.
    fn unit_variant(self) -> Result<(), Self::Error>;

    /// The variant wraps one value; deserialize it with an explicit seed.
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;

    /// The variant wraps one value.
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }

    /// The variant is tuple-shaped.
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V)
        -> Result<V::Value, Self::Error>;

    /// The variant is struct-shaped.
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// Efficiently discards one value of any shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IgnoredAny;

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct IgnoredVisitor;
        impl<'de> Visitor<'de> for IgnoredVisitor {
            type Value = IgnoredAny;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("anything at all")
            }
            fn visit_bool<E: Error>(self, _: bool) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_i64<E: Error>(self, _: i64) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_i128<E: Error>(self, _: i128) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_u64<E: Error>(self, _: u64) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_u128<E: Error>(self, _: u128) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_f64<E: Error>(self, _: f64) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_char<E: Error>(self, _: char) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_str<E: Error>(self, _: &str) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_bytes<E: Error>(self, _: &[u8]) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_none<E: Error>(self) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_unit<E: Error>(self) -> Result<IgnoredAny, E> {
                Ok(IgnoredAny)
            }
            fn visit_some<D2: Deserializer<'de>>(self, d: D2) -> Result<IgnoredAny, D2::Error> {
                IgnoredAny::deserialize(d)
            }
            fn visit_newtype_struct<D2: Deserializer<'de>>(
                self,
                d: D2,
            ) -> Result<IgnoredAny, D2::Error> {
                IgnoredAny::deserialize(d)
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<IgnoredAny, A::Error> {
                while let Some(IgnoredAny) = seq.next_element()? {}
                Ok(IgnoredAny)
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<IgnoredAny, A::Error> {
                while let Some((IgnoredAny, IgnoredAny)) = map.next_entry()? {}
                Ok(IgnoredAny)
            }
            fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<IgnoredAny, A::Error> {
                let (IgnoredAny, variant) = data.variant::<IgnoredAny>()?;
                variant.newtype_variant::<IgnoredAny>()?;
                Ok(IgnoredAny)
            }
        }
        deserializer.deserialize_ignored_any(IgnoredVisitor)
    }
}

/// Conversion into a [`Deserializer`], used to reinterpret already-decoded
/// keys (e.g. struct field names) as inputs for identifier seeds.
pub trait IntoDeserializer<'de, E: Error = value::Error> {
    /// The resulting deserializer.
    type Deserializer: Deserializer<'de, Error = E>;
    /// Perform the conversion.
    fn into_deserializer(self) -> Self::Deserializer;
}

impl<'de, E: Error> IntoDeserializer<'de, E> for &'de str {
    type Deserializer = value::StrDeserializer<'de, E>;
    fn into_deserializer(self) -> value::StrDeserializer<'de, E> {
        value::StrDeserializer::new(self)
    }
}

pub mod value {
    //! Deserializers over already-decoded values.

    use super::*;

    /// String-backed error type; the default for [`IntoDeserializer`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        msg: String,
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.msg)
        }
    }

    impl std::error::Error for Error {}

    impl super::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error {
                msg: msg.to_string(),
            }
        }
    }

    impl crate::ser::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error {
                msg: msg.to_string(),
            }
        }
    }

    /// Forwards every `deserialize_*` method to `deserialize_any`; each
    /// value deserializer below has exactly one natural visit.
    macro_rules! forward_all_to_any {
        () => {
            fn deserialize_bool<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_i128<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_u128<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_char<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_string<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_bytes<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_byte_buf<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_unit<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_unit_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_newtype_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_tuple<V: Visitor<'de>>(
                self,
                _len: usize,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_tuple_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                _len: usize,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                _fields: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_enum<V: Visitor<'de>>(
                self,
                _name: &'static str,
                _variants: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_identifier<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
            fn deserialize_ignored_any<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Self::Error> {
                self.deserialize_any(visitor)
            }
        };
    }

    /// Deserializer over an already-decoded string slice.
    #[derive(Debug, Clone, Copy)]
    pub struct StrDeserializer<'de, E> {
        value: &'de str,
        marker: PhantomData<E>,
    }

    impl<'de, E> StrDeserializer<'de, E> {
        /// Wrap `value`.
        pub fn new(value: &'de str) -> Self {
            StrDeserializer {
                value,
                marker: PhantomData,
            }
        }
    }

    impl<'de, E: super::Error> Deserializer<'de> for StrDeserializer<'de, E> {
        type Error = E;
        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_borrowed_str(self.value)
        }
        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_some(self)
        }
        forward_all_to_any!();
    }

    /// Deserializer producing `()`.
    #[derive(Debug, Clone, Copy)]
    pub struct UnitDeserializer<E> {
        marker: PhantomData<E>,
    }

    impl<E> UnitDeserializer<E> {
        /// Create the unit deserializer.
        pub fn new() -> Self {
            UnitDeserializer {
                marker: PhantomData,
            }
        }
    }

    impl<E> Default for UnitDeserializer<E> {
        fn default() -> Self {
            UnitDeserializer::new()
        }
    }

    impl<'de, E: super::Error> Deserializer<'de> for UnitDeserializer<E> {
        type Error = E;
        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_unit()
        }
        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_none()
        }
        forward_all_to_any!();
    }

    /// Adapts a [`SeqAccess`] into a full deserializer.
    #[derive(Debug)]
    pub struct SeqAccessDeserializer<A> {
        seq: A,
    }

    impl<A> SeqAccessDeserializer<A> {
        /// Wrap `seq`.
        pub fn new(seq: A) -> Self {
            SeqAccessDeserializer { seq }
        }
    }

    impl<'de, A: SeqAccess<'de>> Deserializer<'de> for SeqAccessDeserializer<A> {
        type Error = A::Error;
        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
            visitor.visit_seq(self.seq)
        }
        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
            visitor.visit_some(self)
        }
        forward_all_to_any!();
    }

    /// Adapts a [`MapAccess`] into a full deserializer.
    #[derive(Debug)]
    pub struct MapAccessDeserializer<A> {
        map: A,
    }

    impl<A> MapAccessDeserializer<A> {
        /// Wrap `map`.
        pub fn new(map: A) -> Self {
            MapAccessDeserializer { map }
        }
    }

    impl<'de, A: MapAccess<'de>> Deserializer<'de> for MapAccessDeserializer<A> {
        type Error = A::Error;
        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
            visitor.visit_map(self.map)
        }
        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
            visitor.visit_some(self)
        }
        forward_all_to_any!();
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

macro_rules! integer_deserialize {
    ($($t:ty => $method:ident,)*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct IntVisitor;
                impl<'de> Visitor<'de> for IntVisitor {
                    type Value = $t;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(concat!("an integer fitting in ", stringify!($t)))
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$t, E> {
                        <$t>::try_from(v).map_err(|_| {
                            E::custom(format_args!(
                                "integer {v} out of range for {}",
                                stringify!($t)
                            ))
                        })
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$t, E> {
                        <$t>::try_from(v).map_err(|_| {
                            E::custom(format_args!(
                                "integer {v} out of range for {}",
                                stringify!($t)
                            ))
                        })
                    }
                    fn visit_i128<E: Error>(self, v: i128) -> Result<$t, E> {
                        <$t>::try_from(v).map_err(|_| {
                            E::custom(format_args!(
                                "integer {v} out of range for {}",
                                stringify!($t)
                            ))
                        })
                    }
                    fn visit_u128<E: Error>(self, v: u128) -> Result<$t, E> {
                        <$t>::try_from(v).map_err(|_| {
                            E::custom(format_args!(
                                "integer {v} out of range for {}",
                                stringify!($t)
                            ))
                        })
                    }
                }
                deserializer.$method(IntVisitor)
            }
        }
    )*};
}

integer_deserialize! {
    i8 => deserialize_i8,
    i16 => deserialize_i16,
    i32 => deserialize_i32,
    i64 => deserialize_i64,
    i128 => deserialize_i128,
    isize => deserialize_i64,
    u8 => deserialize_u8,
    u16 => deserialize_u16,
    u32 => deserialize_u32,
    u64 => deserialize_u64,
    u128 => deserialize_u128,
    usize => deserialize_u64,
}

macro_rules! float_deserialize {
    ($($t:ty => $method:ident,)*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct FloatVisitor;
                impl<'de> Visitor<'de> for FloatVisitor {
                    type Value = $t;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(concat!("a ", stringify!($t)))
                    }
                    fn visit_f64<E: Error>(self, v: f64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                }
                deserializer.$method(FloatVisitor)
            }
        }
    )*};
}

float_deserialize! {
    f32 => deserialize_f32,
    f64 => deserialize_f64,
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BoolVisitor;
        impl<'de> Visitor<'de> for BoolVisitor {
            type Value = bool;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_bool(BoolVisitor)
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct CharVisitor;
        impl<'de> Visitor<'de> for CharVisitor {
            type Value = char;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a character")
            }
            fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
                let mut chars = v.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(E::invalid_value("a multi-character string", "one character")),
                }
            }
        }
        deserializer.deserialize_char(CharVisitor)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StringVisitor;
        impl<'de> Visitor<'de> for StringVisitor {
            type Value = String;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_string(StringVisitor)
    }
}

impl<'de> Deserialize<'de> for std::path::PathBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(std::path::PathBuf::from)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct UnitVisitor;
        impl<'de> Visitor<'de> for UnitVisitor {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a unit")
            }
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("an optional value")
            }
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_some<D2: Deserializer<'de>>(self, d: D2) -> Result<Option<T>, D2::Error> {
                T::deserialize(d).map(Some)
            }
        }
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

/// Like serde's `rc` feature (the `Serialize` half is in `ser`): a fresh,
/// unshared `Arc` around the decoded value.
impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(std::sync::Arc::new)
    }
}

macro_rules! seq_deserialize {
    ($ty:ident <T $(: $bound:ident $(+ $bound2:ident)*)?>, $with:expr, $insert:expr) => {
        impl<'de, T: Deserialize<'de> $(+ $bound $(+ $bound2)*)?> Deserialize<'de> for $ty<T> {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct SeqVisitor<T>(PhantomData<T>);
                impl<'de, T: Deserialize<'de> $(+ $bound $(+ $bound2)*)?> Visitor<'de> for SeqVisitor<T> {
                    type Value = $ty<T>;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a sequence")
                    }
                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<$ty<T>, A::Error> {
                        #[allow(clippy::redundant_closure_call)]
                        let mut out = ($with)(seq.size_hint().unwrap_or(0).min(4096));
                        while let Some(element) = seq.next_element()? {
                            #[allow(clippy::redundant_closure_call)]
                            ($insert)(&mut out, element);
                        }
                        Ok(out)
                    }
                }
                deserializer.deserialize_seq(SeqVisitor(PhantomData))
            }
        }
    };
}

seq_deserialize!(Vec<T>, |cap| Vec::with_capacity(cap), |v: &mut Vec<T>, e| v.push(e));
seq_deserialize!(
    VecDeque<T>,
    |cap| VecDeque::with_capacity(cap),
    |v: &mut VecDeque<T>, e| v.push_back(e)
);
seq_deserialize!(
    BTreeSet<T: Ord>,
    |_cap| BTreeSet::new(),
    |v: &mut BTreeSet<T>, e| {
        v.insert(e);
    }
);
seq_deserialize!(
    HashSet<T: Eq + Hash>,
    |cap| HashSet::with_capacity(cap),
    |v: &mut HashSet<T>, e| {
        v.insert(e);
    }
);

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor<K, V>(PhantomData<(K, V)>);
        impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de> for MapVisitor<K, V> {
            type Value = BTreeMap<K, V>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = BTreeMap::new();
                while let Some((key, value)) = map.next_entry()? {
                    out.insert(key, value);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    S: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor<K, V, S>(PhantomData<(K, V, S)>);
        impl<'de, K, V, S> Visitor<'de> for MapVisitor<K, V, S>
        where
            K: Deserialize<'de> + Eq + Hash,
            V: Deserialize<'de>,
            S: BuildHasher + Default,
        {
            type Value = HashMap<K, V, S>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = HashMap::with_hasher(S::default());
                while let Some((key, value)) = map.next_entry()? {
                    out.insert(key, value);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

macro_rules! tuple_deserialize {
    ($len:expr => $($name:ident)+) => {
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($name),+>(PhantomData<($($name,)+)>);
                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($name),+> {
                    type Value = ($($name,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(concat!("a tuple of length ", stringify!($len)))
                    }
                    fn visit_seq<Acc: SeqAccess<'de>>(
                        self,
                        mut seq: Acc,
                    ) -> Result<Self::Value, Acc::Error> {
                        let mut index = 0usize;
                        Ok(($(
                            {
                                let element: $name = match seq.next_element()? {
                                    Some(value) => value,
                                    None => {
                                        return Err(<Acc::Error as Error>::invalid_length(
                                            index,
                                            concat!("a tuple of length ", stringify!($len)),
                                        ))
                                    }
                                };
                                index += 1;
                                let _ = index;
                                element
                            },
                        )+))
                    }
                }
                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    };
}

tuple_deserialize!(1 => T0);
tuple_deserialize!(2 => T0 T1);
tuple_deserialize!(3 => T0 T1 T2);
tuple_deserialize!(4 => T0 T1 T2 T3);
tuple_deserialize!(5 => T0 T1 T2 T3 T4);
tuple_deserialize!(6 => T0 T1 T2 T3 T4 T5);
tuple_deserialize!(7 => T0 T1 T2 T3 T4 T5 T6);
tuple_deserialize!(8 => T0 T1 T2 T3 T4 T5 T6 T7);
