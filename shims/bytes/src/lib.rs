//! Offline shim for `bytes`: cheaply cloneable immutable byte buffers.
//!
//! `Bytes` is an `Arc<Vec<u8>>` (or a borrowed `&'static [u8]`), which
//! gives the same O(1) clone the real crate provides for whole-buffer
//! sharing and, like it, adopts a `Vec<u8>`'s allocation instead of
//! copying it (`Arc<[u8]>` cannot: the counts live in front of the bytes,
//! so `Arc::<[u8]>::from(vec)` allocates anew and `memcpy`s).
//! Sub-slicing (`slice`, `split_off`, …) is not implemented because the
//! workspace never sub-slices a `Bytes`.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable immutable contiguous byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes {
            repr: Repr::Static(&[]),
        }
    }

    /// Wrap a static byte slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
        }
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::new(data.to_vec())),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Take over `v`'s allocation without copying.
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for c in std::ascii::escape_default(b) {
                fmt::Write::write_char(f, c as char)?;
            }
        }
        if self.len() > 64 {
            write!(f, "… ({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer convertible into [`Bytes`] via [`BytesMut::freeze`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_clone_share() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn from_vec_and_freeze_adopt_the_allocation() {
        let v = vec![7u8; 4096];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at);

        let mut m = BytesMut::with_capacity(4096);
        m.extend_from_slice(&[9u8; 4096]);
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), at);
    }

    #[test]
    fn static_and_empty() {
        let s = Bytes::from_static(b"hello");
        assert_eq!(&s[..], b"hello");
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::new().len(), 0);
    }

    #[test]
    fn mut_freeze() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"ab");
        m.put_u8(b'c');
        assert_eq!(m.len(), 3);
        let b = m.freeze();
        assert_eq!(&b[..], b"abc");
    }
}
