//! Offline shim for `bytes`: cheaply cloneable immutable byte buffers.
//!
//! A `Bytes` is a range of a shared owner (an `Arc` of a `Vec<u8>` or of
//! any [`Bytes::from_owner`] value) or of a `&'static [u8]`. Cloning and
//! [`Bytes::slice`] are O(1) and share the owner, as in the real crate;
//! the owner drops with its last view. Like the real crate, `Bytes`
//! adopts a `Vec<u8>`'s allocation instead of copying it (`Arc<[u8]>`
//! cannot: the counts live in front of the bytes, so
//! `Arc::<[u8]>::from(vec)` allocates anew and `memcpy`s).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable immutable contiguous byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared {
        owner: Arc<dyn AsRef<[u8]> + Send + Sync>,
        start: usize,
        end: usize,
    },
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

    /// View the bytes of `owner` without copying them. `owner` is dropped
    /// when the last `Bytes` that views it (clones and slices included)
    /// is dropped. Its `as_ref` must return the same bytes every time.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes {
            repr: Repr::Shared {
                owner: Arc::new(owner),
                start: 0,
                end,
            },
        }
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// A view of `range` of this buffer that shares its owner (no copy).
    ///
    /// # Panics
    ///
    /// When the range starts after it ends or ends past `self.len()`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("out of range"),
            Bound::Unbounded => 0,
        };
        let stop = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("out of range"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= stop,
            "range start must not be greater than end: {begin:?} <= {stop:?}"
        );
        assert!(stop <= len, "range end out of bounds: {stop:?} <= {len:?}");
        let repr = match &self.repr {
            Repr::Static(s) => Repr::Static(&s[begin..stop]),
            Repr::Shared { owner, start, .. } => Repr::Shared {
                owner: Arc::clone(owner),
                start: start + begin,
                end: start + stop,
            },
        };
        Bytes { repr }
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
            Repr::Shared { owner, start, end } => {
                (**owner).as_ref().get(*start..*end).unwrap_or_default()
            }
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
        Bytes::from_owner(v)
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

impl<'a, T: ?Sized> PartialEq<&'a T> for Bytes
where
    Bytes: PartialEq<T>,
{
    fn eq(&self, other: &&'a T) -> bool {
        *self == **other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
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
    fn slice_of_a_slice_shares_the_owner() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let mid = b.slice(10..90);
        let inner = mid.slice(5..=9);
        assert_eq!(&inner[..], &[15, 16, 17, 18, 19]);
        assert_eq!(inner.as_ptr(), b[15..].as_ptr());
        assert_eq!(mid.slice(..).as_ptr(), mid.as_ptr());
        assert_eq!(mid.slice(80..).len(), 0);
        assert_eq!(b.slice(..3), &[0u8, 1, 2][..]);
    }

    #[test]
    fn slice_of_a_static() {
        let s = Bytes::from_static(b"hello world");
        let w = s.slice(6..);
        assert_eq!(&w[..], b"world");
        assert_eq!(w.slice(1..3), &b"or"[..]);
        assert_eq!(w.as_ptr(), s[6..].as_ptr());
    }

    #[test]
    #[should_panic(expected = "range end out of bounds")]
    fn slice_past_the_end_panics() {
        let b = Bytes::from(vec![1u8, 2, 3]).slice(1..);
        let _ = b.slice(..3);
    }

    #[test]
    #[should_panic(expected = "range start must not be greater than end")]
    fn inverted_slice_panics() {
        let (lo, hi) = (2, 1);
        let _ = Bytes::from_static(b"abc").slice(lo..hi);
    }

    #[test]
    fn owner_drops_with_the_last_view() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Owner(Vec<u8>, Arc<AtomicUsize>);
        impl AsRef<[u8]> for Owner {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Owner {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let b = Bytes::from_owner(Owner(b"owned".to_vec(), Arc::clone(&drops)));
        let clone = b.clone();
        let tail = b.slice(2..);
        drop(b);
        drop(clone);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(&tail[..], b"ned");
        drop(tail);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
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
