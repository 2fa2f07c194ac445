//! Offline shim for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors a minimal, API-compatible reimplementation of the
//! subset of `bytes` that strato uses: [`BytesMut`] as a growable write
//! buffer, [`Bytes`] as a cheaply cloneable immutable view, and the
//! [`Buf`]/[`BufMut`] reader/writer traits. Semantics match the real crate
//! for this subset; `Bytes::clone` and `Bytes::slice` are O(1) and share the
//! underlying allocation via `Arc`.

#![forbid(unsafe_code)]

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view of `self`; O(1), shares the allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// A growable, owned byte buffer for building wire messages.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Clears the buffer, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Splits off all written bytes into a new `BytesMut`, leaving `self`
    /// empty (the shim keeps `self`'s allocation instead of splitting it).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            data: std::mem::take(&mut self.data),
        }
    }

    /// Converts the written bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.data.len())
    }
}

/// Read access to a buffer of bytes, consuming from the front.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Consumes `cnt` bytes from the front.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }

    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        i64::from_le_bytes(raw)
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        f64::from_le_bytes(raw)
    }

    /// Copies `dst.len()` bytes into `dst` and consumes them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consumes the next `len` bytes, returning them as [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let mut raw = vec![0u8; len];
        self.copy_to_slice(&mut raw);
        Bytes::from(raw)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of slice");
        *self = &self[cnt..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends a raw byte slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_i64_le(-5);
        buf.put_f64_le(2.5);
        buf.put_slice(b"xy");
        let mut b = buf.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 8 + 2);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(b.get_i64_le(), -5);
        assert_eq!(b.get_f64_le(), 2.5);
        let mut tail = [0u8; 2];
        b.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xy");
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slice_and_clone_share_views() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"hello world");
        let b = buf.freeze();
        assert_eq!(b.slice(..5).as_ref(), b"hello");
        assert_eq!(b.slice(6..).as_ref(), b"world");
        assert_eq!(b.clone(), b);
    }

    #[test]
    fn slices_read_as_buf() {
        let mut s: &[u8] = &[7, 1, 0, 0, 0, 9];
        assert_eq!(s.remaining(), 6);
        assert_eq!(s.get_u8(), 7);
        assert_eq!(s.get_u32_le(), 1);
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.get_u8(), 9);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn split_empties_the_source() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"abc");
        let head = buf.split();
        assert_eq!(head.as_ref(), b"abc");
        assert!(buf.is_empty());
    }
}
