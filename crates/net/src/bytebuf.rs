//! In-repo replacement for the `bytes` crate: [`ByteBuf`] (immutable,
//! reference-counted frame) and [`ByteBufMut`] (growable encode buffer).
//!
//! The codec needs exactly two things from its byte container:
//!
//! 1. **Zero-copy slicing.** A decoded sub-frame ([`ByteBuf::split_to`],
//!    [`ByteBuf::slice`]) and a cloned message share the backing allocation —
//!    a reduce-scatter hop that forwards a segment must not copy it.
//! 2. **A frozen encode buffer.** [`ByteBufMut::freeze`] converts the encode
//!    buffer into an immutable frame without copying (the `Vec` moves into
//!    the shared allocation).
//!
//! Everything else (`get_*`/`put_*` little-endian accessors) is a thin layer
//! over `[u8]`. Consuming reads panic on underflow, mirroring the `bytes`
//! crate's `Buf` contract; [`crate::codec::Decoder`] length-checks before
//! every read so hostile frames surface as `NetError::Codec`, never a panic.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, cheaply-cloneable byte frame.
///
/// Internally an `Arc<Vec<u8>>` plus a `[start, end)` window: `clone`,
/// [`ByteBuf::slice`], [`ByteBuf::split_to`] and [`ByteBuf::advance`] are
/// O(1) and never copy the payload.
#[derive(Clone, Default)]
pub struct ByteBuf {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl ByteBuf {
    /// Creates an empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a frame from a static byte string (copies once into the
    /// shared allocation; used for small control payloads and tests).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Bytes visible through this frame's window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the window contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Alias for [`ByteBuf::len`], matching the `bytes::Buf` vocabulary the
    /// decoder uses.
    pub fn remaining(&self) -> usize {
        self.len()
    }

    /// Returns a sub-frame of `range` (relative to this frame) sharing the
    /// same backing allocation.
    ///
    /// # Panics
    /// If `range` is out of bounds or inverted.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(range.start <= range.end, "slice range inverted");
        assert!(range.end <= self.len(), "slice out of bounds");
        Self {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Splits off and returns the first `n` bytes; `self` keeps the rest.
    /// Both halves share the backing allocation.
    ///
    /// # Panics
    /// If `n > self.len()`.
    pub fn split_to(&mut self, n: usize) -> Self {
        assert!(n <= self.len(), "split_to out of bounds");
        let head = Self {
            data: self.data.clone(),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// Discards the first `n` bytes.
    ///
    /// # Panics
    /// If `n > self.len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }

    /// Copies the visible window into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Recovers the backing `Vec` if this frame is the sole owner of its
    /// allocation, otherwise returns `self` unchanged. The recovered `Vec`
    /// holds the *full* allocation (window offsets are discarded); callers
    /// that reuse it — [`crate::pool::FramePool`] — must clear it first.
    pub fn try_unwrap_vec(self) -> Result<Vec<u8>, Self> {
        let Self { data, start, end } = self;
        Arc::try_unwrap(data).map_err(|data| Self { data, start, end })
    }

    fn take_array<const N: usize>(&mut self, what: &str) -> [u8; N] {
        assert!(self.len() >= N, "{what}: buffer underflow");
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.start..self.start + N]);
        self.start += N;
        out
    }

    /// Consuming little-endian reads (panic on underflow, like `bytes::Buf`).
    pub fn get_u8(&mut self) -> u8 {
        self.take_array::<1>("get_u8")[0]
    }

    /// Consumes 4 bytes as a little-endian `u32`.
    pub fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array("get_u32_le"))
    }

    /// Consumes 8 bytes as a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array("get_u64_le"))
    }

    /// Consumes 8 bytes as a little-endian `i64`.
    pub fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take_array("get_i64_le"))
    }

    /// Consumes 8 bytes as a little-endian `f64`.
    pub fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_array("get_f64_le"))
    }
}

impl From<Vec<u8>> for ByteBuf {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for ByteBuf {
    fn from(v: &[u8]) -> Self {
        Self::from(v.to_vec())
    }
}

impl Deref for ByteBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for ByteBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for ByteBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for ByteBuf {}

impl PartialEq<[u8]> for ByteBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl std::fmt::Debug for ByteBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ByteBuf({:?})", self.as_ref())
    }
}

/// A growable encode buffer that freezes into a [`ByteBuf`] without copying.
#[derive(Debug, Default)]
pub struct ByteBufMut {
    buf: Vec<u8>,
}

impl ByteBufMut {
    /// An empty encode buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encode buffer pre-sized for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Wraps an existing `Vec` as the encode buffer; writes append after its
    /// current contents. Pool-recycled buffers arrive already cleared (see
    /// [`crate::pool::FramePool::acquire`]), so only capacity is inherited.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Spare capacity of the underlying allocation.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable frame; the accumulated `Vec` moves into
    /// the frame's shared allocation (no copy).
    pub fn freeze(self) -> ByteBuf {
        ByteBuf::from(self.buf)
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` in little-endian order.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` in little-endian order.
    pub fn put_i64_le(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `f64` in little-endian order.
    pub fn put_f64_le(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The bytes written so far, for writing or patching them in place.
    pub(crate) fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_roundtrips_contents() {
        let mut b = ByteBufMut::with_capacity(16);
        b.put_u8(7);
        b.put_u32_le(0xdead_beef);
        b.put_slice(b"xyz");
        assert_eq!(b.len(), 8);
        let mut f = b.freeze();
        assert_eq!(f.len(), 8);
        assert_eq!(f.get_u8(), 7);
        assert_eq!(f.get_u32_le(), 0xdead_beef);
        assert_eq!(&f[..], b"xyz");
    }

    #[test]
    fn clone_and_slice_share_storage_zero_copy() {
        let buf = ByteBuf::from(vec![0u8; 1024]);
        let clone = buf.clone();
        let slice = buf.slice(100..200);
        // All three views point into the same allocation.
        assert!(std::ptr::eq(buf.as_ref().as_ptr(), clone.as_ref().as_ptr()));
        assert_eq!(slice.as_ref().as_ptr() as usize, buf.as_ref().as_ptr() as usize + 100);
        assert_eq!(slice.len(), 100);
    }

    #[test]
    fn split_to_mirrors_bytes_semantics() {
        // bytes::Bytes::split_to(n): returns [0, n), keeps [n, len).
        let mut buf = ByteBuf::from((0u8..10).collect::<Vec<_>>());
        let head = buf.split_to(4);
        assert_eq!(&head[..], &[0, 1, 2, 3]);
        assert_eq!(&buf[..], &[4, 5, 6, 7, 8, 9]);
        // Splitting everything leaves an empty tail.
        let mut rest = buf;
        let all = rest.split_to(6);
        assert_eq!(all.len(), 6);
        assert!(rest.is_empty());
    }

    #[test]
    fn advance_mirrors_bytes_semantics() {
        let mut buf = ByteBuf::from((0u8..8).collect::<Vec<_>>());
        buf.advance(3);
        assert_eq!(&buf[..], &[3, 4, 5, 6, 7]);
        assert_eq!(buf.remaining(), 5);
        buf.advance(5);
        assert!(buf.is_empty());
    }

    #[test]
    fn slice_of_slice_stays_relative() {
        let buf = ByteBuf::from((0u8..100).collect::<Vec<_>>());
        let mid = buf.slice(10..90);
        let inner = mid.slice(5..10);
        assert_eq!(&inner[..], &[15, 16, 17, 18, 19]);
    }

    #[test]
    fn consuming_reads_advance_in_order() {
        let mut b = ByteBufMut::new();
        b.put_u64_le(u64::MAX);
        b.put_i64_le(-5);
        b.put_f64_le(2.5);
        let mut f = b.freeze();
        assert_eq!(f.get_u64_le(), u64::MAX);
        assert_eq!(f.get_i64_le(), -5);
        assert_eq!(f.get_f64_le(), 2.5);
        assert_eq!(f.remaining(), 0);
    }

    #[test]
    fn equality_is_by_contents_across_windows() {
        let a = ByteBuf::from(vec![9u8, 1, 2, 3]).slice(1..4);
        let b = ByteBuf::from(vec![1u8, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, [1u8, 2, 3][..]);
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        ByteBuf::from(vec![1u8, 2]).split_to(3);
    }

    #[test]
    #[should_panic(expected = "advance out of bounds")]
    fn advance_past_end_panics() {
        ByteBuf::from(vec![1u8, 2]).advance(3);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn read_past_end_panics() {
        ByteBuf::from(vec![1u8]).get_u32_le();
    }

    #[test]
    fn from_static_and_empty() {
        let s = ByteBuf::from_static(b"hello");
        assert_eq!(&s[..], b"hello");
        let e = ByteBuf::new();
        assert!(e.is_empty());
        assert_eq!(e.remaining(), 0);
    }
}
