//! The serialization boundary.
//!
//! Every value that crosses an executor boundary in this reproduction —
//! task results flowing to the driver, aggregators moving between executors
//! during tree aggregation, segments moving around the ring during
//! reduce-scatter — is encoded through this module into [`ByteBuf`] frames.
//!
//! Making the boundary explicit (instead of, say, sending `T` through a
//! channel) matters for fidelity: the Sparker paper's In-Memory Merge
//! optimization exists *because* Spark serializes every task result, and its
//! benefit is measured in serialized bytes avoided. The [`Encoder`] therefore
//! counts every byte it produces, and the engine layers a configurable
//! per-byte cost on top to model JVM-class serializers (see
//! `sparker_engine::cost`).
//!
//! The format is a simple little-endian, length-prefixed binary encoding with
//! bulk (memcpy) fast paths for the numeric slices that dominate ML
//! aggregators.

use crate::bytebuf::{ByteBuf, ByteBufMut};
use crate::pool::FramePool;

use crate::error::{NetError, NetResult};

/// Streaming encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: ByteBufMut,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self { buf: ByteBufMut::new() }
    }

    /// Creates an encoder with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: ByteBufMut::with_capacity(cap) }
    }

    /// Creates an encoder whose backing buffer is drawn from `pool`
    /// (allocation-free when the pool has a recycled buffer of the right
    /// class). The buffer arrives cleared, so the resulting frame is
    /// bit-identical to one from [`Encoder::with_capacity`].
    pub fn pooled(pool: &FramePool, cap: usize) -> Self {
        Self { buf: ByteBufMut::from_vec(pool.acquire(cap)) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding and returns the immutable frame.
    pub fn finish(self) -> ByteBuf {
        self.buf.freeze()
    }

    /// Encodes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Encodes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Encodes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Encodes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Encodes an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Encodes an `f64`, little-endian IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Encodes a `usize` as a `u64` so frames are portable across platforms.
    pub fn put_usize(&mut self, v: usize) {
        self.buf.put_u64_le(v as u64);
    }

    /// Encodes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.put_slice(v);
    }

    /// Encodes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Bulk-encodes an `f64` slice (length-prefixed).
    ///
    /// On little-endian targets this is a single `memcpy`; ML aggregators are
    /// dominated by such slices, so this is the hot path of the codec.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        self.put_f64s(v);
    }

    /// Bulk-encodes `f64`s without a length prefix: the body of
    /// [`Encoder::put_f64_slice`].
    pub(crate) fn put_f64s(&mut self, v: &[f64]) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: f64 has no padding and we reinterpret it as raw
            // little-endian bytes, which is exactly the wire format.
            let raw = unsafe {
                std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v))
            };
            self.buf.put_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        {
            for &x in v {
                self.buf.put_f64_le(x);
            }
        }
    }

    /// The bytes written so far, for a frame writer that checksums them,
    /// writes a reduced payload in place or patches its header.
    pub(crate) fn bytes_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut_vec()
    }

    /// Bulk-encodes a `u64` slice (length-prefixed).
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_usize(v.len());
        #[cfg(target_endian = "little")]
        {
            // SAFETY: u64 reinterpreted as its little-endian byte repr.
            let raw = unsafe {
                std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v))
            };
            self.buf.put_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        {
            for &x in v {
                self.buf.put_u64_le(x);
            }
        }
    }

    /// Bulk-encodes a `u32` slice (length-prefixed).
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        #[cfg(target_endian = "little")]
        {
            // SAFETY: u32 reinterpreted as its little-endian byte repr.
            let raw = unsafe {
                std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v))
            };
            self.buf.put_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        {
            for &x in v {
                self.buf.put_u32_le(x);
            }
        }
    }
}

/// Streaming decoder over an immutable frame.
#[derive(Debug)]
pub struct Decoder {
    buf: ByteBuf,
}

impl Decoder {
    /// Wraps a frame for decoding.
    pub fn new(buf: ByteBuf) -> Self {
        Self { buf }
    }

    /// ByteBuf not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Consumes the decoder and returns the (possibly advanced) frame, e.g.
    /// to recycle its backing allocation into a [`FramePool`].
    pub fn into_frame(self) -> ByteBuf {
        self.buf
    }

    fn need(&self, n: usize, what: &str) -> NetResult<()> {
        if self.buf.remaining() < n {
            return Err(NetError::Codec(format!(
                "truncated frame: need {n} bytes for {what}, have {}",
                self.buf.remaining()
            )));
        }
        Ok(())
    }

    /// Decodes one byte.
    pub fn get_u8(&mut self) -> NetResult<u8> {
        self.need(1, "u8")?;
        Ok(self.buf.get_u8())
    }

    /// Decodes a bool (any non-zero byte is `true`).
    pub fn get_bool(&mut self) -> NetResult<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Decodes a little-endian `u32`.
    pub fn get_u32(&mut self) -> NetResult<u32> {
        self.need(4, "u32")?;
        Ok(self.buf.get_u32_le())
    }

    /// Decodes a little-endian `u64`.
    pub fn get_u64(&mut self) -> NetResult<u64> {
        self.need(8, "u64")?;
        Ok(self.buf.get_u64_le())
    }

    /// Decodes a little-endian `i64`.
    pub fn get_i64(&mut self) -> NetResult<i64> {
        self.need(8, "i64")?;
        Ok(self.buf.get_i64_le())
    }

    /// Decodes a little-endian `f64`.
    pub fn get_f64(&mut self) -> NetResult<f64> {
        self.need(8, "f64")?;
        Ok(self.buf.get_f64_le())
    }

    /// Decodes a `u64` written by [`Encoder::put_usize`] back to `usize`.
    pub fn get_usize(&mut self) -> NetResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| NetError::Codec(format!("usize overflow: {v}")))
    }

    /// Decodes a length-prefixed byte slice as a zero-copy sub-frame.
    pub fn get_bytes(&mut self) -> NetResult<ByteBuf> {
        let len = self.get_usize()?;
        self.need(len, "byte slice")?;
        Ok(self.buf.split_to(len))
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> NetResult<String> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|e| NetError::Codec(format!("invalid utf8: {e}")))
    }

    /// Bulk-decodes an `f64` slice written by [`Encoder::put_f64_slice`].
    pub fn get_f64_vec(&mut self) -> NetResult<Vec<f64>> {
        let len = self.get_usize()?;
        let nbytes = len
            .checked_mul(8)
            .ok_or_else(|| NetError::Codec(format!("f64 slice too long: {len}")))?;
        self.need(nbytes, "f64 slice")?;
        let mut out = Vec::with_capacity(len);
        #[cfg(target_endian = "little")]
        {
            let raw = self.buf.split_to(nbytes);
            // SAFETY: the spare capacity holds exactly `len` f64s; we fill all
            // of them from the (unaligned-safe) byte copy before set_len.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    raw.as_ptr(),
                    out.as_mut_ptr() as *mut u8,
                    nbytes,
                );
                out.set_len(len);
            }
        }
        #[cfg(not(target_endian = "little"))]
        {
            for _ in 0..len {
                out.push(self.buf.get_f64_le());
            }
        }
        Ok(out)
    }

    /// Bulk-decodes a `u64` slice written by [`Encoder::put_u64_slice`].
    pub fn get_u64_vec(&mut self) -> NetResult<Vec<u64>> {
        let len = self.get_usize()?;
        let nbytes = len
            .checked_mul(8)
            .ok_or_else(|| NetError::Codec(format!("u64 slice too long: {len}")))?;
        self.need(nbytes, "u64 slice")?;
        let mut out = Vec::with_capacity(len);
        #[cfg(target_endian = "little")]
        {
            let raw = self.buf.split_to(nbytes);
            // SAFETY: same contract as get_f64_vec.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    raw.as_ptr(),
                    out.as_mut_ptr() as *mut u8,
                    nbytes,
                );
                out.set_len(len);
            }
        }
        #[cfg(not(target_endian = "little"))]
        {
            for _ in 0..len {
                out.push(self.buf.get_u64_le());
            }
        }
        Ok(out)
    }

    /// Bulk-decodes a `u32` slice written by [`Encoder::put_u32_slice`].
    pub fn get_u32_vec(&mut self) -> NetResult<Vec<u32>> {
        let len = self.get_usize()?;
        let nbytes = len
            .checked_mul(4)
            .ok_or_else(|| NetError::Codec(format!("u32 slice too long: {len}")))?;
        self.need(nbytes, "u32 slice")?;
        let mut out = Vec::with_capacity(len);
        #[cfg(target_endian = "little")]
        {
            let raw = self.buf.split_to(nbytes);
            // SAFETY: same contract as get_f64_vec.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    raw.as_ptr(),
                    out.as_mut_ptr() as *mut u8,
                    nbytes,
                );
                out.set_len(len);
            }
        }
        #[cfg(not(target_endian = "little"))]
        {
            for _ in 0..len {
                out.push(self.buf.get_u32_le());
            }
        }
        Ok(out)
    }
}

/// A value that can cross the executor boundary.
///
/// This is the Rust analogue of "serializable with a registered serializer"
/// in Spark. Implementations must round-trip: `decode(encode(x)) == x`.
pub trait Payload: Send + Sized + 'static {
    /// Appends this value to the encoder.
    fn encode_into(&self, enc: &mut Encoder);
    /// Reads one value back out of the decoder.
    fn decode_from(dec: &mut Decoder) -> NetResult<Self>;
    /// Exact encoded length of this value in bytes.
    ///
    /// Used to pre-size encode buffers *and* as the unified wire-bytes
    /// accounting (`Segment::payload_bytes`, bench CSV `wire_bytes`), so
    /// every impl must return exactly `to_frame().len()` — the
    /// `prop_payload` suite asserts this for each impl in the workspace.
    /// The default (0) is only correct for values with an empty encoding,
    /// e.g. `()`.
    fn size_hint(&self) -> usize {
        0
    }

    /// Encodes `self` into a standalone frame.
    fn to_frame(&self) -> ByteBuf {
        let mut enc = Encoder::with_capacity(self.size_hint());
        self.encode_into(&mut enc);
        enc.finish()
    }

    /// Decodes a value from a standalone frame, requiring full consumption.
    fn from_frame(frame: ByteBuf) -> NetResult<Self> {
        let mut dec = Decoder::new(frame);
        let v = Self::decode_from(&mut dec)?;
        if dec.remaining() != 0 {
            return Err(NetError::Codec(format!(
                "{} trailing bytes after decode",
                dec.remaining()
            )));
        }
        Ok(v)
    }

    /// Like [`Payload::to_frame`], but the encode buffer is drawn from
    /// `pool`. Produces a bit-identical frame (a recycled buffer contributes
    /// only capacity, never contents — see [`crate::pool`]); in steady state
    /// the hot path allocates nothing.
    fn to_frame_pooled(&self, pool: &FramePool) -> ByteBuf {
        let mut enc = Encoder::pooled(pool, self.size_hint());
        self.encode_into(&mut enc);
        enc.finish()
    }

    /// Like [`Payload::from_frame`], but after decoding (the decode *copies*
    /// values out of the frame) the frame's backing allocation is returned
    /// to `pool` — unless something else still references it, in which case
    /// it just drops.
    fn from_frame_pooled(frame: ByteBuf, pool: &FramePool) -> NetResult<Self> {
        let mut dec = Decoder::new(frame);
        let decoded = Self::decode_from(&mut dec);
        let trailing = dec.remaining();
        pool.recycle_frame(dec.into_frame());
        let v = decoded?;
        if trailing != 0 {
            return Err(NetError::Codec(format!(
                "{trailing} trailing bytes after decode"
            )));
        }
        Ok(v)
    }
}

macro_rules! payload_prim {
    ($ty:ty, $put:ident, $get:ident, $size:expr) => {
        impl Payload for $ty {
            fn encode_into(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
                dec.$get()
            }
            fn size_hint(&self) -> usize {
                $size
            }
        }
    };
}

payload_prim!(u8, put_u8, get_u8, 1);
payload_prim!(bool, put_bool, get_bool, 1);
payload_prim!(u32, put_u32, get_u32, 4);
payload_prim!(u64, put_u64, get_u64, 8);
payload_prim!(i64, put_i64, get_i64, 8);
payload_prim!(f64, put_f64, get_f64, 8);
payload_prim!(usize, put_usize, get_usize, 8);

impl Payload for String {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        dec.get_string()
    }
    fn size_hint(&self) -> usize {
        8 + self.len()
    }
}

impl Payload for () {
    fn encode_into(&self, _enc: &mut Encoder) {}
    fn decode_from(_dec: &mut Decoder) -> NetResult<Self> {
        Ok(())
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for item in self {
            item.encode_into(enc);
        }
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        let len = dec.get_usize()?;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode_from(dec)?);
        }
        Ok(out)
    }
    fn size_hint(&self) -> usize {
        8 + self.iter().map(Payload::size_hint).sum::<usize>()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode_into(enc);
            }
        }
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(dec)?)),
            tag => Err(NetError::Codec(format!("invalid Option tag {tag}"))),
        }
    }
    fn size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::size_hint)
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn encode_into(&self, enc: &mut Encoder) {
        self.0.encode_into(enc);
        self.1.encode_into(enc);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok((A::decode_from(dec)?, B::decode_from(dec)?))
    }
    fn size_hint(&self) -> usize {
        self.0.size_hint() + self.1.size_hint()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn encode_into(&self, enc: &mut Encoder) {
        self.0.encode_into(enc);
        self.1.encode_into(enc);
        self.2.encode_into(enc);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok((A::decode_from(dec)?, B::decode_from(dec)?, C::decode_from(dec)?))
    }
    fn size_hint(&self) -> usize {
        self.0.size_hint() + self.1.size_hint() + self.2.size_hint()
    }
}

/// Wrapper giving `Vec<f64>` the bulk (memcpy) wire format.
///
/// The generic `Vec<T>` impl encodes element-by-element; ML aggregators are
/// almost entirely `f64` arrays, so they should wrap their arrays in
/// [`F64Array`] (or call the slice methods directly) to hit the fast path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct F64Array(pub Vec<f64>);

impl Payload for F64Array {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_f64_slice(&self.0);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok(F64Array(dec.get_f64_vec()?))
    }
    fn size_hint(&self) -> usize {
        8 + 8 * self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Payload + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let frame = v.to_frame();
        let back = T::from_frame(frame).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(true);
        roundtrip(false);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(usize::MAX);
        roundtrip(());
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let frame = f64::NAN.to_frame();
        let back = f64::from_frame(frame).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn strings_roundtrip() {
        roundtrip(String::new());
        roundtrip("hello".to_string());
        roundtrip("ünïcodé 🚀".to_string());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(42u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u32, 2.5f64));
        roundtrip((1u32, "x".to_string(), vec![1.0f64, 2.0]));
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn f64_array_bulk_roundtrip() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.5 - 7.0).collect();
        roundtrip(F64Array(data));
        roundtrip(F64Array(vec![]));
    }

    #[test]
    fn f64_array_wire_size_is_compact() {
        let arr = F64Array(vec![0.0; 1000]);
        let frame = arr.to_frame();
        assert_eq!(frame.len(), 8 + 8 * 1000);
    }

    #[test]
    fn bulk_and_elementwise_f64_formats_match() {
        // put_f64_slice must produce the same bytes as a length prefix plus
        // elementwise put_f64, otherwise big-endian fallback would diverge.
        let vals = [1.5f64, -2.25, 1e300, 0.0, -0.0];
        let mut bulk = Encoder::new();
        bulk.put_f64_slice(&vals);
        let mut elem = Encoder::new();
        elem.put_usize(vals.len());
        for &v in &vals {
            elem.put_f64(v);
        }
        assert_eq!(bulk.finish(), elem.finish());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_u64(7);
        let frame = enc.finish();
        let short = frame.slice(0..4);
        let mut dec = Decoder::new(short);
        assert!(matches!(dec.get_u64(), Err(NetError::Codec(_))));
    }

    #[test]
    fn trailing_bytes_rejected_by_from_frame() {
        let mut enc = Encoder::new();
        enc.put_u32(1);
        enc.put_u32(2);
        let frame = enc.finish();
        assert!(matches!(u32::from_frame(frame), Err(NetError::Codec(_))));
    }

    #[test]
    fn invalid_option_tag_rejected() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        let frame = enc.finish();
        assert!(matches!(
            Option::<u64>::from_frame(frame),
            Err(NetError::Codec(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let frame = enc.finish();
        assert!(matches!(String::from_frame(frame), Err(NetError::Codec(_))));
    }

    #[test]
    fn u64_and_u32_slices_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u64_slice(&[1, 2, u64::MAX]);
        enc.put_u32_slice(&[7, 0, u32::MAX]);
        let mut dec = Decoder::new(enc.finish());
        assert_eq!(dec.get_u64_vec().unwrap(), vec![1, 2, u64::MAX]);
        assert_eq!(dec.get_u32_vec().unwrap(), vec![7, 0, u32::MAX]);
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_oom() {
        let mut enc = Encoder::new();
        enc.put_usize(usize::MAX / 2);
        let mut dec = Decoder::new(enc.finish());
        assert!(dec.get_f64_vec().is_err());
    }
}
