//! Epoch fencing for collective frames.
//!
//! Collective stages are gang-scheduled: when one ring task fails, its peers
//! are cancelled and the whole stage is resubmitted. Frames from the failed
//! attempt may still be sitting in (or racing into) the mesh channels, and a
//! retried task that consumed one would silently corrupt the reduction. Every
//! collective frame therefore carries an `(op, attempt)` epoch header;
//! receivers drop frames whose epoch does not match their own, and the driver
//! additionally drains the transport between attempts.
//!
//! The header also carries a [`Sum64`] checksum over the op, attempt, and
//! payload bytes. An in-process mesh cannot flip bits on its own, but the
//! fault injector ([`crate::fault`]) can — and a corrupted `f64` would decode
//! "successfully" into a wrong answer. The checksum turns every byte mutation
//! into a typed [`NetError::Codec`] instead.

use crate::bytebuf::ByteBuf;
use crate::codec::{Decoder, Encoder};
use crate::error::{NetError, NetResult};
use crate::hash::Sum64;

/// Frame magic: distinguishes epoch-wrapped collective frames from garbage.
const MAGIC: u32 = 0x5350_4B31; // "SPK1"

/// Bits of the `attempt` word reserved for the per-job epoch *namespace*.
///
/// With many jobs in flight, two concurrent rings could otherwise pick the
/// same `(op, attempt)` pair and accept each other's frames. The scheduler
/// assigns every live job a namespace in `1..NS_COUNT` (0 is the single-job
/// default) and folds it into the high bits of the attempt word with
/// [`namespaced`]; the frame layout is unchanged, so the §5g wire spec still
/// holds byte-for-byte. Distinct live namespaces can never collide: the
/// namespace bits differ, so the fenced attempt words differ for every
/// combination of raw attempts.
pub const NS_BITS: u32 = 10;
/// Number of distinct epoch namespaces (including the default namespace 0).
pub const NS_COUNT: u32 = 1 << NS_BITS;
/// Bits left for the raw attempt counter under a namespace.
pub const ATTEMPT_BITS: u32 = 32 - NS_BITS;
/// Mask selecting the raw attempt counter out of a fenced attempt word.
pub const ATTEMPT_MASK: u32 = (1 << ATTEMPT_BITS) - 1;

/// Folds a job's epoch namespace into an attempt counter.
///
/// The result goes wherever a plain attempt went before (frame headers,
/// `RingComm::with_epoch`); [`split_namespaced`] inverts it. Raw attempts
/// are far below `ATTEMPT_MASK` in practice (drivers cap collective retries
/// at single digits), so the masking never loses real attempts.
pub fn namespaced(ns: u32, attempt: u32) -> u32 {
    debug_assert!(ns < NS_COUNT, "epoch namespace {ns} out of range (< {NS_COUNT})");
    debug_assert!(attempt <= ATTEMPT_MASK, "attempt {attempt} overflows namespace layout");
    ((ns & (NS_COUNT - 1)) << ATTEMPT_BITS) | (attempt & ATTEMPT_MASK)
}

/// Splits a fenced attempt word into `(namespace, raw attempt)`.
pub fn split_namespaced(fenced: u32) -> (u32, u32) {
    (fenced >> ATTEMPT_BITS, fenced & ATTEMPT_MASK)
}

/// Offset of the checksum field, right after the magic.
const SUM_AT: usize = 4;
/// Offset of the payload length field, after magic, checksum, op and attempt.
const LEN_AT: usize = 4 + 8 + 8 + 4;
/// Header bytes before the payload: magic, checksum, op, attempt, length.
const HEADER_LEN: usize = LEN_AT + 8;
/// `f64`s a [`FrameWriter`] writes between two checksum updates: 8 KiB, so
/// what was just written is still in L1 when the digest reads it.
const SUM_CHUNK_F64S: usize = crate::hash::COPY_CHUNK / 8;

/// The integrity check for collective frames: the epoch fields seed the
/// digest the payload is folded into (see [`crate::hash`]).
fn digest(op: u64, attempt: u32) -> Sum64 {
    Sum64::seeded(op, attempt as u64)
}

/// An epoch frame written in place: the header first, then the payload
/// straight behind it, checksummed while it is written.
///
/// Layout: `magic u32 | checksum u64 | op u64 | attempt u32 | payload bytes`
/// (the payload is length-prefixed as by the codec's `put_bytes`).
/// [`FrameWriter::finish`] patches the length and the checksum into the
/// header. The buffer is drawn from the global [`crate::pool::FramePool`]:
/// this runs once per collective send, so in steady state a send allocates
/// nothing, and no layer copies the payload behind a header afterwards.
pub struct FrameWriter {
    enc: Encoder,
    sum: Sum64,
    /// End of the bytes already folded into `sum`.
    summed: usize,
}

impl FrameWriter {
    /// Opens a frame for epoch `(op, attempt)` with room for `payload_len`
    /// payload bytes.
    pub fn new(op: u64, attempt: u32, payload_len: usize) -> Self {
        let mut enc = Encoder::pooled(crate::pool::global(), HEADER_LEN + payload_len);
        enc.put_u32(MAGIC);
        enc.put_u64(0); // checksum, patched by `finish`
        enc.put_u64(op);
        enc.put_u32(attempt);
        enc.put_u64(0); // payload length, patched by `finish`
        Self { enc, sum: digest(op, attempt), summed: HEADER_LEN }
    }

    /// The payload encoder. What is written through it is checksummed by the
    /// next `put_*` call of the frame, or by [`FrameWriter::finish`].
    pub fn encoder(&mut self) -> &mut Encoder {
        &mut self.enc
    }

    /// Payload bytes written so far.
    pub fn payload_len(&self) -> usize {
        self.enc.len() - HEADER_LEN
    }

    /// Folds the bytes written since the last checkpoint into the checksum.
    fn checkpoint(&mut self) {
        let buf = self.enc.bytes_mut();
        self.sum.update(&buf[self.summed..]);
        self.summed = buf.len();
    }

    /// Appends raw payload bytes.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.checkpoint();
        self.sum.copy_into(bytes, self.enc.bytes_mut());
        self.summed = self.enc.len();
    }

    /// Appends `v` in the codec's length-prefixed `f64` slice format
    /// ([`Encoder::put_f64_slice`]).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.enc.put_usize(v.len());
        for chunk in v.chunks(SUM_CHUNK_F64S) {
            self.enc.put_f64s(chunk);
            self.checkpoint();
        }
    }

    /// Appends `local + incoming` in the codec's length-prefixed `f64` slice
    /// format, where `incoming` holds `local.len()` little-endian `f64`s: the
    /// reduce-copy of a dense ring step, one pass over both operands.
    ///
    /// # Panics
    /// If `incoming` is not exactly `8 * local.len()` bytes; callers check
    /// wire data first.
    pub fn put_f64_sum(&mut self, local: &[f64], incoming: &[u8]) {
        assert_eq!(incoming.len(), 8 * local.len(), "f64 sum operands differ in length");
        self.enc.put_usize(local.len());
        for (chunk, bytes) in local.chunks(SUM_CHUNK_F64S).zip(incoming.chunks(8 * SUM_CHUNK_F64S)) {
            let buf = self.enc.bytes_mut();
            let start = buf.len();
            buf.resize(start + bytes.len(), 0);
            for ((out, &x), word) in buf[start..].chunks_exact_mut(8).zip(chunk).zip(bytes.chunks_exact(8)) {
                let y = f64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                out.copy_from_slice(&(x + y).to_le_bytes());
            }
            self.checkpoint();
        }
    }

    /// Seals the frame: patches the payload length and the checksum.
    pub fn finish(mut self) -> ByteBuf {
        self.checkpoint();
        let len = self.payload_len() as u64;
        let sum = self.sum.finish();
        let header = self.enc.bytes_mut();
        header[LEN_AT..LEN_AT + 8].copy_from_slice(&len.to_le_bytes());
        header[SUM_AT..SUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
        self.enc.finish()
    }
}

/// Wraps `payload` in an epoch header: a [`FrameWriter`] with `payload`
/// copied behind the header.
pub fn wrap(op: u64, attempt: u32, payload: &ByteBuf) -> ByteBuf {
    let mut frame = FrameWriter::new(op, attempt, payload.len());
    frame.put_raw(payload);
    frame.finish()
}

/// Unwraps an epoch-fenced frame, returning `(op, attempt, payload)`.
///
/// Every malformed input — wrong magic, truncation, trailing bytes, or any
/// single-byte mutation anywhere in the frame — yields [`NetError::Codec`].
pub fn unwrap(frame: ByteBuf) -> NetResult<(u64, u32, ByteBuf)> {
    let mut dec = Decoder::new(frame);
    let magic = dec.get_u32()?;
    if magic != MAGIC {
        return Err(NetError::Codec(format!(
            "bad collective frame magic {magic:#010x} (want {MAGIC:#010x})"
        )));
    }
    let sum = dec.get_u64()?;
    let op = dec.get_u64()?;
    let attempt = dec.get_u32()?;
    let payload = dec.get_bytes()?;
    if dec.remaining() != 0 {
        return Err(NetError::Codec(format!(
            "{} trailing bytes after collective frame",
            dec.remaining()
        )));
    }
    let mut want = digest(op, attempt);
    want.update(&payload);
    let want = want.finish();
    if sum != want {
        return Err(NetError::Codec(format!(
            "collective frame checksum mismatch: header {sum:#018x}, computed {want:#018x}"
        )));
    }
    Ok((op, attempt, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_epoch_and_payload() {
        let payload = ByteBuf::from_static(b"segment bytes");
        let frame = wrap(42, 3, &payload);
        let (op, attempt, body) = unwrap(frame).unwrap();
        assert_eq!(op, 42);
        assert_eq!(attempt, 3);
        assert_eq!(&body[..], b"segment bytes");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (op, attempt, body) = unwrap(wrap(1, 0, &ByteBuf::new())).unwrap();
        assert_eq!((op, attempt), (1, 0));
        assert!(body.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let frame = wrap(7, 1, &ByteBuf::from_static(b"x"));
        let mut bytes = frame.to_vec();
        bytes[0] ^= 0xff;
        assert!(matches!(unwrap(ByteBuf::from(bytes)), Err(NetError::Codec(_))));
    }

    #[test]
    fn any_byte_flip_is_detected() {
        let frame = wrap(9, 2, &ByteBuf::from_static(b"some payload here"));
        for i in 0..frame.len() {
            let mut bytes = frame.to_vec();
            bytes[i] ^= 0x01;
            let got = unwrap(ByteBuf::from(bytes));
            assert!(
                matches!(got, Err(NetError::Codec(_))),
                "flip at byte {i} was not caught: {got:?}"
            );
        }
    }

    #[test]
    fn truncation_rejected() {
        let frame = wrap(5, 0, &ByteBuf::from_static(b"abcdef"));
        for cut in 0..frame.len() {
            let short = frame.slice(0..cut);
            assert!(matches!(unwrap(short), Err(NetError::Codec(_))), "cut at {cut}");
        }
    }

    #[test]
    fn namespaced_roundtrips() {
        for ns in [0, 1, 2, 511, NS_COUNT - 1] {
            for attempt in [0, 1, 7, ATTEMPT_MASK] {
                assert_eq!(split_namespaced(namespaced(ns, attempt)), (ns, attempt));
            }
        }
    }

    #[test]
    fn distinct_namespaces_never_collide() {
        // Any two fenced attempt words from different namespaces differ,
        // whatever the raw attempts — the no-cross-talk guarantee.
        for ns_a in [0u32, 1, 3, 1023] {
            for ns_b in [2u32, 4, 512] {
                assert_ne!(ns_a, ns_b);
                for a in 0..4u32 {
                    for b in 0..4u32 {
                        assert_ne!(namespaced(ns_a, a), namespaced(ns_b, b));
                    }
                }
            }
        }
    }

    #[test]
    fn namespaced_epoch_travels_through_frames() {
        let fenced = namespaced(17, 2);
        let (op, attempt, _) = unwrap(wrap(99, fenced, &ByteBuf::from_static(b"p"))).unwrap();
        assert_eq!(op, 99);
        assert_eq!(split_namespaced(attempt), (17, 2));
    }

    #[test]
    fn written_frames_equal_wrapped_payloads() {
        use crate::codec::{F64Array, Payload};
        // Long enough to span several checksum chunks, not a multiple of one.
        let local: Vec<f64> = (0..3000).map(|i| i as f64 * 0.37 - 11.0).collect();
        let incoming: Vec<f64> = (0..3000).map(|i| 1e-3 / (i as f64 + 1.0)).collect();
        let mut frame = FrameWriter::new(4, 2, 8 + 8 * local.len());
        frame.put_f64_slice(&local);
        assert_eq!(frame.finish(), wrap(4, 2, &F64Array(local.clone()).to_frame()));

        let sum: Vec<f64> = local.iter().zip(&incoming).map(|(x, y)| x + y).collect();
        let incoming_bytes = F64Array(incoming).to_frame();
        let mut frame = FrameWriter::new(4, 2, 0);
        frame.put_f64_sum(&local, &incoming_bytes[8..]);
        assert_eq!(frame.payload_len(), 8 + 8 * local.len());
        assert_eq!(frame.finish(), wrap(4, 2, &F64Array(sum).to_frame()));

        let mut frame = FrameWriter::new(9, 0, 0);
        F64Array(local.clone()).encode_into(frame.encoder());
        assert_eq!(frame.finish(), wrap(9, 0, &F64Array(local).to_frame()));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let frame = wrap(5, 0, &ByteBuf::from_static(b"abc"));
        let mut bytes = frame.to_vec();
        bytes.push(0);
        assert!(matches!(unwrap(ByteBuf::from(bytes)), Err(NetError::Codec(_))));
    }
}
