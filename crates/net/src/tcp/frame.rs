//! The TCP wire-frame codec: length-prefixed, checksummed frames.
//!
//! This is the lowest layer of the real-socket transport: everything that
//! crosses a [`crate::tcp::TcpTransport`] socket — data-plane messages and
//! rendezvous control messages alike — is one of these frames. The format is
//! specified normatively in DESIGN.md §5g; the constants here are
//! cross-checked byte-for-byte against the documented example frame by
//! `example_frame_matches_design_doc` below.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic     0x5350_4B54 ("SPKT")
//! 4       4     len       bytes after this field = 16 + payload length
//! 8       8     checksum  sum64 seeded with (from, channel) over the payload
//! 16      4     from      sender rank
//! 20      4     channel   logical channel index
//! 24      len-16      payload
//! ```
//!
//! The `(magic, len)` prefix lets a reader discover frame boundaries on a
//! byte stream; the checksum ([`crate::hash`]) turns any corruption *within*
//! a frame into a typed [`NetError::Codec`]. Both directions compute it while
//! copying the payload, so a frame's bytes are walked once per side. A TCP
//! stream cannot reorder or duplicate, so per-frame sequence numbers are
//! unnecessary; collective-level staleness is handled one layer up by the
//! epoch header ([`crate::epoch`]), which rides inside the payload.
//!
//! # Incremental decoding
//!
//! Sockets deliver arbitrary byte runs, so decoding is split in two:
//! [`FrameReader`] accumulates bytes and yields complete frames
//! (`Ok(None)` = incomplete prefix, keep reading), while the blocking
//! [`read_frame`]/[`write_frame`] helpers serve the rendezvous control plane
//! where a dedicated socket can simply block.
//!
//! ```
//! use sparker_net::tcp::frame::{self, FrameReader};
//! use sparker_net::FramePool;
//!
//! let pool = FramePool::new();
//! let frame = frame::encode_pooled(&pool, 2, 1, b"ring").unwrap();
//!
//! // Feed the wire bytes one at a time: the reader reassembles them.
//! let mut reader = FrameReader::new();
//! let mut out = None;
//! for &b in frame.iter() {
//!     reader.extend(&[b]);
//!     if let Some(decoded) = reader.next_frame(&pool).unwrap() {
//!         out = Some(decoded);
//!     }
//! }
//! let decoded = out.expect("frame completes on the last byte");
//! assert_eq!((decoded.from, decoded.channel), (2, 1));
//! assert_eq!(&decoded.payload[..], b"ring");
//! ```

use std::io::{ErrorKind, Read, Write};

use crate::bytebuf::ByteBuf;
use crate::error::{NetError, NetResult};
use crate::hash::{le_u64, Sum64};
use crate::pool::FramePool;

/// Wire-frame magic: `"SPKT"` as a little-endian u32 (bytes `54 4B 50 53`).
pub const MAGIC: u32 = 0x5350_4B54;
/// Bytes before the length-covered body: magic + len field.
pub const PREFIX_LEN: usize = 8;
/// Fixed body bytes before the payload: checksum + from + channel.
pub const BODY_FIXED: usize = 16;
/// Total header bytes preceding the payload.
pub const HEADER_LEN: usize = PREFIX_LEN + BODY_FIXED;
/// Upper bound on a single frame's payload. Far above anything the ring
/// sends (segments cap out in the low MiBs); a `len` field claiming more is
/// corruption, and rejecting it keeps a flipped length bit from asking the
/// reader to buffer gigabytes.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// The channel index reserved for rendezvous/control traffic, never valid
/// for data-plane sends (data channels are `0..channels`).
pub const CONTROL_CHANNEL: u32 = u32::MAX;
/// The channel index reserved for the heartbeat protocol
/// ([`crate::tcp::health`]). Heartbeat frames are consumed by the IO thread
/// itself and never reach an inbox; like [`CONTROL_CHANNEL`], the value sits
/// far above any valid data channel so a collision with data traffic is a
/// typed [`NetError::Codec`], not a misroute.
pub const HEARTBEAT_CHANNEL: u32 = u32::MAX - 1;
/// The `from` value used by endpoints that have no rank yet (rendezvous
/// hello) or stand outside the mesh (the driver).
pub const UNRANKED: u32 = u32::MAX;

/// A decoded wire frame: who sent it, on which channel, and the payload.
///
/// The payload buffer is drawn from the [`FramePool`] passed to the decoder,
/// so receivers that recycle it after use keep the steady state
/// allocation-free.
#[derive(Debug, Clone)]
pub struct DecodedFrame {
    /// Sender rank (or [`UNRANKED`]).
    pub from: u32,
    /// Channel index (or [`CONTROL_CHANNEL`]).
    pub channel: u32,
    /// The frame payload.
    pub payload: ByteBuf,
}

/// The frame digest before any payload: seeded with `from` and `channel`,
/// so one checksum covers the whole body.
fn body_digest(from: u32, channel: u32) -> Sum64 {
    Sum64::seeded(from as u64, channel as u64)
}

/// Encodes one wire frame, drawing the buffer from `pool`.
///
/// In steady state (after the pool has seen a frame of this size class) this
/// allocates nothing. The caller owns the returned frame; transports recycle
/// it once the bytes are on the wire.
pub fn encode_pooled(
    pool: &FramePool,
    from: u32,
    channel: u32,
    payload: &[u8],
) -> NetResult<ByteBuf> {
    if payload.len() > MAX_PAYLOAD {
        return Err(NetError::Codec(format!(
            "tcp frame payload {} bytes exceeds MAX_PAYLOAD {MAX_PAYLOAD}",
            payload.len()
        )));
    }
    let mut buf = pool.acquire(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&((BODY_FIXED + payload.len()) as u32).to_le_bytes());
    buf.extend_from_slice(&[0; 8]);
    buf.extend_from_slice(&from.to_le_bytes());
    buf.extend_from_slice(&channel.to_le_bytes());
    let mut sum = body_digest(from, channel);
    sum.copy_into(payload, &mut buf);
    buf[PREFIX_LEN..PREFIX_LEN + 8].copy_from_slice(&sum.finish().to_le_bytes());
    Ok(ByteBuf::from(buf))
}

fn read_u32(bytes: &[u8]) -> u32 {
    le_u64(&bytes[..4]) as u32
}

/// Validates the 8-byte `(magic, len)` prefix, returning the body length.
fn parse_prefix(prefix: &[u8]) -> NetResult<usize> {
    let magic = read_u32(&prefix[0..4]);
    if magic != MAGIC {
        return Err(NetError::Codec(format!(
            "bad tcp frame magic {magic:#010x} (want {MAGIC:#010x})"
        )));
    }
    let len = read_u32(&prefix[4..8]) as usize;
    if len < BODY_FIXED {
        return Err(NetError::Codec(format!(
            "tcp frame len {len} shorter than fixed body {BODY_FIXED}"
        )));
    }
    if len - BODY_FIXED > MAX_PAYLOAD {
        return Err(NetError::Codec(format!(
            "tcp frame len {len} exceeds MAX_PAYLOAD {MAX_PAYLOAD}"
        )));
    }
    Ok(len)
}

/// Validates a frame body (`checksum | from | channel | payload`) while
/// copying the payload into a pooled buffer.
fn parse_body(body: &[u8], pool: &FramePool) -> NetResult<DecodedFrame> {
    debug_assert!(body.len() >= BODY_FIXED);
    let sum = le_u64(&body[0..8]);
    let from = read_u32(&body[8..12]);
    let channel = read_u32(&body[12..16]);
    let payload_bytes = &body[BODY_FIXED..];
    let mut payload = pool.acquire(payload_bytes.len());
    let mut computed = body_digest(from, channel);
    computed.copy_into(payload_bytes, &mut payload);
    let computed = computed.finish();
    if sum != computed {
        pool.recycle_vec(payload);
        return Err(NetError::Codec(format!(
            "tcp frame checksum mismatch: header {sum:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(DecodedFrame { from, channel, payload: ByteBuf::from(payload) })
}

/// Incremental frame reassembler for a non-blocking socket.
///
/// Feed raw reads in with [`FrameReader::extend`]; pull complete frames out
/// with [`FrameReader::next_frame`]. An incomplete prefix is `Ok(None)`
/// (never an error — short reads are normal), while a malformed prefix or a
/// checksum mismatch is a fatal [`NetError::Codec`]: once the stream framing
/// is wrong there is no way to resynchronise, so the connection must die.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

/// Consumed-prefix size above which the internal buffer is compacted.
const COMPACT_THRESHOLD: usize = 1 << 16;

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a partial frame (or any unconsumed bytes) is buffered — used
    /// to distinguish a clean EOF from a torn read.
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Attempts to decode the next complete frame. Returns `Ok(None)` when
    /// more bytes are needed.
    pub fn next_frame(&mut self, pool: &FramePool) -> NetResult<Option<DecodedFrame>> {
        let avail = self.buf.len() - self.start;
        if avail < PREFIX_LEN {
            return Ok(None);
        }
        let len = parse_prefix(&self.buf[self.start..self.start + PREFIX_LEN])?;
        if avail < PREFIX_LEN + len {
            return Ok(None);
        }
        let body_start = self.start + PREFIX_LEN;
        let frame = parse_body(&self.buf[body_start..body_start + len], pool)?;
        self.start += PREFIX_LEN + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

/// Maps an OS socket error to the transport's typed error.
///
/// Clean connection-terminating conditions (EOF mid-read, reset, broken
/// pipe) become [`NetError::Disconnected`]; expired socket deadlines become
/// [`NetError::Timeout`]; everything else is [`NetError::Io`].
pub fn io_to_net(e: std::io::Error) -> NetError {
    match e.kind() {
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => NetError::Disconnected,
        ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout,
        _ => NetError::Io(e.to_string()),
    }
}

/// Blocking write of one frame (control plane). The encode buffer is pooled
/// and recycled after the bytes are written.
pub fn write_frame<W: Write>(
    w: &mut W,
    pool: &FramePool,
    from: u32,
    channel: u32,
    payload: &[u8],
) -> NetResult<()> {
    let frame = encode_pooled(pool, from, channel, payload)?;
    let res = w.write_all(&frame).map_err(io_to_net);
    pool.recycle_frame(frame);
    res
}

/// Blocking read of one frame (control plane). EOF before a complete frame —
/// at the first header byte or mid-body alike — is [`NetError::Disconnected`];
/// an expired socket read-timeout is [`NetError::Timeout`].
pub fn read_frame<R: Read>(r: &mut R, pool: &FramePool) -> NetResult<DecodedFrame> {
    let mut prefix = [0u8; PREFIX_LEN];
    r.read_exact(&mut prefix).map_err(io_to_net)?;
    let len = parse_prefix(&prefix)?;
    let mut body = pool.acquire(len);
    body.resize(len, 0);
    r.read_exact(&mut body).map_err(io_to_net)?;
    let frame = parse_body(&body, pool)?;
    pool.recycle_vec(body);
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FramePool {
        FramePool::new()
    }

    #[test]
    fn roundtrip_via_reader() {
        let pool = pool();
        let frame = encode_pooled(&pool, 3, 7, b"payload bytes").unwrap();
        let mut r = FrameReader::new();
        r.extend(&frame);
        let got = r.next_frame(&pool).unwrap().expect("complete frame");
        assert_eq!(got.from, 3);
        assert_eq!(got.channel, 7);
        assert_eq!(&got.payload[..], b"payload bytes");
        assert!(!r.has_partial());
        assert!(r.next_frame(&pool).unwrap().is_none());
    }

    #[test]
    fn example_frame_matches_design_doc() {
        // The exact frame documented in DESIGN.md §5g: from=2, channel=1,
        // payload=b"ring". If this test fails, either the implementation or
        // the spec drifted — fix whichever is wrong, in both places.
        let pool = pool();
        let frame = encode_pooled(&pool, 2, 1, b"ring").unwrap();
        let expect: &[u8] = &[
            0x54, 0x4B, 0x50, 0x53, // magic "SPKT" (LE 0x53504B54)
            0x14, 0x00, 0x00, 0x00, // len = 20 (16 fixed + 4 payload)
            0xE6, 0xA8, 0xC3, 0xDC, 0xB0, 0x08, 0x9E, 0x49, // sum64 = 0x499E08B0DCC3A8E6
            0x02, 0x00, 0x00, 0x00, // from = 2
            0x01, 0x00, 0x00, 0x00, // channel = 1
            0x72, 0x69, 0x6E, 0x67, // "ring"
        ];
        assert_eq!(frame.len(), expect.len(), "frame length");
        // Compare everything except the checksum first for a readable diff...
        assert_eq!(&frame[..8], &expect[..8], "prefix");
        assert_eq!(&frame[16..], &expect[16..], "body");
        // ...then the checksum itself against the documented constant.
        let mut sum = body_digest(2, 1);
        sum.update(b"ring");
        assert_eq!(le_u64(&frame[8..16]), sum.finish(), "self-consistency");
        assert_eq!(&frame[8..16], &expect[8..16], "documented checksum");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let pool = pool();
        let frame = encode_pooled(&pool, 0, 0, b"").unwrap();
        assert_eq!(frame.len(), HEADER_LEN);
        let mut r = FrameReader::new();
        r.extend(&frame);
        let got = r.next_frame(&pool).unwrap().unwrap();
        assert!(got.payload.is_empty());
    }

    #[test]
    fn reader_handles_arbitrary_chunking() {
        let pool = pool();
        let mut wire = Vec::new();
        for i in 0..5u32 {
            let payload = vec![i as u8; (i as usize) * 37];
            wire.extend_from_slice(&encode_pooled(&pool, i, i * 2, &payload).unwrap());
        }
        // Feed in chunks of every fixed size; all frames must reassemble.
        for chunk in 1..17 {
            let mut r = FrameReader::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                r.extend(piece);
                while let Some(f) = r.next_frame(&pool).unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got.len(), 5, "chunk size {chunk}");
            for (i, f) in got.iter().enumerate() {
                assert_eq!(f.from, i as u32);
                assert_eq!(f.channel, i as u32 * 2);
                assert_eq!(f.payload.len(), i * 37);
            }
            assert!(!r.has_partial());
        }
    }

    #[test]
    fn truncation_is_incomplete_never_error() {
        let pool = pool();
        let frame = encode_pooled(&pool, 1, 2, b"truncate me").unwrap();
        for cut in 0..frame.len() {
            let mut r = FrameReader::new();
            r.extend(&frame[..cut]);
            assert!(
                r.next_frame(&pool).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
            if cut > 0 {
                assert!(r.has_partial());
            }
        }
    }

    #[test]
    fn corruption_is_typed_codec_error() {
        let pool = pool();
        let frame = encode_pooled(&pool, 9, 4, b"some payload here").unwrap();
        for i in 0..frame.len() {
            let mut bytes = frame.to_vec();
            bytes[i] ^= 0x01;
            let mut r = FrameReader::new();
            r.extend(&bytes);
            match r.next_frame(&pool) {
                Err(NetError::Codec(_)) => {}
                // A flip in the len field may legitimately present as an
                // incomplete longer frame — but never as a *successful*
                // decode of different bytes.
                Ok(None) if (4..8).contains(&i) => {}
                other => panic!("flip at byte {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_len_rejected_without_buffering() {
        let pool = pool();
        let mut bytes = encode_pooled(&pool, 0, 0, b"x").unwrap().to_vec();
        bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = FrameReader::new();
        r.extend(&bytes);
        assert!(matches!(r.next_frame(&pool), Err(NetError::Codec(_))));
    }

    #[test]
    fn blocking_helpers_roundtrip_over_a_cursor() {
        let pool = pool();
        let mut wire = Vec::new();
        write_frame(&mut wire, &pool, 5, CONTROL_CHANNEL, b"hello").unwrap();
        write_frame(&mut wire, &pool, 6, 0, b"again").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let a = read_frame(&mut cursor, &pool).unwrap();
        assert_eq!((a.from, a.channel), (5, CONTROL_CHANNEL));
        assert_eq!(&a.payload[..], b"hello");
        let b = read_frame(&mut cursor, &pool).unwrap();
        assert_eq!(&b.payload[..], b"again");
        // EOF at a frame boundary is still Disconnected for a reader that
        // expected another frame.
        assert_eq!(read_frame(&mut cursor, &pool).unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn torn_read_is_disconnected() {
        let pool = pool();
        let mut wire = Vec::new();
        write_frame(&mut wire, &pool, 1, 0, b"torn").unwrap();
        wire.truncate(wire.len() - 2); // peer died mid-frame
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor, &pool).unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn steady_state_encode_decode_is_allocation_free() {
        let pool = pool();
        // Warm the classes once.
        let payload = vec![0xABu8; 1000];
        let f = encode_pooled(&pool, 0, 0, &payload).unwrap();
        let mut r = FrameReader::new();
        r.extend(&f);
        let d = r.next_frame(&pool).unwrap().unwrap();
        pool.recycle_frame(d.payload);
        pool.recycle_frame(f);
        let before = pool.stats();
        for _ in 0..100 {
            let f = encode_pooled(&pool, 0, 0, &payload).unwrap();
            r.extend(&f);
            let d = r.next_frame(&pool).unwrap().unwrap();
            pool.recycle_frame(d.payload);
            pool.recycle_frame(f);
        }
        let after = pool.stats();
        assert_eq!(after.misses, before.misses, "steady state must not allocate frames");
        assert_eq!(after.hits - before.hits, 200);
    }
}
