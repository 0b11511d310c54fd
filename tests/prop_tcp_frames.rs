//! Property suite for the TCP wire frame codec (DESIGN.md §5g).
//!
//! The framing layer sits between a byte stream with no message boundaries
//! and a transport that promises whole, attributed, checksummed frames. The
//! properties pinned here are exactly its §5g obligations:
//!
//! * **roundtrip** — any `(from, channel, payload)` encoded and pushed
//!   through [`FrameReader`] in arbitrary chunk sizes (modelling TCP's
//!   freedom to fragment) decodes to the same frame, and multiple
//!   back-to-back frames come out in order.
//! * **socketpair roundtrip** — the same over a *real* loopback TCP
//!   connection via the blocking [`write_frame`]/[`read_frame`] helpers,
//!   with the writer flushing in odd-sized bursts.
//! * **truncation is never an error** — a prefix of a valid frame yields
//!   `Ok(None)` ("need more bytes"), never a panic, never a bogus frame:
//!   a reader must not punish the wire for being mid-delivery.
//! * **corruption is a typed error** — flipping any byte of the header or
//!   payload yields [`NetError::Codec`] (or, for length-field bits, a
//!   benign "need more bytes" — the checksum catches the rest when they
//!   arrive), never a panic, never a silently wrong frame.
//! * **segment-sized frames** — at the bandwidth workloads' shape (512 KiB
//!   plus a few bytes) a clean frame crosses a real `TcpTransport` pair
//!   bit-exact, and damage in flight (one payload bit in the first checksum
//!   word, anywhere, in the byte-wise tail; one header bit; the same mask on
//!   a header field and on the payload beside it) is a typed
//!   [`NetError::Codec`] at the receiver, never a payload and never a hang;
//!   the same for `epoch::wrap`/`unwrap`.
//!
//! The heartbeat layer (§5h) rides the same framing on a reserved channel,
//! so its obligations are pinned here too: beats roundtrip for any
//! `(seq, stamp)`, malformed beats are typed [`NetError::Codec`], and the
//! reserved channel ids can never collide with a data channel.

use std::io::Write;
use std::net::{TcpListener, TcpStream};

use sparker_net::epoch;
use sparker_net::error::NetError;
use sparker_net::tcp::frame::{
    encode_pooled, read_frame, write_frame, FrameReader, CONTROL_CHANNEL, HEADER_LEN,
    HEARTBEAT_CHANNEL, MAGIC,
};
use sparker_net::tcp::health::{Beat, BEAT_LEN};
use sparker_net::tcp::TcpTransport;
use sparker_net::transport::Transport;
use sparker_net::{ByteBuf, ExecutorId, FramePool};
use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, PropError, Source};

fn cfg() -> Config {
    Config::with_cases(32)
}

/// An arbitrary frame: rank/channel ids plus a payload of 0..2048 bytes.
fn arb_frame(src: &mut Source) -> (u32, u32, Vec<u8>) {
    let from = src.u32_any();
    let channel = src.u32_any();
    let payload = src.vec_of(0..2048, |s| s.u8_any());
    (from, channel, payload)
}

/// Feeds `bytes` to `reader` in arbitrary-sized chunks, draining decoded
/// frames after each chunk (as the IO thread does after each `read`).
fn feed_chunked(
    reader: &mut FrameReader,
    pool: &FramePool,
    bytes: &[u8],
    src: &mut Source,
) -> Result<Vec<(u32, u32, Vec<u8>)>, PropError> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let step = src.usize_in(1..64).min(bytes.len() - off);
        reader.extend(&bytes[off..off + step]);
        off += step;
        while let Some(f) = reader
            .next_frame(pool)
            .map_err(|e| PropError::new(format!("decode failed mid-stream: {e}")))?
        {
            out.push((f.from, f.channel, f.payload.to_vec()));
        }
    }
    Ok(out)
}

#[test]
fn chunked_reassembly_roundtrips_any_frame_train() {
    check(&cfg(), |src| {
        let pool = FramePool::new();
        let frames: Vec<(u32, u32, Vec<u8>)> =
            src.vec_of(1..5, |s| arb_frame(s));
        let mut wire = Vec::new();
        for (from, channel, payload) in &frames {
            let f = encode_pooled(&pool, *from, *channel, payload)
                .map_err(|e| PropError::new(e.to_string()))?;
            wire.extend_from_slice(&f);
        }

        let mut reader = FrameReader::new();
        let got = feed_chunked(&mut reader, &pool, &wire, src)?;
        tk_assert!(!reader.has_partial(), "stream fully consumed, nothing pending");
        tk_assert_eq!(got.len(), frames.len(), "every frame must come back");
        for ((gf, gc, gp), (ef, ec, ep)) in got.iter().zip(&frames) {
            tk_assert_eq!(gf, ef, "from survives reassembly");
            tk_assert_eq!(gc, ec, "channel survives reassembly");
            tk_assert_eq!(gp, ep, "payload survives reassembly");
        }
        Ok(())
    });
}

#[test]
fn socketpair_roundtrips_with_partial_writes() {
    check(&cfg(), |src| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut tx = TcpStream::connect(addr).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        let mut rx = rx;

        let pool = FramePool::new();
        let frames: Vec<(u32, u32, Vec<u8>)> = src.vec_of(1..4, |s| arb_frame(s));

        // Half the cases use the blocking writer; the other half hand-feed
        // the encoded bytes in odd-sized bursts so the reader must reassemble
        // genuinely partial TCP segments.
        if src.bool_any() {
            for (from, channel, payload) in &frames {
                write_frame(&mut tx, &pool, *from, *channel, payload)
                    .map_err(|e| PropError::new(e.to_string()))?;
            }
        } else {
            let mut wire = Vec::new();
            for (from, channel, payload) in &frames {
                let f = encode_pooled(&pool, *from, *channel, payload)
                    .map_err(|e| PropError::new(e.to_string()))?;
                wire.extend_from_slice(&f);
            }
            let mut off = 0;
            while off < wire.len() {
                let step = src.usize_in(1..97).min(wire.len() - off);
                tx.write_all(&wire[off..off + step]).expect("burst write");
                tx.flush().expect("flush");
                off += step;
            }
        }

        for (from, channel, payload) in &frames {
            let got = read_frame(&mut rx, &pool).map_err(|e| PropError::new(e.to_string()))?;
            tk_assert_eq!(&got.from, from, "from survives the socket");
            tk_assert_eq!(&got.channel, channel, "channel survives the socket");
            tk_assert_eq!(&got.payload.to_vec(), payload, "payload survives the socket");
        }
        Ok(())
    });
}

#[test]
fn truncated_frames_wait_for_more_bytes() {
    check(&cfg(), |src| {
        let pool = FramePool::new();
        let (from, channel, payload) = arb_frame(src);
        let full = encode_pooled(&pool, from, channel, &payload)
            .map_err(|e| PropError::new(e.to_string()))?;
        let cut = src.usize_in(0..full.len() as usize);

        let mut reader = FrameReader::new();
        reader.extend(&full[..cut]);
        let early = reader
            .next_frame(&pool)
            .map_err(|e| PropError::new(format!("truncation must not error: {e}")))?;
        tk_assert!(early.is_none(), "no frame may decode from a strict prefix");
        tk_assert_eq!(reader.has_partial(), cut > 0, "prefix bytes stay buffered");

        // Delivering the remainder completes the frame intact.
        reader.extend(&full[cut..]);
        let f = reader
            .next_frame(&pool)
            .map_err(|e| PropError::new(e.to_string()))?
            .ok_or_else(|| PropError::new("completed frame must decode"))?;
        tk_assert_eq!(f.from, from, "from intact after reassembly");
        tk_assert_eq!(f.payload.to_vec(), payload, "payload intact after reassembly");
        Ok(())
    });
}

#[test]
fn corrupted_frames_fail_typed_never_silently() {
    check(&cfg(), |src| {
        let pool = FramePool::new();
        let (from, channel, payload) = arb_frame(src);
        let full = encode_pooled(&pool, from, channel, &payload)
            .map_err(|e| PropError::new(e.to_string()))?;

        let mut bytes = full.to_vec();
        let victim = src.usize_in(0..bytes.len() as usize);
        let mut flip = src.u8_any();
        if flip == 0 {
            flip = 0xFF; // XOR with 0 would leave the frame valid
        }
        bytes[victim] ^= flip;

        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        match reader.next_frame(&pool) {
            // The common outcome: magic, checksum, or structure check fires.
            Err(NetError::Codec(_)) => {}
            // A flip inside the length field can only make the frame claim to
            // be longer than what arrived — that legitimately reads as "still
            // incomplete". (Shorter claims misalign the magic of the byte
            // stream's next scan and fail as Codec above.)
            Ok(None) if (4..8).contains(&victim) => {}
            Err(e) => {
                return Err(PropError::new(format!(
                    "corruption must surface as NetError::Codec, got {e:?}"
                )));
            }
            Ok(f) => {
                return Err(PropError::new(format!(
                    "corrupted byte {victim} decoded as {:?}",
                    f.map(|d| (d.from, d.channel, d.payload.len()))
                )));
            }
        }
        Ok(())
    });
}

#[test]
fn header_constants_match_design_doc() {
    // §5g pins these; the byte-exact example frame is checked in the unit
    // tests of `sparker_net::tcp::frame`.
    assert_eq!(MAGIC.to_le_bytes(), *b"TKPS"); // "SPKT" read back little-endian
    assert_eq!(HEADER_LEN, 24);
}

#[test]
fn heartbeat_beats_roundtrip_any_seq_stamp() {
    check(&cfg(), |src| {
        let (seq, stamp) = (src.u64_any(), src.u64_any());
        let beat =
            if src.bool_any() { Beat::Ping { seq, stamp } } else { Beat::Pong { seq, stamp } };
        let wire = beat.encode();
        tk_assert_eq!(wire.len(), BEAT_LEN, "beats are fixed-size");
        let back = Beat::decode(&wire).map_err(|e| PropError::new(e.to_string()))?;
        tk_assert_eq!(back, beat, "beat survives encode/decode");
        Ok(())
    });
}

#[test]
fn malformed_beats_fail_typed() {
    check(&cfg(), |src| {
        let beat = Beat::Ping { seq: src.u64_any(), stamp: src.u64_any() };
        let wire = beat.encode();

        // Any length other than BEAT_LEN is a typed codec error: truncations
        // and over-long payloads alike.
        let cut = src.usize_in(0..BEAT_LEN as usize);
        tk_assert!(
            matches!(Beat::decode(&wire[..cut]), Err(NetError::Codec(_))),
            "truncated beat must fail typed"
        );
        let mut long = wire.to_vec();
        long.extend_from_slice(&[0; 3]);
        tk_assert!(
            matches!(Beat::decode(&long), Err(NetError::Codec(_))),
            "over-long beat must fail typed"
        );

        // An unknown tag byte is rejected; the seq/stamp bytes are opaque
        // u64s, so only the tag can make a right-sized beat malformed.
        let mut bad = wire;
        bad[0] = src.u8_any();
        match Beat::decode(&bad) {
            Ok(got) => tk_assert!(
                matches!(got, Beat::Ping { .. } | Beat::Pong { .. }) && bad[0] <= 2,
                "only the two real tags may decode"
            ),
            Err(NetError::Codec(_)) => {}
            Err(e) => {
                return Err(PropError::new(format!("bad tag must be Codec, got {e:?}")));
            }
        }
        Ok(())
    });
}

#[test]
fn reserved_channels_never_collide_with_data_channels() {
    // The control plane and the heartbeat plane each own a reserved channel
    // id at the top of the u32 space; they must stay distinct from each
    // other...
    assert_ne!(CONTROL_CHANNEL, HEARTBEAT_CHANNEL);
    assert_eq!(CONTROL_CHANNEL, u32::MAX);
    assert_eq!(HEARTBEAT_CHANNEL, u32::MAX - 1);

    // ...and unreachable from user code: a transport rejects sends and
    // receives on any channel at or beyond its configured width, so no data
    // frame can ever be addressed to a reserved id.
    let (a, b) = TcpTransport::pair_loopback(2).unwrap();
    for reserved in [CONTROL_CHANNEL as usize, HEARTBEAT_CHANNEL as usize] {
        let sent = a.send(ExecutorId(0), ExecutorId(1), reserved, ByteBuf::from_static(b"x"));
        assert!(
            matches!(sent, Err(NetError::InvalidAddress(_))),
            "send on reserved channel {reserved} must be rejected, got {sent:?}"
        );
        let got = b.recv_timeout(
            ExecutorId(1),
            ExecutorId(0),
            reserved,
            std::time::Duration::from_millis(50),
        );
        assert!(
            matches!(got, Err(NetError::InvalidAddress(_))),
            "recv on reserved channel {reserved} must be rejected, got {got:?}"
        );
    }
}

/// Header fields and payload share one digest, so damage to one must not
/// cancel damage to the other: the same mask on any byte of `from`/`channel`
/// (`op`/`attempt` for epoch frames) and on any of the payload's first 16
/// bytes is still a typed error, for payloads that are all tail, one block
/// and many blocks.
#[test]
fn same_mask_on_a_header_field_and_the_payload_is_detected() {
    check(&cfg(), |src| {
        let pool = FramePool::new();
        let len = [4usize, 40, 1000][src.usize_in(0..3)];
        let payload = src.vec_of(len..len + 1, |s| s.u8_any());
        let mask = src.u8_any() | 1 << src.usize_in(0..8);
        let tcp = encode_pooled(&pool, src.u32_any(), src.u32_any(), &payload)
            .map_err(|e| PropError::new(e.to_string()))?;
        let fenced = epoch::wrap(src.u64_any(), src.u32_any(), &ByteBuf::from(payload));
        for p in 0..len.min(16) {
            for seed in 16..HEADER_LEN {
                let mut bad = tcp.to_vec();
                bad[seed] ^= mask;
                bad[HEADER_LEN + p] ^= mask;
                let mut reader = FrameReader::new();
                reader.extend(&bad);
                tk_assert!(
                    matches!(reader.next_frame(&pool), Err(NetError::Codec(_))),
                    "tcp frame: mask {mask:#04x} on header byte {seed} and payload byte {p}"
                );
            }
            // magic 0..4 | checksum 4..12 | op 12..20 | attempt 20..24 | length 24..32
            for seed in 12..24 {
                let mut bad = fenced.to_vec();
                bad[seed] ^= mask;
                bad[32 + p] ^= mask;
                tk_assert!(
                    matches!(epoch::unwrap(ByteBuf::from(bad)), Err(NetError::Codec(_))),
                    "epoch frame: mask {mask:#04x} on header byte {seed} and payload byte {p}"
                );
            }
        }
        Ok(())
    });
}

/// The bandwidth workloads' frame shape: one 512 KiB ring segment plus a few
/// bytes of codec header, so the checksum's block loop, its byte-wise tail
/// and the chunked copy all run.
const SEGMENT: usize = (512 << 10) + 5;

fn segment_payload(src: &mut Source) -> Vec<u8> {
    let salt = src.u8_any();
    (0..SEGMENT).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
}

/// In-flight damage to a frame whose checksum and seed fields occupy
/// `fields` and whose `SEGMENT`-byte payload starts at `payload_at`, as
/// `(wire offset, XOR mask)` pairs. Kinds 0–2 flip one payload bit (first
/// lane word, anywhere, byte-wise tail), kind 3 one bit of a header field,
/// kind 4 puts the same mask on a seed byte and on a byte of the payload's
/// first two words, which a checksum that merely XORs its seeds in would miss.
const DAMAGE_KINDS: usize = 5;

fn arb_damage(
    src: &mut Source,
    kind: usize,
    fields: std::ops::Range<usize>,
    payload_at: usize,
) -> Vec<(usize, u8)> {
    let bit = 1u8 << src.usize_in(0..8);
    match kind {
        0 => vec![(payload_at + src.usize_in(0..8), bit)],
        1 => vec![(payload_at + src.usize_in(0..SEGMENT), bit)],
        2 => vec![(payload_at + SEGMENT - 1 - src.usize_in(0..SEGMENT % 32), bit)],
        3 => vec![(src.usize_in(fields), bit)],
        _ => {
            let mask = src.u8_any() | bit;
            let seeds = fields.start + 8..fields.end;
            vec![(src.usize_in(seeds), mask), (payload_at + src.usize_in(0..16), mask)]
        }
    }
}

#[test]
fn segment_sized_frames_cross_a_socket_bit_exact_or_fail_typed() {
    let wait = std::time::Duration::from_secs(20);
    check(&Config::with_cases(3), |src| {
        let payload = segment_payload(src);

        let (a, b) = TcpTransport::pair_loopback(1).expect("loopback pair");
        a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from(payload.clone()))
            .map_err(|e| PropError::new(e.to_string()))?;
        let got = b
            .recv_timeout(ExecutorId(1), ExecutorId(0), 0, wait)
            .map_err(|e| PropError::new(format!("clean segment: {e}")))?;
        tk_assert!(got[..] == payload[..], "clean segment must arrive bit-exact");

        // Damaged in flight: rank 0 is a raw socket that writes the damaged
        // wire bytes to a real receiving transport.
        let clean = encode_pooled(&FramePool::new(), 0, 0, &payload).expect("encode");
        for kind in 0..DAMAGE_KINDS {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut raw =
                TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            let rx = TcpTransport::new(1, 2, 1, vec![(0, accepted)]).expect("receiver");
            let mut wire = clean.to_vec();
            let damage = arb_damage(src, kind, 8..HEADER_LEN, HEADER_LEN);
            for &(at, mask) in &damage {
                wire[at] ^= mask;
            }
            raw.write_all(&wire).expect("write damaged frame");
            let got = rx.recv_timeout(ExecutorId(1), ExecutorId(0), 0, wait);
            tk_assert!(
                matches!(got, Err(NetError::Codec(_))),
                "damage {damage:?} must be a codec error, got {:?}",
                got.map(|p| p.len())
            );
        }
        Ok(())
    });
}

#[test]
fn segment_sized_epoch_frames_roundtrip_or_fail_typed() {
    check(&Config::with_cases(6), |src| {
        let payload = ByteBuf::from(segment_payload(src));
        let frame = epoch::wrap(7, 3, &payload);
        let (op, attempt, body) =
            epoch::unwrap(frame.clone()).map_err(|e| PropError::new(e.to_string()))?;
        tk_assert_eq!((op, attempt), (7, 3), "epoch survives");
        tk_assert!(body[..] == payload[..], "clean segment must unwrap bit-exact");

        // magic u32 | checksum u64 | op u64 | attempt u32 | length u64 | payload
        let payload_at = frame.len() - SEGMENT;
        for kind in 0..DAMAGE_KINDS {
            let mut bytes = frame.to_vec();
            let damage = arb_damage(src, kind, 4..24, payload_at);
            for &(at, mask) in &damage {
                bytes[at] ^= mask;
            }
            let got = epoch::unwrap(ByteBuf::from(bytes));
            tk_assert!(
                matches!(got, Err(NetError::Codec(_))),
                "damage {damage:?} must be a codec error"
            );
        }
        Ok(())
    });
}
