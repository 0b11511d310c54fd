//! Steady-state TCP send/recv allocates no frames: after warm-up, every
//! buffer a round trip needs (the caller's payload, the sender's wire frame,
//! the receiver's payload) comes back out of the global [`FramePool`].
//!
//! The pool's miss counter is process-wide, so this is the only test in its
//! binary: no other test's acquires can land in the measured window.

use std::time::{Duration, Instant};

use sparker_net::pool;
use sparker_net::tcp::frame::HEADER_LEN;
use sparker_net::tcp::{TcpConfig, TcpTransport};
use sparker_net::transport::Transport;
use sparker_net::{ByteBuf, ExecutorId};

#[test]
fn steady_state_tcp_roundtrips_allocate_no_frames() {
    // Heartbeats draw from the same pool on their own clock; none is due
    // within this test.
    let mut cfg = TcpConfig::default();
    cfg.health.interval = Duration::from_secs(600);
    cfg.health.suspicion = Duration::from_secs(6000);
    let (a, b) = TcpTransport::pair_loopback_with(1, cfg).unwrap();
    let payload = vec![7u8; 4096];
    let pool = pool::global();
    // The sender's IO thread recycles a wire frame only after its write
    // returns. That can be after the receiver has the payload and the next
    // send has begun, but never two sends later, so steady state keeps two
    // wire frames in circulation. Put both there now rather than rely on the
    // race having happened during warm-up.
    let wire_len = HEADER_LEN + payload.len();
    for spare in [pool.acquire(wire_len), pool.acquire(wire_len)] {
        pool.recycle_vec(spare);
    }
    let roundtrip = |i: u32| {
        let mut buf = pool.acquire(payload.len());
        buf.extend_from_slice(&payload);
        a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from(buf)).unwrap();
        let got = b
            .recv_timeout(ExecutorId(1), ExecutorId(0), 0, Duration::from_secs(10))
            .unwrap();
        assert_eq!(got.len(), payload.len(), "iteration {i}");
        pool.recycle_frame(got);
    };
    for i in 0..50 {
        roundtrip(i);
    }
    let before = pool.stats();
    for i in 0..200 {
        roundtrip(i);
    }
    let after = pool.stats();
    assert_eq!(
        after.misses, before.misses,
        "steady-state TCP send/recv must not allocate frames"
    );
    // Nor may it leak one: every buffer checked out comes back.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.pressure_permille() != 0 {
        assert!(Instant::now() < deadline, "a pooled buffer was never recycled");
        std::thread::yield_now();
    }
}
