//! Rendezvous: rank assignment, mesh establishment, and re-admission for
//! TCP clusters.
//!
//! A Sparker cluster over real sockets needs three things before the first
//! collective can run: every executor needs a **rank**, every executor needs
//! every peer's **listen address**, and the full **mesh** of peer sockets
//! must be dialed. This module implements the handshake, specified
//! normatively in DESIGN.md §5g/§5h:
//!
//! 1. The driver binds a listener ([`Coordinator::bind`]) and its address is
//!    handed to each executor process (command line, in our launcher).
//! 2. Each executor binds its *own* listener first, then connects to the
//!    driver and sends `HELLO(listen_addr)` ([`join`]).
//! 3. When `n` executors have said hello, the driver assigns ranks in
//!    arrival order and answers each with
//!    `WELCOME(rank, n, channels, addrs[0..n])` ([`Coordinator::wait_for`]).
//! 4. Each executor keeps the driver socket as its blocking **control
//!    plane** ([`ControlConn`]) and builds the **data plane**: rank `i`
//!    dials every rank `j < i` (sending a `PEER(i)` preamble so the acceptor
//!    knows who arrived) and accepts from every rank `j > i` — one socket
//!    per unordered pair, no dial/accept races. Because every listener is
//!    bound before any `HELLO` is sent, all dials land in a bound listener's
//!    backlog and nothing deadlocks.
//!
//! The executor's listener is *kept* after the mesh is up: it moves into the
//! transport's [`super::ReconnectCtx`] so severed links can heal by re-dial
//! (DESIGN.md §5h).
//!
//! # Re-admission
//!
//! A replacement executor for a dead rank says `HELLO` like any newcomer;
//! the driver notices it between jobs ([`Coordinator::poll_hello`]) and
//! answers `REJOIN(rank, n, channels, addrs, live)` instead of a `WELCOME`
//! ([`Coordinator::readmit`]). The rejoiner dials only the *live* lower
//! ranks; live higher ranks are told by the driver (an `Admit` control
//! message, one layer up in `engine::multiproc`) to dial the rejoiner's
//! fresh listener, whose address rode in the `HELLO`. Links to still-dead
//! ranks simply stay down. The rejoined executor participates from the next
//! membership view the driver publishes.
//!
//! All control traffic uses the same wire frames as the data plane
//! ([`frame`]) on the reserved [`frame::CONTROL_CHANNEL`], so one codec (and
//! one property suite) covers the whole socket surface.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bytebuf::ByteBuf;
use crate::codec::{Decoder, Encoder};
use crate::error::{NetError, NetResult};
use crate::pool;

use super::frame::{self, io_to_net, CONTROL_CHANNEL, UNRANKED};
use super::{ReconnectCtx, TcpConfig, TcpTransport};

/// Control-payload tag: executor → driver, "my listener is at `addr`".
const TAG_HELLO: u8 = 1;
/// Control-payload tag: driver → executor, rank/mesh assignment.
const TAG_WELCOME: u8 = 2;
/// Control-payload tag: mesh-dial preamble identifying the dialing rank.
const TAG_PEER: u8 = 3;
/// Control-payload tag: driver → executor, re-admission to a vacated rank.
const TAG_REJOIN: u8 = 4;

/// Floor of a blocking read's timeout during rendezvous, so a deadline that
/// has just passed still gives an in-flight frame a moment to land.
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(5);

/// First and longest sleep between two attempts of [`poll_until`]: a peer
/// that arrives is seen within `MAX_BACKOFF`, and an idle wait wakes at
/// most about `1 / MAX_BACKOFF` times a second.
const FIRST_BACKOFF: Duration = Duration::from_micros(100);
const MAX_BACKOFF: Duration = Duration::from_millis(1);

/// The read timeout of a blocking rendezvous read that must end by
/// `deadline`.
fn read_timeout(deadline: Instant) -> Option<Duration> {
    Some(deadline.saturating_duration_since(Instant::now()).max(MIN_READ_TIMEOUT))
}

fn timeout_err(what: &str) -> NetError {
    NetError::Io(format!("rendezvous timed out waiting for {what}"))
}

/// Repeats the non-blocking `attempt` until it yields a value, sleeping
/// between attempts from [`FIRST_BACKOFF`] doubling up to [`MAX_BACKOFF`].
/// `Ok(None)` once an attempt fails after `deadline`; an error from
/// `attempt` ends the wait at once.
fn poll_until<T>(
    deadline: Instant,
    mut attempt: impl FnMut() -> NetResult<Option<T>>,
) -> NetResult<Option<T>> {
    let mut backoff = FIRST_BACKOFF;
    loop {
        if let Some(got) = attempt()? {
            return Ok(Some(got));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(MAX_BACKOFF);
    }
}

/// One non-blocking `accept`: `Ok(None)` when no dial is pending.
fn try_accept(listener: &TcpListener) -> NetResult<Option<TcpStream>> {
    match listener.accept() {
        Ok((stream, _)) => Ok(Some(stream)),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(io_to_net(e)),
    }
}

/// Encodes the `PEER(rank)` mesh-dial preamble. Shared with the transport's
/// reconnect dials and the engine's re-admission (`Admit`) dials, which must
/// identify themselves the same way.
pub fn peer_preamble(rank: u32) -> ByteBuf {
    let mut enc = Encoder::new();
    enc.put_u8(TAG_PEER);
    enc.put_u32(rank);
    enc.finish()
}

/// Parses a `PEER(rank)` preamble payload; anything else is a typed
/// [`NetError::Codec`].
pub(crate) fn parse_peer_preamble(payload: &ByteBuf) -> NetResult<u32> {
    let mut dec = Decoder::new(payload.clone());
    let tag = dec.get_u8()?;
    if tag != TAG_PEER {
        return Err(NetError::Codec(format!("expected PEER tag, got {tag}")));
    }
    dec.get_u32()
}

/// A blocking, framed control connection between the driver and one
/// executor. Lives beside the data-plane [`TcpTransport`]: job dispatch and
/// result collection run here, collective traffic runs there.
#[derive(Debug)]
pub struct ControlConn {
    stream: TcpStream,
    /// The rank on the *other* end ([`UNRANKED`] for the driver itself).
    pub peer: u32,
}

impl ControlConn {
    /// Sends one control payload.
    pub fn send(&mut self, payload: &[u8]) -> NetResult<()> {
        frame::write_frame(&mut self.stream, pool::global(), UNRANKED, CONTROL_CHANNEL, payload)
    }

    /// Receives one control payload, waiting at most `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> NetResult<ByteBuf> {
        self.stream.set_read_timeout(Some(timeout)).map_err(io_to_net)?;
        let decoded = frame::read_frame(&mut self.stream, pool::global())?;
        Ok(decoded.payload)
    }
}

/// Driver side: accepts executor hellos, assigns ranks, and re-admits
/// replacements for dead ranks.
pub struct Coordinator {
    listener: TcpListener,
    /// Mesh parameters, recorded by [`Self::wait_for`] for later
    /// re-admissions.
    n: usize,
    channels: usize,
    /// Listen addresses by rank, updated when a rank is re-admitted at a new
    /// address.
    addrs: Vec<String>,
}

impl Coordinator {
    /// Binds the rendezvous listener on `addr` (use `127.0.0.1:0` for an
    /// ephemeral loopback port).
    pub fn bind(addr: &str) -> NetResult<Self> {
        let listener = TcpListener::bind(addr).map_err(io_to_net)?;
        Ok(Self { listener, n: 0, channels: 0, addrs: Vec::new() })
    }

    /// The address executors must be pointed at.
    pub fn local_addr(&self) -> NetResult<SocketAddr> {
        self.listener.local_addr().map_err(io_to_net)
    }

    /// The recorded listen address of `rank`, if the mesh is formed.
    pub fn addr_of(&self, rank: usize) -> Option<&str> {
        self.addrs.get(rank).map(String::as_str)
    }

    /// Waits until `n` executors have said hello, assigns ranks 0..n in
    /// arrival order, sends each its welcome, and returns the control
    /// connections indexed by rank. Records the mesh parameters for later
    /// [`Self::readmit`] calls.
    pub fn wait_for(
        &mut self,
        n: usize,
        channels: usize,
        timeout: Duration,
    ) -> NetResult<Vec<ControlConn>> {
        let deadline = Instant::now() + timeout;
        self.listener.set_nonblocking(true).map_err(io_to_net)?;
        let mut joined: Vec<(TcpStream, String)> = Vec::with_capacity(n);
        while joined.len() < n {
            let Some(stream) = poll_until(deadline, || try_accept(&self.listener))? else {
                return Err(timeout_err(&format!("executors ({}/{n} joined)", joined.len())));
            };
            joined.push(read_hello(stream, deadline)?);
        }
        let addrs: Vec<String> = joined.iter().map(|(_, a)| a.clone()).collect();
        let mut conns = Vec::with_capacity(n);
        for (rank, (mut stream, _)) in joined.into_iter().enumerate() {
            let mut enc = Encoder::new();
            enc.put_u8(TAG_WELCOME);
            enc.put_u32(rank as u32);
            enc.put_usize(n);
            enc.put_usize(channels);
            enc.put_usize(addrs.len());
            for a in &addrs {
                enc.put_str(a);
            }
            let payload = enc.finish();
            frame::write_frame(&mut stream, pool::global(), UNRANKED, CONTROL_CHANNEL, &payload)?;
            conns.push(ControlConn { stream, peer: rank as u32 });
        }
        self.n = n;
        self.channels = channels;
        self.addrs = addrs;
        Ok(conns)
    }

    /// Non-blocking check for a newcomer `HELLO` — a replacement executor
    /// asking to be re-admitted. Returns its (blocking) socket and listen
    /// address; the caller decides which dead rank it fills and completes
    /// the handshake with [`Self::readmit`].
    pub fn poll_hello(&mut self) -> NetResult<Option<(TcpStream, String)>> {
        self.listener.set_nonblocking(true).map_err(io_to_net)?;
        try_accept(&self.listener)?
            .map(|stream| read_hello(stream, Instant::now() + Duration::from_secs(5)))
            .transpose()
    }

    /// Completes a re-admission: assigns the newcomer (from
    /// [`Self::poll_hello`]) the vacated `rank`, records its fresh listen
    /// address, and sends `REJOIN(rank, n, channels, addrs, live)`. `live`
    /// lists the ranks currently alive (excluding `rank` itself); the
    /// rejoiner dials the live lower ranks, and the caller must tell live
    /// higher ranks to dial the rejoiner (the `Admit` step, one layer up).
    pub fn readmit(
        &mut self,
        mut stream: TcpStream,
        addr: String,
        rank: usize,
        live: &[usize],
    ) -> NetResult<ControlConn> {
        if self.n == 0 {
            return Err(NetError::InvalidAddress(
                "readmit before the initial mesh was formed".into(),
            ));
        }
        if rank >= self.n {
            return Err(NetError::InvalidAddress(format!(
                "readmit rank {rank} outside mesh of {}",
                self.n
            )));
        }
        self.addrs[rank] = addr;
        let mut enc = Encoder::new();
        enc.put_u8(TAG_REJOIN);
        enc.put_u32(rank as u32);
        enc.put_usize(self.n);
        enc.put_usize(self.channels);
        enc.put_usize(self.addrs.len());
        for a in &self.addrs {
            enc.put_str(a);
        }
        let live32: Vec<u32> = live.iter().map(|&r| r as u32).collect();
        enc.put_u32_slice(&live32);
        let payload = enc.finish();
        frame::write_frame(&mut stream, pool::global(), UNRANKED, CONTROL_CHANNEL, &payload)?;
        Ok(ControlConn { stream, peer: rank as u32 })
    }
}

/// Reads the `HELLO` off a freshly-accepted rendezvous socket.
fn read_hello(stream: TcpStream, deadline: Instant) -> NetResult<(TcpStream, String)> {
    stream.set_nonblocking(false).map_err(io_to_net)?;
    stream.set_nodelay(true).map_err(io_to_net)?;
    let mut stream = stream;
    stream.set_read_timeout(read_timeout(deadline)).map_err(io_to_net)?;
    let hello = frame::read_frame(&mut stream, pool::global())?;
    let mut dec = Decoder::new(hello.payload);
    let tag = dec.get_u8()?;
    if tag != TAG_HELLO {
        return Err(NetError::Codec(format!("expected HELLO tag, got {tag}")));
    }
    let addr = dec.get_string()?;
    Ok((stream, addr))
}

/// An executor's fully-established cluster membership.
pub struct Joined {
    /// This executor's rank.
    pub rank: usize,
    /// Total executors in the mesh.
    pub n: usize,
    /// Parallel channels per directed pair.
    pub channels: usize,
    /// The data-plane transport over the peer mesh (reconnection armed).
    pub transport: Arc<TcpTransport>,
    /// The blocking control connection to the driver.
    pub control: ControlConn,
    /// The transport tunables this executor runs with.
    pub cfg: TcpConfig,
    /// Whether this membership came from a `REJOIN` (partial mesh; links to
    /// live higher ranks arrive via the driver's `Admit` step).
    pub rejoined: bool,
}

/// [`join_with`] using default [`TcpConfig`] tunables.
pub fn join(driver_addr: &str, timeout: Duration) -> NetResult<Joined> {
    join_with(driver_addr, timeout, TcpConfig::default())
}

/// Executor side: joins the cluster at `driver_addr` and establishes the
/// peer mesh — the full mesh on a `WELCOME`, the live-lower-ranks partial
/// mesh on a `REJOIN`. Blocks until the mesh is up or `timeout` expires.
/// The listener bound here is kept inside the transport for reconnection
/// and re-admission dials.
pub fn join_with(driver_addr: &str, timeout: Duration, cfg: TcpConfig) -> NetResult<Joined> {
    let deadline = Instant::now() + timeout;

    // Bind our own listener *before* hello: every peer that learns our
    // address from the welcome can then dial it without racing us.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_to_net)?;
    let my_addr = listener.local_addr().map_err(io_to_net)?.to_string();

    // Connect to the driver, retrying while it may still be binding.
    let mut driver = connect_retry(driver_addr, deadline)?;
    driver.set_nodelay(true).map_err(io_to_net)?;

    let mut enc = Encoder::new();
    enc.put_u8(TAG_HELLO);
    enc.put_str(&my_addr);
    let hello = enc.finish();
    frame::write_frame(&mut driver, pool::global(), UNRANKED, CONTROL_CHANNEL, &hello)?;

    driver.set_read_timeout(read_timeout(deadline)).map_err(io_to_net)?;
    let reply = frame::read_frame(&mut driver, pool::global())?;
    let mut dec = Decoder::new(reply.payload);
    let tag = dec.get_u8()?;
    if tag != TAG_WELCOME && tag != TAG_REJOIN {
        return Err(NetError::Codec(format!("expected WELCOME or REJOIN tag, got {tag}")));
    }
    let rejoined = tag == TAG_REJOIN;
    let rank = dec.get_u32()? as usize;
    let n = dec.get_usize()?;
    let channels = dec.get_usize()?;
    let count = dec.get_usize()?;
    if count != n {
        return Err(NetError::Codec(format!("welcome lists {count} addrs for n={n}")));
    }
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        addrs.push(dec.get_string()?);
    }
    // Which lower ranks to dial: all of them on a fresh mesh, only the live
    // ones on a rejoin (links to dead ranks stay down until re-admission).
    let dial_lower: Vec<usize> = if rejoined {
        let live = dec.get_u32_vec()?;
        live.iter().map(|&r| r as usize).filter(|&j| j < rank).collect()
    } else {
        (0..rank).collect()
    };

    // Data-plane mesh: dial the lower ranks (with a PEER preamble); on a
    // fresh mesh also accept the higher ones here. One socket per unordered
    // pair. On a rejoin the live higher ranks dial our kept listener later,
    // once the driver's Admit reaches them.
    let mut conns: Vec<(usize, TcpStream)> = Vec::with_capacity(n.saturating_sub(1));
    for &j in &dial_lower {
        let mut stream = connect_retry(&addrs[j], deadline)?;
        stream.set_nodelay(true).map_err(io_to_net)?;
        let preamble = peer_preamble(rank as u32);
        frame::write_frame(&mut stream, pool::global(), rank as u32, CONTROL_CHANNEL, &preamble)?;
        conns.push((j, stream));
    }
    if !rejoined {
        listener.set_nonblocking(true).map_err(io_to_net)?;
        while conns.len() < n - 1 {
            let Some(mut stream) = poll_until(deadline, || try_accept(&listener))? else {
                return Err(timeout_err(&format!(
                    "peer dials ({}/{} connected)",
                    conns.len(),
                    n - 1
                )));
            };
            stream.set_nonblocking(false).map_err(io_to_net)?;
            stream.set_read_timeout(read_timeout(deadline)).map_err(io_to_net)?;
            let preamble = frame::read_frame(&mut stream, pool::global())?;
            let j = parse_peer_preamble(&preamble.payload)? as usize;
            if j <= rank || j >= n {
                return Err(NetError::Codec(format!(
                    "peer preamble claims rank {j}, acceptor is rank {rank} of {n}"
                )));
            }
            stream.set_read_timeout(None).map_err(io_to_net)?;
            conns.push((j, stream));
        }
    }

    let recon = ReconnectCtx { listener, peer_addrs: addrs };
    let transport = TcpTransport::new_with(rank, n, channels, conns, cfg, Some(recon))?;
    Ok(Joined {
        rank,
        n,
        channels,
        transport,
        control: ControlConn { stream: driver, peer: UNRANKED },
        cfg,
        rejoined,
    })
}

fn connect_retry(addr: &str, deadline: Instant) -> NetResult<TcpStream> {
    let mut last_err = None;
    let got = poll_until(deadline, || match TcpStream::connect(addr) {
        Ok(s) => Ok(Some(s)),
        Err(e) => {
            last_err = Some(e);
            Ok(None)
        }
    })?;
    got.ok_or_else(|| {
        let e = last_err.expect("a failed connect precedes the timeout");
        NetError::Io(format!("connecting to {addr}: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ExecutorId;
    use crate::transport::Transport;

    /// Full three-party rendezvous inside one process: a driver thread and
    /// three "executor" threads that each join, then exchange one message
    /// around the ring.
    #[test]
    fn three_way_rendezvous_builds_a_working_mesh() {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let n = 3;
        let mut joiners = Vec::new();
        for _ in 0..n {
            let addr = addr.clone();
            joiners.push(std::thread::spawn(move || {
                let mut joined = join(&addr, Duration::from_secs(10)).unwrap();
                let (rank, size) = (joined.rank, joined.n);
                assert_eq!(size, 3);
                assert!(!joined.rejoined);
                // Ring exchange: send to (rank+1) % n, receive from prev.
                let next = ExecutorId(((rank + 1) % size) as u32);
                let prev = ((rank + size - 1) % size) as u32;
                joined
                    .transport
                    .send(ExecutorId(rank as u32), next, 0, ByteBuf::from(vec![rank as u8; 64]))
                    .unwrap();
                let got = joined
                    .transport
                    .recv_timeout(ExecutorId(rank as u32), ExecutorId(prev), 0, Duration::from_secs(10))
                    .unwrap();
                assert_eq!(got.len(), 64);
                assert!(got.iter().all(|&b| b == prev as u8));
                // Control plane: echo rank to the driver.
                let mut enc = Encoder::new();
                enc.put_u32(rank as u32);
                joined.control.send(&enc.finish()).unwrap();
                rank
            }));
        }
        let mut controls = coordinator.wait_for(n, 2, Duration::from_secs(10)).unwrap();
        assert_eq!(controls.len(), n);
        for (rank, c) in controls.iter_mut().enumerate() {
            let msg = c.recv(Duration::from_secs(10)).unwrap();
            let mut dec = Decoder::new(msg);
            assert_eq!(dec.get_u32().unwrap(), rank as u32);
        }
        let mut ranks: Vec<usize> = joiners.into_iter().map(|j| j.join().unwrap()).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2]);
    }

    #[test]
    fn wait_for_times_out_without_executors() {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let err = coordinator.wait_for(2, 1, Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "{err:?}");
    }

    #[test]
    fn poll_until_backs_off_to_a_bounded_wake_rate() {
        let mut attempts = 0u32;
        let wait = Duration::from_millis(50);
        let got: Option<()> = poll_until(Instant::now() + wait, || {
            attempts += 1;
            Ok(None)
        })
        .unwrap();
        assert!(got.is_none());
        // Sleeps of 0.1, 0.2, 0.4, 0.8 ms, then 1 ms each: at most about
        // one attempt per millisecond of the wait, plus the ramp.
        assert!((2..=55).contains(&attempts), "{attempts} attempts in {wait:?}");
    }

    #[test]
    fn poll_until_returns_the_value_or_the_error_at_once() {
        let mut attempts = 0;
        let far = Instant::now() + Duration::from_secs(60);
        let got = poll_until(far, || {
            attempts += 1;
            Ok((attempts == 3).then_some(7))
        });
        assert_eq!(got.unwrap(), Some(7));
        let err = poll_until::<()>(far, || Err(NetError::Io("boom".into()))).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "{err:?}");
    }

    #[test]
    fn poll_hello_is_a_single_non_blocking_attempt() {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let t0 = Instant::now();
        assert!(coordinator.poll_hello().unwrap().is_none());
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn readmit_before_mesh_is_typed_error() {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        // A dummy socket to hand in: dial our own listener.
        let addr = coordinator.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let err = coordinator
            .readmit(stream, "127.0.0.1:1".into(), 0, &[])
            .unwrap_err();
        assert!(matches!(err, NetError::InvalidAddress(_)), "{err:?}");
    }

    /// Peer preamble helpers round-trip and reject garbage.
    #[test]
    fn peer_preamble_roundtrip() {
        let p = peer_preamble(7);
        assert_eq!(parse_peer_preamble(&p).unwrap(), 7);
        let mut enc = Encoder::new();
        enc.put_u8(TAG_HELLO);
        enc.put_u32(7);
        let bad = enc.finish();
        assert!(matches!(parse_peer_preamble(&bad), Err(NetError::Codec(_))));
    }
}
