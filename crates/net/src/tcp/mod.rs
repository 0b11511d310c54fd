//! Real multi-process transport: non-blocking TCP sockets under the same
//! [`Transport`] trait the in-process mesh implements.
//!
//! The paper's core systems argument (§4) is that reduction needs a
//! purpose-built communicator — its JeroMQ layer cuts small-message latency
//! from the BlockManager's 3861 µs to 73 µs. This module is that layer for
//! the reproduction: executors become OS processes, links become loopback
//! (or LAN) TCP streams, and the collective stack above — [`crate::epoch`]
//! fencing, the chunk-pipelined ring, sparse segments — runs unchanged
//! because it only ever talks to the [`Transport`] trait.
//!
//! # Architecture
//!
//! One [`TcpTransport`] instance is bound to one local rank. It holds one
//! link per peer rank (all logical channels are multiplexed over that
//! link's socket and demultiplexed by the frame header's `channel` field),
//! plus a single background IO thread running a hand-rolled readiness loop
//! over non-blocking sockets:
//!
//! * **send** — the caller encodes a wire frame ([`frame::encode_pooled`])
//!   from the global [`crate::pool::FramePool`], enqueues it to the peer's
//!   outbound queue, and wakes the IO thread. Sends never block on the
//!   socket (matching the ZeroMQ model the paper adopts). The caller's
//!   payload buffer is recycled immediately when sole-owned.
//! * **IO thread** — drains outbound queues with partial-write tracking,
//!   reads whatever bytes the kernel has into a per-connection
//!   [`frame::FrameReader`], and routes decoded payloads to per-`(peer,
//!   channel)` inboxes. Wire frames are recycled once fully written;
//!   received payloads are pooled buffers, so the steady state allocates no
//!   frames in either direction. When nothing progresses it parks for
//!   [`TcpConfig::idle_poll`] (sends unpark it), keeping idle CPU near zero
//!   without a platform poller — at loopback RTTs this costs a few tens of
//!   µs of worst-case latency, which stays well inside the paper's
//!   BlockManager-vs-SC gap (`net.tcp.rtt_1k_us_p50` in `benchmark/`).
//! * **recv** — blocks on the inbox with a poll quantum so peer death is
//!   observed even mid-wait: when a peer is declared dead the transport
//!   stores the typed error and every blocked or future `recv` for it
//!   returns it immediately — already-delivered frames are still receivable
//!   first.
//!
//! # Self-healing (DESIGN.md §5h)
//!
//! Each peer link is a small state machine, `Link`: `Up` (socket live),
//! `Redialing`/`AwaitingDial` (reconnecting after a transient failure), and
//! `Down` (peer declared lost). Failure detection is both reactive (socket
//! errors, EOF) and proactive (the [`health`] heartbeat protocol on the
//! reserved [`frame::HEARTBEAT_CHANNEL`], driven from this same IO thread).
//! When reconnection is armed ([`ReconnectCtx`]), a failed link is re-dialed
//! with capped exponential backoff plus deterministic jitter — the dial
//! direction re-uses the mesh rule (rank `i` dials `j < i`; the higher rank
//! waits on its kept listener) so the two ends never cross-dial. Only after
//! the retry budget ([`ReconnectConfig::max_rounds`]) is spent does the peer
//! flip to `Down` with a terminal [`NetError::PeerLost`]. Frames that were
//! in flight when the socket died are gone, and frames of the failed
//! collective attempt may replay into the healed socket — both are safe
//! because the epoch fence ([`crate::epoch`]) discards stale-attempt frames;
//! `tests/tcp_reconnect.rs` pins exactly that.
//!
//! `TCP_NODELAY` is set on every socket: the ring sends latency-critical
//! small frames and handles its own batching (chunk pipelining), so Nagle
//! coalescing would only add delay.
//!
//! Connection establishment (rank assignment, peer address exchange, mesh
//! dialing, re-admission) lives in [`rendezvous`]; the wire format in
//! [`frame`]; failure detection in [`health`].

pub mod frame;
pub mod health;
pub mod rendezvous;

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::bytebuf::ByteBuf;
use crate::error::{NetError, NetResult};
use crate::pool;
use crate::sync::{channel, Mutex, Receiver, RecvTimeoutError, Sender};
use crate::topology::ExecutorId;
use crate::transport::{NetStats, NetStatsSnapshot, Transport};

use frame::io_to_net;
use health::{Beat, HealthConfig, HealthState};

/// Default for [`TcpConfig::idle_poll`]: how long the IO thread parks when
/// no socket made progress. Sends unpark it, so this only bounds receive
/// latency while the wire is silent.
pub const IDLE_POLL: Duration = Duration::from_micros(50);

/// Default for [`TcpConfig::flush_timeout`]: upper bound on the outbound
/// flush performed when a transport is dropped.
pub const FLUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Default for [`TcpConfig::connect_timeout`]: per-dial bound during
/// reconnection and re-admission.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll quantum for blocking receives: how often a waiting `recv` rechecks
/// peer liveness.
const RECV_QUANTUM: Duration = Duration::from_millis(5);

/// Read buffer size for the IO thread (per loop iteration, shared across
/// connections).
const READ_CHUNK: usize = 256 * 1024;

/// Reconnection tuning knobs, part of [`TcpConfig`].
///
/// A failed link is retried in *rounds*. On the dialing side each round is
/// one `connect` attempt, scheduled `min(backoff_base << round, backoff_cap)`
/// plus a deterministic jitter (hash of `(me, peer, round)`, below one base)
/// after the previous failure. On the accepting side each round is one
/// `accept_window` of waiting for the peer to re-dial. When `max_rounds` are
/// spent without the link healing, the peer is declared
/// [`NetError::PeerLost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectConfig {
    /// Reconnect rounds before the peer is declared lost.
    pub max_rounds: u32,
    /// Backoff before the first re-dial; doubles each round.
    pub backoff_base: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub backoff_cap: Duration,
    /// How long the accepting side waits per round for a re-dial.
    pub accept_window: Duration,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        Self {
            max_rounds: 6,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            accept_window: Duration::from_secs(2),
        }
    }
}

/// All TCP transport tuning in one plumbable struct (an ISSUE-7 satellite:
/// these were hard-coded constants). The documented defaults are the
/// `pub const`s above plus [`HealthConfig::default`] /
/// [`ReconnectConfig::default`]; `launch_cluster` and `chaos_cluster` expose
/// them as flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// IO-thread park time when idle ([`IDLE_POLL`]).
    pub idle_poll: Duration,
    /// Outbound flush bound on drop ([`FLUSH_TIMEOUT`]).
    pub flush_timeout: Duration,
    /// Per-dial bound for reconnect/re-admission dials ([`CONNECT_TIMEOUT`]).
    pub connect_timeout: Duration,
    /// Heartbeat failure detection.
    pub health: HealthConfig,
    /// Reconnection with backoff.
    pub reconnect: ReconnectConfig,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            idle_poll: IDLE_POLL,
            flush_timeout: FLUSH_TIMEOUT,
            connect_timeout: CONNECT_TIMEOUT,
            health: HealthConfig::default(),
            reconnect: ReconnectConfig::default(),
        }
    }
}

/// What a transport needs to *heal* links rather than merely report them
/// dead: its own listener (kept from rendezvous, so lower-ranked peers can
/// re-dial in) and every peer's listen address (so it can re-dial out).
#[derive(Debug)]
pub struct ReconnectCtx {
    /// This rank's data-plane listener, bound since before rendezvous.
    pub listener: TcpListener,
    /// Listen addresses indexed by rank (the self entry is unused).
    pub peer_addrs: Vec<String>,
}

/// Liveness of one peer connection, shared between the IO thread (writer)
/// and receivers (readers).
struct PeerStatus {
    dead: AtomicBool,
    err: Mutex<Option<NetError>>,
    /// Fault injection: ask the IO thread to sever this link as if the
    /// kernel had reset it ([`TcpTransport::kill_connection`]).
    force_drop: AtomicBool,
}

impl PeerStatus {
    fn new() -> Self {
        Self {
            dead: AtomicBool::new(false),
            err: Mutex::new(None),
            force_drop: AtomicBool::new(false),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Records the first fatal error; later ones are ignored.
    fn kill(&self, e: NetError) {
        let mut slot = self.err.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.dead.store(true, Ordering::Release);
    }

    /// Clears a latched death — a re-admitted peer starts clean.
    fn revive(&self) {
        *self.err.lock() = None;
        self.dead.store(false, Ordering::Release);
    }

    fn error(&self) -> NetError {
        self.err.lock().clone().unwrap_or(NetError::Disconnected)
    }
}

/// The connection state machine for one peer link (DESIGN.md §5h).
enum Link {
    /// Socket live; reads, writes, and heartbeats flow.
    Up(TcpStream),
    /// We are the dialing side (peer rank < ours): re-dial at `next`.
    Redialing {
        /// When the next dial round fires.
        next: Instant,
    },
    /// We are the accepting side (peer rank > ours): the peer must re-dial
    /// our listener before `deadline`.
    AwaitingDial {
        /// When this accept window closes (= one failed round).
        deadline: Instant,
    },
    /// Peer declared lost; only [`TcpTransport::install_peer`] revives it.
    Down,
}

/// One peer link, owned by the IO thread.
struct Conn {
    peer: usize,
    link: Link,
    /// Frames queued by senders, pulled into `out` by the IO thread. Frames
    /// still in this queue when a link fails survive into the healed socket.
    out_rx: Receiver<ByteBuf>,
    /// In-progress writes: `(frame, bytes already written)`.
    out: VecDeque<(ByteBuf, usize)>,
    reader: frame::FrameReader,
    status: Arc<PeerStatus>,
    health: HealthState,
    /// Reconnect rounds consumed since the link was last healthy.
    rounds: u32,
    /// Set on (re)install; cleared — counting a heal — on first inbound
    /// bytes from the new socket.
    awaiting_heal: bool,
    /// The failure that started the current reconnect, for the terminal
    /// [`NetError::PeerLost`] detail.
    last_err: Option<NetError>,
}

/// A socket accepted on the kept listener, waiting for its `PEER` preamble.
struct PendingAccept {
    stream: TcpStream,
    reader: frame::FrameReader,
    deadline: Instant,
}

/// Streams handed to the IO thread by [`TcpTransport::install_peer`]:
/// `(peer, stream, new listen address if known)`.
type InjectQueue = Mutex<Vec<(usize, TcpStream, Option<String>)>>;

/// A [`Transport`] over real TCP sockets, bound to one local rank.
///
/// Build one with [`TcpTransport::new`] from already-established sockets
/// (see [`rendezvous::join`] for the full mesh handshake),
/// [`TcpTransport::new_with`] to configure tunables and arm reconnection, or
/// [`TcpTransport::pair_loopback`] for a two-rank loopback pair in tests and
/// benches.
///
/// ```
/// use sparker_net::tcp::TcpTransport;
/// use sparker_net::transport::Transport;
/// use sparker_net::{ByteBuf, ExecutorId};
///
/// let (a, b) = TcpTransport::pair_loopback(2).unwrap();
/// a.send(ExecutorId(0), ExecutorId(1), 1, ByteBuf::from_static(b"over tcp")).unwrap();
/// let got = b.recv(ExecutorId(1), ExecutorId(0), 1).unwrap();
/// assert_eq!(&got[..], b"over tcp");
/// ```
pub struct TcpTransport {
    me: usize,
    n: usize,
    channels: usize,
    /// Inbox senders/receivers indexed `from * channels + channel`.
    inbox_tx: Vec<Sender<ByteBuf>>,
    inbox_rx: Vec<Receiver<ByteBuf>>,
    /// Outbound queues per peer rank (`None` for self).
    out_tx: Vec<Option<Sender<ByteBuf>>>,
    /// Liveness per peer rank (the self entry is never dead).
    peers: Vec<Arc<PeerStatus>>,
    /// Streams waiting for the IO thread to install ([`Self::install_peer`]).
    injected: Arc<InjectQueue>,
    stats: NetStats,
    shutdown: Arc<AtomicBool>,
    io_thread: Mutex<Option<JoinHandle<()>>>,
    io_waker: std::thread::Thread,
}

impl TcpTransport {
    /// Wraps established sockets into a transport bound to rank `me` of `n`,
    /// with default tunables and no reconnection. `conns` must hold exactly
    /// one stream per peer rank (`n - 1` total).
    pub fn new(
        me: usize,
        n: usize,
        channels: usize,
        conns: Vec<(usize, TcpStream)>,
    ) -> NetResult<Arc<Self>> {
        if conns.len() != n.saturating_sub(1) {
            return Err(NetError::InvalidAddress(format!(
                "mesh for rank {me} needs {} peer connections, got {}",
                n.saturating_sub(1),
                conns.len()
            )));
        }
        Self::new_with(me, n, channels, conns, TcpConfig::default(), None)
    }

    /// Full-control constructor: tunables via `cfg`, reconnection armed when
    /// `recon` is provided. With reconnection armed, ranks *without* a
    /// connection are allowed — they start `Link::Down` with a latched
    /// [`NetError::PeerLost`] (the partial mesh a re-admitted executor
    /// builds; see [`rendezvous`]) until [`Self::install_peer`] or an
    /// accepted re-dial brings them up.
    pub fn new_with(
        me: usize,
        n: usize,
        channels: usize,
        conns: Vec<(usize, TcpStream)>,
        cfg: TcpConfig,
        recon: Option<ReconnectCtx>,
    ) -> NetResult<Arc<Self>> {
        if me >= n || channels == 0 {
            return Err(NetError::InvalidAddress(format!(
                "rank {me} of {n} with {channels} channels is not a valid binding"
            )));
        }
        let mut seen = vec![false; n];
        seen[me] = true;
        for (peer, _) in &conns {
            if *peer >= n || *peer == me || seen[*peer] {
                return Err(NetError::InvalidAddress(format!(
                    "connection for peer {peer} is out of range or duplicated (me={me}, n={n})"
                )));
            }
            seen[*peer] = true;
        }
        if let Some(ctx) = &recon {
            if ctx.peer_addrs.len() != n {
                return Err(NetError::InvalidAddress(format!(
                    "reconnect context lists {} addresses for n={n}",
                    ctx.peer_addrs.len()
                )));
            }
        } else if conns.len() != n - 1 {
            return Err(NetError::InvalidAddress(format!(
                "mesh for rank {me} needs {} peer connections, got {} \
                 (partial meshes require a ReconnectCtx)",
                n - 1,
                conns.len()
            )));
        }

        let mut inbox_tx = Vec::with_capacity(n * channels);
        let mut inbox_rx = Vec::with_capacity(n * channels);
        for _ in 0..n * channels {
            let (tx, rx) = channel();
            inbox_tx.push(tx);
            inbox_rx.push(rx);
        }
        let peers: Vec<Arc<PeerStatus>> = (0..n).map(|_| Arc::new(PeerStatus::new())).collect();
        let mut out_tx: Vec<Option<Sender<ByteBuf>>> = (0..n).map(|_| None).collect();
        let now = Instant::now();
        let mut io_conns = Vec::with_capacity(n.saturating_sub(1));
        for (peer, stream) in conns {
            stream.set_nonblocking(true).map_err(io_to_net)?;
            stream.set_nodelay(true).map_err(io_to_net)?;
            let (tx, rx) = channel();
            out_tx[peer] = Some(tx);
            io_conns.push(Conn {
                peer,
                link: Link::Up(stream),
                out_rx: rx,
                out: VecDeque::new(),
                reader: frame::FrameReader::new(),
                status: peers[peer].clone(),
                health: HealthState::new(now),
                rounds: 0,
                awaiting_heal: false,
                last_err: None,
            });
        }
        // Absent peers (partial mesh under reconnection): down-at-birth with
        // a typed latched error, revivable by install_peer / accepted dials.
        for peer in 0..n {
            if peer == me || out_tx[peer].is_some() {
                continue;
            }
            peers[peer].kill(NetError::PeerLost {
                rank: peer as u32,
                detail: "not connected when the transport was created".into(),
            });
            let (tx, rx) = channel();
            out_tx[peer] = Some(tx);
            io_conns.push(Conn {
                peer,
                link: Link::Down,
                out_rx: rx,
                out: VecDeque::new(),
                reader: frame::FrameReader::new(),
                status: peers[peer].clone(),
                health: HealthState::new(now),
                rounds: 0,
                awaiting_heal: false,
                last_err: None,
            });
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let injected: Arc<InjectQueue> = Arc::new(Mutex::new(Vec::new()));
        let arm = match recon {
            Some(ctx) => {
                ctx.listener.set_nonblocking(true).map_err(io_to_net)?;
                Some(ReconArm {
                    listener: ctx.listener,
                    addrs: ctx.peer_addrs,
                    pending: Vec::new(),
                })
            }
            None => None,
        };
        let io = IoLoop {
            me,
            conns: io_conns,
            inbox_tx: inbox_tx.clone(),
            channels,
            shutdown: shutdown.clone(),
            cfg,
            arm,
            injected: injected.clone(),
            epoch: now,
        };
        let handle = std::thread::Builder::new()
            .name(format!("sparker-tcp-io-{me}"))
            .spawn(move || io.run())
            .map_err(|e| NetError::Io(format!("spawning io thread: {e}")))?;
        let io_waker = handle.thread().clone();

        Ok(Arc::new(Self {
            me,
            n,
            channels,
            inbox_tx,
            inbox_rx,
            out_tx,
            peers,
            injected,
            stats: NetStats::default(),
            shutdown,
            io_thread: Mutex::new(Some(handle)),
            io_waker,
        }))
    }

    /// Builds a connected two-rank pair over a loopback socket — rank 0 and
    /// rank 1 in separate transports sharing one real TCP connection. The
    /// unit-test and benchmark entry point.
    pub fn pair_loopback(channels: usize) -> NetResult<(Arc<Self>, Arc<Self>)> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_to_net)?;
        let addr = listener.local_addr().map_err(io_to_net)?;
        let dialed = TcpStream::connect(addr).map_err(io_to_net)?;
        let (accepted, _) = listener.accept().map_err(io_to_net)?;
        let a = Self::new(0, 2, channels, vec![(1, accepted)])?;
        let b = Self::new(1, 2, channels, vec![(0, dialed)])?;
        Ok((a, b))
    }

    /// [`Self::pair_loopback`] with explicit tunables and reconnection armed
    /// on both ends — each transport keeps its listener and knows both
    /// addresses, so a severed link heals by re-dial (rank 1 dials, rank 0
    /// accepts, per the mesh rule).
    pub fn pair_loopback_with(
        channels: usize,
        cfg: TcpConfig,
    ) -> NetResult<(Arc<Self>, Arc<Self>)> {
        let l0 = TcpListener::bind("127.0.0.1:0").map_err(io_to_net)?;
        let l1 = TcpListener::bind("127.0.0.1:0").map_err(io_to_net)?;
        let a0 = l0.local_addr().map_err(io_to_net)?.to_string();
        let a1 = l1.local_addr().map_err(io_to_net)?.to_string();
        let dialed = TcpStream::connect(&a0).map_err(io_to_net)?;
        let (accepted, _) = l0.accept().map_err(io_to_net)?;
        let addrs = vec![a0, a1];
        let a = Self::new_with(
            0,
            2,
            channels,
            vec![(1, accepted)],
            cfg,
            Some(ReconnectCtx { listener: l0, peer_addrs: addrs.clone() }),
        )?;
        let b = Self::new_with(
            1,
            2,
            channels,
            vec![(0, dialed)],
            cfg,
            Some(ReconnectCtx { listener: l1, peer_addrs: addrs }),
        )?;
        Ok((a, b))
    }

    /// The local rank this transport is bound to.
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Snapshot of traffic counters (sends only, matching the mesh).
    pub fn stats(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            messages: self.stats.messages.load(Ordering::Relaxed),
            bytes: self.stats.bytes.load(Ordering::Relaxed),
            inter_node_messages: self.stats.inter_node_messages.load(Ordering::Relaxed),
            inter_node_bytes: self.stats.inter_node_bytes.load(Ordering::Relaxed),
        }
    }

    /// Whether `peer` has been declared dead (EOF/reset/codec with no
    /// reconnection, or a spent reconnect budget). Frames delivered before
    /// death remain receivable. A link that is merely *reconnecting* is not
    /// dead.
    pub fn peer_is_dead(&self, peer: usize) -> bool {
        peer < self.n && peer != self.me && self.peers[peer].is_dead()
    }

    /// The latched error for a dead `peer`, if any.
    pub fn peer_error(&self, peer: usize) -> Option<NetError> {
        if self.peer_is_dead(peer) {
            Some(self.peers[peer].error())
        } else {
            None
        }
    }

    /// Ranks currently declared dead.
    pub fn dead_peers(&self) -> Vec<usize> {
        (0..self.n).filter(|&p| self.peer_is_dead(p)).collect()
    }

    /// Fault injection: severs the live socket to `peer` from the IO thread,
    /// exactly as if the kernel had dropped the connection. With
    /// reconnection armed the link heals; without, the peer dies. Chaos
    /// plans use this for deterministic "forced connection close" events.
    pub fn kill_connection(&self, peer: usize) -> NetResult<()> {
        if peer >= self.n || peer == self.me {
            return Err(NetError::InvalidAddress(format!(
                "kill_connection({peer}) outside mesh of {} ranks (me={})",
                self.n, self.me
            )));
        }
        self.peers[peer].force_drop.store(true, Ordering::Release);
        self.io_waker.unpark();
        Ok(())
    }

    /// Hands an established socket to the IO thread as the new link to
    /// `peer`, reviving it if it was dead — the re-admission path
    /// ([`rendezvous`]; the `PEER` preamble must already have been
    /// exchanged). `addr`, when given, updates the address used for future
    /// re-dials of this peer.
    pub fn install_peer(
        &self,
        peer: usize,
        stream: TcpStream,
        addr: Option<String>,
    ) -> NetResult<()> {
        if peer >= self.n || peer == self.me {
            return Err(NetError::InvalidAddress(format!(
                "install_peer({peer}) outside mesh of {} ranks (me={})",
                self.n, self.me
            )));
        }
        // Revive eagerly so sends enqueued between now and the IO thread's
        // pickup are delivered by the fresh link instead of erroring.
        self.peers[peer].revive();
        self.injected.lock().push((peer, stream, addr));
        self.io_waker.unpark();
        Ok(())
    }

    fn check_addr(&self, at: ExecutorId, other: ExecutorId, channel: usize) -> NetResult<usize> {
        if at.index() != self.me {
            return Err(NetError::InvalidAddress(format!(
                "transport is bound to rank {}, not {at}",
                self.me
            )));
        }
        if other.index() >= self.n || channel >= self.channels {
            return Err(NetError::InvalidAddress(format!(
                "({other}, ch{channel}) outside mesh of {} ranks x {} channels",
                self.n, self.channels
            )));
        }
        Ok(other.index() * self.channels + channel)
    }

    fn recv_inner(
        &self,
        at: ExecutorId,
        from: ExecutorId,
        channel: usize,
        deadline: Option<Instant>,
    ) -> NetResult<ByteBuf> {
        let idx = self.check_addr(at, from, channel)?;
        let from = from.index();
        loop {
            if let Some(msg) = self.inbox_rx[idx].try_recv() {
                return Ok(msg);
            }
            if from != self.me && self.peers[from].is_dead() {
                // Between the inbox check and the dead check the IO thread
                // may have routed a final frame; drain once more before
                // surfacing the error.
                if let Some(msg) = self.inbox_rx[idx].try_recv() {
                    return Ok(msg);
                }
                return Err(self.peers[from].error());
            }
            let mut quantum = RECV_QUANTUM;
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(NetError::Timeout);
                }
                quantum = quantum.min(left);
            }
            match self.inbox_rx[idx].recv_timeout(quantum) {
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Disconnected),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn size(&self) -> usize {
        self.n
    }

    fn channels(&self) -> usize {
        self.channels
    }

    fn send(&self, from: ExecutorId, to: ExecutorId, channel: usize, msg: ByteBuf) -> NetResult<()> {
        let idx = self.check_addr(from, to, channel)?;
        let nbytes = msg.len();
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(nbytes as u64, Ordering::Relaxed);
        let to = to.index();
        if to == self.me {
            // Loopback: no wire, no copy.
            return self.inbox_tx[self.me * self.channels + channel]
                .send(msg)
                .map_err(|_| NetError::Disconnected);
        }
        self.stats.inter_node_messages.fetch_add(1, Ordering::Relaxed);
        self.stats.inter_node_bytes.fetch_add(nbytes as u64, Ordering::Relaxed);
        if self.peers[to].is_dead() {
            return Err(self.peers[to].error());
        }
        let wire = frame::encode_pooled(pool::global(), self.me as u32, channel as u32, &msg)?;
        // The payload was copied into the wire frame; a sole-owned source
        // buffer is reusable right now.
        pool::global().recycle_frame(msg);
        let _ = idx; // routing is by peer socket; channel rides in the frame
        self.out_tx[to]
            .as_ref()
            .expect("peer != me has an outbound queue")
            .send(wire)
            .map_err(|_| NetError::Disconnected)?;
        self.io_waker.unpark();
        Ok(())
    }

    fn recv(&self, at: ExecutorId, from: ExecutorId, channel: usize) -> NetResult<ByteBuf> {
        self.recv_inner(at, from, channel, None)
    }

    fn recv_timeout(
        &self,
        at: ExecutorId,
        from: ExecutorId,
        channel: usize,
        timeout: Duration,
    ) -> NetResult<ByteBuf> {
        self.recv_inner(at, from, channel, Some(Instant::now() + timeout))
    }

    fn drain_all(&self) -> usize {
        let mut dropped = 0;
        for rx in &self.inbox_rx {
            while let Some(msg) = rx.try_recv() {
                pool::global().recycle_frame(msg);
                dropped += 1;
            }
        }
        dropped
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.io_waker.unpark();
        if let Some(handle) = self.io_thread.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Reconnection machinery owned by the IO thread: the kept listener, peer
/// addresses for re-dials, and accepted sockets awaiting their preamble.
struct ReconArm {
    listener: TcpListener,
    addrs: Vec<String>,
    pending: Vec<PendingAccept>,
}

/// The background readiness loop: owns every socket of one transport.
struct IoLoop {
    me: usize,
    conns: Vec<Conn>,
    inbox_tx: Vec<Sender<ByteBuf>>,
    channels: usize,
    shutdown: Arc<AtomicBool>,
    cfg: TcpConfig,
    arm: Option<ReconArm>,
    injected: Arc<InjectQueue>,
    /// Monotonic epoch for heartbeat stamps (µs since IO-thread start).
    epoch: Instant,
}

/// Deterministic jitter in `[0, base)` for reconnect round `k` of the
/// `(me, peer)` link — spreads simultaneous re-dials without randomness.
fn backoff_jitter(me: usize, peer: usize, round: u32, base: Duration) -> Duration {
    let mut bytes = [0u8; 20];
    bytes[..8].copy_from_slice(&(me as u64).to_le_bytes());
    bytes[8..16].copy_from_slice(&(peer as u64).to_le_bytes());
    bytes[16..].copy_from_slice(&round.to_le_bytes());
    let h = crate::hash::fnv1a(&bytes);
    let base_ns = base.as_nanos().max(1) as u64;
    Duration::from_nanos(h % base_ns)
}

impl IoLoop {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Pre-jitter backoff for round `k` (1-based): `min(base << (k-1), cap)`.
    fn backoff(&self, round: u32) -> Duration {
        let r = &self.cfg.reconnect;
        let shift = round.saturating_sub(1).min(20);
        r.backoff_base.saturating_mul(1 << shift).min(r.backoff_cap)
    }

    fn run(mut self) {
        let mut scratch = vec![0u8; READ_CHUNK];
        if self.cfg.health.enabled {
            // Warm the pool size classes heartbeats use (wire frame out,
            // decoded payload in) so the steady state stays allocation-free
            // even once the first beat fires mid-workload.
            let pool = pool::global();
            if let Ok(f) =
                frame::encode_pooled(pool, 0, frame::HEARTBEAT_CHANNEL, &[0u8; health::BEAT_LEN])
            {
                let mut r = frame::FrameReader::new();
                r.extend(&f);
                if let Ok(Some(d)) = r.next_frame(pool) {
                    pool.recycle_frame(d.payload);
                }
                pool.recycle_frame(f);
            }
        }
        while !self.shutdown.load(Ordering::Acquire) {
            let mut progress = false;
            progress |= self.service_injected();
            progress |= self.service_acceptor(&mut scratch);
            for ci in 0..self.conns.len() {
                let now = Instant::now();
                match self.conns[ci].link {
                    Link::Up(_) => {
                        if self.conns[ci].status.force_drop.swap(false, Ordering::AcqRel) {
                            self.fail_link(
                                ci,
                                NetError::Io("connection severed by fault injection".into()),
                            );
                            continue;
                        }
                        progress |= self.service_writes(ci);
                        progress |= self.service_reads(ci, &mut scratch);
                        self.service_health(ci);
                    }
                    Link::Redialing { next } => {
                        if now >= next {
                            progress = true;
                            self.try_dial(ci);
                        }
                    }
                    Link::AwaitingDial { deadline } => {
                        if now >= deadline {
                            self.fail_link(
                                ci,
                                NetError::Timeout, // window expired without a re-dial
                            );
                        }
                    }
                    Link::Down => {}
                }
            }
            if !progress {
                std::thread::park_timeout(self.cfg.idle_poll);
            }
        }
        // Shutdown: flush frames already queued so a transport dropped right
        // after its final send still delivers it (asynchronous sends promise
        // eventual delivery while the peer lives). Bounded so a stuck peer
        // cannot wedge the drop.
        let flush_deadline = Instant::now() + self.cfg.flush_timeout;
        loop {
            let mut pending = false;
            for ci in 0..self.conns.len() {
                if !matches!(self.conns[ci].link, Link::Up(_)) {
                    continue;
                }
                self.service_writes(ci);
                let conn = &self.conns[ci];
                if !conn.out.is_empty() {
                    pending = true;
                }
            }
            if !pending || Instant::now() >= flush_deadline {
                break;
            }
            std::thread::park_timeout(self.cfg.idle_poll);
        }
    }

    /// A link failed. Codec failures (framing corruption) and unarmed
    /// transports kill the peer outright; otherwise the link enters its next
    /// reconnect round — re-dialing if we are the dialing side of the pair,
    /// waiting on our listener if not — until the budget is spent.
    fn fail_link(&mut self, ci: usize, err: NetError) {
        let peer = self.conns[ci].peer;
        let framing_fatal = matches!(err, NetError::Codec(_));
        if self.arm.is_none() || framing_fatal {
            self.kill_conn(ci, err);
            return;
        }
        self.conns[ci].rounds += 1;
        let rounds = self.conns[ci].rounds;
        if rounds > self.cfg.reconnect.max_rounds {
            let detail = format!(
                "reconnect budget exhausted after {} rounds (last error: {})",
                rounds - 1,
                self.conns[ci].last_err.as_ref().unwrap_or(&err),
            );
            self.kill_conn(ci, NetError::PeerLost { rank: peer as u32, detail });
            return;
        }
        health::count_reconnect_attempt();
        let delay =
            self.backoff(rounds) + backoff_jitter(self.me, peer, rounds, self.cfg.reconnect.backoff_base);
        let accept_window = self.cfg.reconnect.accept_window;
        let dialer = peer < self.me;
        // Tear down the old socket (dropping it sends FIN/RST so the peer
        // notices too). Whole frames still in out_rx survive into the healed
        // link; partially-written ones are torn and must be dropped.
        let conn = &mut self.conns[ci];
        for (f, _) in conn.out.drain(..) {
            pool::global().recycle_frame(f);
        }
        conn.reader = frame::FrameReader::new();
        if !matches!(err, NetError::Timeout) {
            conn.last_err = Some(err);
        }
        let now = Instant::now();
        conn.link = if dialer {
            Link::Redialing { next: now + delay }
        } else {
            Link::AwaitingDial { deadline: now + accept_window }
        };
    }

    /// Declares the peer dead: latches the typed error, drops the link, and
    /// recycles everything queued.
    fn kill_conn(&mut self, ci: usize, err: NetError) {
        let conn = &mut self.conns[ci];
        if matches!(err, NetError::PeerLost { .. }) {
            health::count_reconnect_exhausted();
        }
        conn.status.kill(err);
        conn.link = Link::Down;
        for (f, _) in conn.out.drain(..) {
            pool::global().recycle_frame(f);
        }
        while let Some(f) = conn.out_rx.try_recv() {
            pool::global().recycle_frame(f);
        }
        conn.reader = frame::FrameReader::new();
    }

    /// Brings a fresh socket up as the link for `ci`. `reader` carries any
    /// bytes that arrived behind the preamble on an accepted socket.
    fn install(&mut self, ci: usize, stream: TcpStream, reader: frame::FrameReader) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            // The fresh socket is already broken; treat as a failed round.
            self.fail_link(ci, NetError::Io("configuring reconnected socket".into()));
            return;
        }
        let conn = &mut self.conns[ci];
        for (f, _) in conn.out.drain(..) {
            pool::global().recycle_frame(f);
        }
        conn.reader = reader;
        conn.health = HealthState::new(Instant::now());
        conn.awaiting_heal = true;
        conn.status.revive();
        conn.link = Link::Up(stream);
    }

    /// One dial round toward a lower-ranked peer.
    fn try_dial(&mut self, ci: usize) {
        let peer = self.conns[ci].peer;
        let Some(arm) = &self.arm else { return };
        let addr = arm.addrs[peer].clone();
        let parsed: Result<SocketAddr, _> = addr.parse();
        let sa = match parsed {
            Ok(sa) => sa,
            Err(e) => {
                self.kill_conn(
                    ci,
                    NetError::InvalidAddress(format!("re-dial address {addr:?}: {e}")),
                );
                return;
            }
        };
        match TcpStream::connect_timeout(&sa, self.cfg.connect_timeout) {
            Ok(mut stream) => {
                let _ = stream.set_nodelay(true);
                // Identify ourselves so the acceptor attaches this socket to
                // the right link (same preamble as the rendezvous mesh dial).
                let preamble = rendezvous::peer_preamble(self.me as u32);
                match frame::write_frame(
                    &mut stream,
                    pool::global(),
                    self.me as u32,
                    frame::CONTROL_CHANNEL,
                    &preamble,
                ) {
                    Ok(()) => self.install(ci, stream, frame::FrameReader::new()),
                    Err(e) => self.fail_link(ci, e),
                }
            }
            Err(e) => self.fail_link(ci, io_to_net(e)),
        }
    }

    /// Accepts re-dials on the kept listener and attaches each, once its
    /// `PEER` preamble arrives, to the matching link. Returns whether any
    /// bytes moved.
    fn service_acceptor(&mut self, scratch: &mut [u8]) -> bool {
        let Some(arm) = &mut self.arm else { return false };
        let window = self.cfg.reconnect.accept_window;
        let mut progress = false;
        loop {
            match arm.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    progress = true;
                    arm.pending.push(PendingAccept {
                        stream,
                        reader: frame::FrameReader::new(),
                        deadline: Instant::now() + window,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if arm.pending.is_empty() {
            return progress;
        }
        let mut pending = std::mem::take(&mut arm.pending);
        let mut keep = Vec::with_capacity(pending.len());
        for mut p in pending.drain(..) {
            match self.drive_pending(&mut p, scratch) {
                PendingVerdict::Wait => {
                    if Instant::now() < p.deadline {
                        keep.push(p);
                    }
                    // Expired: drop the socket; the peer will retry.
                }
                PendingVerdict::Install(peer) => {
                    progress = true;
                    if let Some(ci) = self.conns.iter().position(|c| c.peer == peer) {
                        let PendingAccept { stream, reader, .. } = p;
                        self.install(ci, stream, reader);
                    }
                }
                PendingVerdict::Drop => {
                    progress = true;
                }
            }
        }
        if let Some(arm) = &mut self.arm {
            arm.pending = keep;
        }
        progress
    }

    /// Reads a pending accepted socket looking for its `PEER` preamble.
    fn drive_pending(&self, p: &mut PendingAccept, scratch: &mut [u8]) -> PendingVerdict {
        loop {
            match p.stream.read(scratch) {
                Ok(0) => return PendingVerdict::Drop,
                Ok(k) => {
                    p.reader.extend(&scratch[..k]);
                    match p.reader.next_frame(pool::global()) {
                        Ok(Some(decoded)) => {
                            let verdict = if decoded.channel == frame::CONTROL_CHANNEL {
                                match rendezvous::parse_peer_preamble(&decoded.payload) {
                                    // Only higher ranks dial us (mesh rule).
                                    Ok(j)
                                        if (j as usize) > self.me
                                            && (j as usize) < self.me + self.conns.len() + 1 =>
                                    {
                                        PendingVerdict::Install(j as usize)
                                    }
                                    _ => PendingVerdict::Drop,
                                }
                            } else {
                                PendingVerdict::Drop
                            };
                            pool::global().recycle_frame(decoded.payload);
                            return verdict;
                        }
                        Ok(None) => continue,
                        Err(_) => return PendingVerdict::Drop,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return PendingVerdict::Wait,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return PendingVerdict::Drop,
            }
        }
    }

    /// Installs sockets handed over by [`TcpTransport::install_peer`].
    fn service_injected(&mut self) -> bool {
        let items: Vec<_> = {
            let mut q = self.injected.lock();
            if q.is_empty() {
                return false;
            }
            q.drain(..).collect()
        };
        for (peer, stream, addr) in items {
            if let (Some(arm), Some(a)) = (&mut self.arm, addr) {
                if peer < arm.addrs.len() {
                    arm.addrs[peer] = a;
                }
            }
            if let Some(ci) = self.conns.iter().position(|c| c.peer == peer) {
                // A driver-mediated install is a *new incarnation* of the
                // peer (re-admission), not another round of the old outage:
                // the retry budget starts fresh. (Reconnect-driven installs
                // keep their round count until the link actually heals, so a
                // frozen peer still exhausts the budget.)
                self.conns[ci].rounds = 0;
                self.conns[ci].last_err = None;
                self.install(ci, stream, frame::FrameReader::new());
            }
        }
        true
    }

    /// Heartbeats for one live link: queue a due PING, suspect on silence.
    fn service_health(&mut self, ci: usize) {
        if !self.cfg.health.enabled || !matches!(self.conns[ci].link, Link::Up(_)) {
            return;
        }
        let now = Instant::now();
        let stamp = self.now_us();
        let hcfg = self.cfg.health;
        if let Some(beat) = self.conns[ci].health.maybe_ping(now, stamp, &hcfg) {
            self.queue_beat(ci, beat);
        }
        if self.conns[ci].health.suspect(now, &hcfg) {
            health::count_suspicion();
            let peer = self.conns[ci].peer;
            let silence = self.conns[ci].health.silence(now);
            self.fail_link(
                ci,
                NetError::PeerLost {
                    rank: peer as u32,
                    detail: format!(
                        "heartbeat suspicion: silent for {silence:?} (timeout {:?})",
                        hcfg.suspicion
                    ),
                },
            );
        }
    }

    /// Encodes and queues one beat on the link's outbound queue.
    fn queue_beat(&mut self, ci: usize, beat: Beat) {
        if let Ok(wire) = frame::encode_pooled(
            pool::global(),
            self.me as u32,
            frame::HEARTBEAT_CHANNEL,
            &beat.encode(),
        ) {
            self.conns[ci].out.push_back((wire, 0));
        }
    }

    /// Consumes an inbound heartbeat: PING → queue the echo PONG; PONG →
    /// observe the RTT.
    fn handle_beat(&mut self, ci: usize, payload: &[u8]) -> NetResult<()> {
        match Beat::decode(payload)? {
            Beat::Ping { seq, stamp } => self.queue_beat(ci, Beat::Pong { seq, stamp }),
            Beat::Pong { seq: _, stamp } => {
                health::observe_rtt(self.now_us().saturating_sub(stamp));
            }
        }
        Ok(())
    }

    /// Pulls queued frames and pushes bytes until the socket would block.
    /// Returns whether any bytes moved.
    fn service_writes(&mut self, ci: usize) -> bool {
        let conn = &mut self.conns[ci];
        let Link::Up(stream) = &mut conn.link else { return false };
        while let Some(f) = conn.out_rx.try_recv() {
            conn.out.push_back((f, 0));
        }
        let mut progress = false;
        let mut failure = None;
        while let Some((front, off)) = conn.out.front_mut() {
            match stream.write(&front[*off..]) {
                Ok(0) => {
                    failure = Some(NetError::Disconnected);
                    break;
                }
                Ok(k) => {
                    progress = true;
                    *off += k;
                    if *off == front.len() {
                        let (done, _) = conn.out.pop_front().expect("front exists");
                        pool::global().recycle_frame(done);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    failure = Some(io_to_net(e));
                    break;
                }
            }
        }
        if let Some(err) = failure {
            self.fail_link(ci, err);
        }
        progress
    }

    /// Reads available bytes, decodes complete frames, and routes them.
    /// Returns whether any bytes moved.
    fn service_reads(&mut self, ci: usize, scratch: &mut [u8]) -> bool {
        let mut progress = false;
        loop {
            let conn = &mut self.conns[ci];
            let Link::Up(stream) = &mut conn.link else { return progress };
            match stream.read(scratch) {
                Ok(0) => {
                    // Clean EOF; torn mid-frame it is still a disconnect,
                    // the partial bytes simply never become a frame.
                    self.fail_link(ci, NetError::Disconnected);
                    return progress;
                }
                Ok(k) => {
                    progress = true;
                    conn.reader.extend(&scratch[..k]);
                    let now = Instant::now();
                    conn.health.heard(now);
                    if conn.awaiting_heal {
                        conn.awaiting_heal = false;
                        conn.rounds = 0;
                        conn.last_err = None;
                        health::count_reconnect_healed();
                    }
                    loop {
                        match self.conns[ci].reader.next_frame(pool::global()) {
                            Ok(Some(decoded)) => {
                                if decoded.channel == frame::HEARTBEAT_CHANNEL {
                                    let res = self.handle_beat(ci, &decoded.payload);
                                    pool::global().recycle_frame(decoded.payload);
                                    if let Err(e) = res {
                                        self.kill_conn(ci, e);
                                        return progress;
                                    }
                                    continue;
                                }
                                if let Err(e) = self.route(ci, decoded) {
                                    self.fail_link(ci, e);
                                    return progress;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                // Framing is unrecoverable: poison the
                                // connection so receivers see the Codec
                                // error instead of hanging.
                                self.kill_conn(ci, e);
                                return progress;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    let err = io_to_net(e);
                    self.fail_link(ci, err);
                    return progress;
                }
            }
        }
    }

    /// Delivers a decoded frame to its `(from, channel)` inbox.
    fn route(&self, ci: usize, decoded: frame::DecodedFrame) -> NetResult<()> {
        let peer = self.conns[ci].peer;
        if decoded.from as usize != peer {
            return Err(NetError::Codec(format!(
                "frame claims sender {} on the socket of peer {peer}",
                decoded.from
            )));
        }
        let ch = decoded.channel as usize;
        if ch >= self.channels {
            return Err(NetError::Codec(format!(
                "frame channel {ch} outside {} channels",
                self.channels
            )));
        }
        self.inbox_tx[peer * self.channels + ch]
            .send(decoded.payload)
            .map_err(|_| NetError::Disconnected)?;
        Ok(())
    }
}

/// What to do with an accepted socket after one read pass.
enum PendingVerdict {
    /// Preamble incomplete; keep waiting (until its deadline).
    Wait,
    /// Preamble identified this rank: attach the socket to its link.
    Install(usize),
    /// Garbage, EOF, or an invalid claimed rank: discard the socket.
    Drop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_pair_roundtrip() {
        let (a, b) = TcpTransport::pair_loopback(2).unwrap();
        a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"hello tcp"))
            .unwrap();
        let got = b.recv(ExecutorId(1), ExecutorId(0), 0).unwrap();
        assert_eq!(&got[..], b"hello tcp");
        // And the other direction.
        b.send(ExecutorId(1), ExecutorId(0), 1, ByteBuf::from_static(b"back"))
            .unwrap();
        assert_eq!(&a.recv(ExecutorId(0), ExecutorId(1), 1).unwrap()[..], b"back");
    }

    #[test]
    fn channels_are_independent_fifos_over_one_socket() {
        let (a, b) = TcpTransport::pair_loopback(2).unwrap();
        a.send(ExecutorId(0), ExecutorId(1), 1, ByteBuf::from_static(b"ch1")).unwrap();
        a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"ch0-a")).unwrap();
        a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"ch0-b")).unwrap();
        assert_eq!(&b.recv(ExecutorId(1), ExecutorId(0), 0).unwrap()[..], b"ch0-a");
        assert_eq!(&b.recv(ExecutorId(1), ExecutorId(0), 1).unwrap()[..], b"ch1");
        assert_eq!(&b.recv(ExecutorId(1), ExecutorId(0), 0).unwrap()[..], b"ch0-b");
    }

    #[test]
    fn large_messages_survive_partial_writes() {
        let (a, b) = TcpTransport::pair_loopback(1).unwrap();
        // Large enough to exceed socket buffers, forcing WouldBlock cycles.
        let big: Vec<u8> = (0..8 << 20).map(|i| (i * 31 % 251) as u8).collect();
        let sent = big.clone();
        a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from(big)).unwrap();
        let got = b
            .recv_timeout(ExecutorId(1), ExecutorId(0), 0, Duration::from_secs(30))
            .unwrap();
        assert_eq!(got.len(), sent.len());
        assert_eq!(&got[..], &sent[..]);
    }

    #[test]
    fn self_send_is_loopback() {
        let (a, _b) = TcpTransport::pair_loopback(1).unwrap();
        a.send(ExecutorId(0), ExecutorId(0), 0, ByteBuf::from_static(b"self")).unwrap();
        assert_eq!(&a.recv(ExecutorId(0), ExecutorId(0), 0).unwrap()[..], b"self");
    }

    #[test]
    fn misbound_addresses_rejected() {
        let (a, _b) = TcpTransport::pair_loopback(1).unwrap();
        assert!(matches!(
            a.send(ExecutorId(1), ExecutorId(0), 0, ByteBuf::new()),
            Err(NetError::InvalidAddress(_))
        ));
        assert!(matches!(
            a.recv_timeout(ExecutorId(0), ExecutorId(5), 0, Duration::from_millis(1)),
            Err(NetError::InvalidAddress(_))
        ));
        assert!(matches!(
            a.recv_timeout(ExecutorId(0), ExecutorId(1), 9, Duration::from_millis(1)),
            Err(NetError::InvalidAddress(_))
        ));
    }

    #[test]
    fn recv_timeout_expires() {
        let (a, _b) = TcpTransport::pair_loopback(1).unwrap();
        let t0 = Instant::now();
        let err = a
            .recv_timeout(ExecutorId(0), ExecutorId(1), 0, Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn peer_death_surfaces_as_disconnected_after_draining() {
        let (a, b) = TcpTransport::pair_loopback(1).unwrap();
        b.send(ExecutorId(1), ExecutorId(0), 0, ByteBuf::from_static(b"last words"))
            .unwrap();
        // Give the frame time to cross, then kill the peer.
        let got = a
            .recv_timeout(ExecutorId(0), ExecutorId(1), 0, Duration::from_secs(5))
            .unwrap();
        assert_eq!(&got[..], b"last words");
        drop(b);
        // The next recv must fail fast with Disconnected, not hang.
        let t0 = Instant::now();
        let err = a
            .recv_timeout(ExecutorId(0), ExecutorId(1), 0, Duration::from_secs(30))
            .unwrap_err();
        assert_eq!(err, NetError::Disconnected);
        assert!(t0.elapsed() < Duration::from_secs(5), "death detection took {:?}", t0.elapsed());
        // Sends to the dead peer fail too.
        assert!(a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::new()).is_err());
        assert!(a.peer_is_dead(1));
        assert_eq!(a.dead_peers(), vec![1]);
        assert_eq!(a.peer_error(1), Some(NetError::Disconnected));
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (a, b) = TcpTransport::pair_loopback(1).unwrap();
        let t = std::thread::spawn(move || {
            for _ in 0..200 {
                let m = b.recv(ExecutorId(1), ExecutorId(0), 0).unwrap();
                b.send(ExecutorId(1), ExecutorId(0), 0, m).unwrap();
            }
        });
        for i in 0..200u32 {
            a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from(i.to_le_bytes().to_vec()))
                .unwrap();
            let back = a.recv(ExecutorId(0), ExecutorId(1), 0).unwrap();
            assert_eq!(u32::from_le_bytes(back[..].try_into().unwrap()), i);
        }
        t.join().unwrap();
    }

    #[test]
    fn drain_all_discards_queued_frames() {
        let (a, b) = TcpTransport::pair_loopback(1).unwrap();
        for _ in 0..4 {
            a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"stale")).unwrap();
        }
        // Wait until the frames have crossed the wire.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let first = b.recv_timeout(ExecutorId(1), ExecutorId(0), 0, Duration::from_secs(5));
            assert!(first.is_ok());
            break;
        }
        // Up to 3 remain queued; drain must report exactly what it dropped.
        let mut drained = b.drain_all();
        while drained < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            drained += b.drain_all();
        }
        assert_eq!(drained, 3);
    }

    /// Heartbeats keep flowing on an otherwise idle pair: neither side may
    /// suspect the other, and RTT observations accumulate.
    #[test]
    fn idle_pair_stays_alive_via_heartbeats() {
        let mut cfg = TcpConfig::default();
        cfg.health.interval = Duration::from_millis(10);
        cfg.health.suspicion = Duration::from_millis(80);
        let (a, b) = TcpTransport::pair_loopback_with(1, cfg).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        assert!(!a.peer_is_dead(1), "a suspected b despite heartbeats");
        assert!(!b.peer_is_dead(0), "b suspected a despite heartbeats");
        // Data still flows after the idle stretch.
        a.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"post-idle")).unwrap();
        let got =
            b.recv_timeout(ExecutorId(1), ExecutorId(0), 0, Duration::from_secs(5)).unwrap();
        assert_eq!(&got[..], b"post-idle");
    }
}
