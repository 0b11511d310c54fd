//! The transport trait and the in-process mesh.
//!
//! Executors in the threaded engine are threads in one process, so
//! [`MeshTransport`] is a grid of FIFO channels, one per directed
//! `(from, to, channel)` stream. A send enqueues and returns (asynchronous
//! sends, like ZeroMQ); a receive blocks until the stream's next frame
//! arrives. Nothing is delayed: the mesh's cost is what the threads and
//! channels really cost. The paper's network constants live in the model
//! crate (`sparker-tuner`), which no runtime crate depends on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sparker_obs::metrics::{self, Counter, Histogram};
use sparker_obs::trace;
use sparker_obs::Layer;

use crate::bytebuf::ByteBuf;
use crate::sync::{channel, Receiver, RecvTimeoutError, Sender};

use crate::error::{NetError, NetResult};
use crate::topology::{ExecutorId, ExecutorInfo};

/// Which communication implementation a channel models.
///
/// The paper compares three (Figure 12). The in-process mesh uses the kind
/// to name its trace spans; the model crate gives each its software
/// overhead and single-stream efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Sparker's purpose-built communicator (JeroMQ-based in the paper).
    ScalableComm,
    /// Message passing emulated over Spark's BlockManager KV store:
    /// control-plane round trips and result polling dominate.
    BlockManager,
    /// MPI as the near-optimal reference (OSU micro-benchmarks).
    MpiRef,
}

/// A point-to-point, multi-channel message transport between executors.
///
/// Implementations range from the in-process [`MeshTransport`] to the
/// real-socket [`crate::tcp::TcpTransport`]; collective code is written
/// against this trait and cannot tell them apart:
///
/// ```
/// use sparker_net::topology::{ExecutorId, ExecutorInfo};
/// use sparker_net::transport::{MeshTransport, Transport};
/// use sparker_net::ByteBuf;
///
/// let infos: Vec<ExecutorInfo> = (0..2)
///     .map(|i| ExecutorInfo {
///         id: ExecutorId(i),
///         host: format!("node-{i}"),
///         node: i as usize,
///         cores: 1,
///     })
///     .collect();
/// let net = MeshTransport::unshaped(&infos, 1);
/// net.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"hop"))?;
/// let got = net.recv(ExecutorId(1), ExecutorId(0), 0)?;
/// assert_eq!(&got[..], b"hop");
/// # Ok::<(), sparker_net::NetError>(())
/// ```
pub trait Transport: Send + Sync {
    /// Number of executors addressable by this transport.
    fn size(&self) -> usize;
    /// Number of parallel channels per directed pair.
    fn channels(&self) -> usize;
    /// Asynchronously sends `msg` on `channel` from `from` to `to`.
    fn send(&self, from: ExecutorId, to: ExecutorId, channel: usize, msg: ByteBuf) -> NetResult<()>;
    /// Blocks until a message from `from` on `channel` is delivered to `at`.
    fn recv(&self, at: ExecutorId, from: ExecutorId, channel: usize) -> NetResult<ByteBuf>;
    /// Like [`Transport::recv`] with an upper bound on the wait.
    fn recv_timeout(
        &self,
        at: ExecutorId,
        from: ExecutorId,
        channel: usize,
        timeout: Duration,
    ) -> NetResult<ByteBuf>;
    /// Discards every queued-but-unreceived message, returning how many were
    /// dropped. The driver calls this between collective stage attempts so no
    /// frame from a failed attempt can poison the retry. Transports without
    /// queues report 0.
    fn drain_all(&self) -> usize {
        0
    }
}

/// Running totals maintained by a transport.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Frames sent.
    pub messages: AtomicU64,
    /// Payload bytes sent.
    pub bytes: AtomicU64,
    /// Frames sent between executors on different nodes.
    pub inter_node_messages: AtomicU64,
    /// Payload bytes sent between executors on different nodes.
    pub inter_node_bytes: AtomicU64,
}

/// Point-in-time copy of [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Frames sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Frames sent between executors on different nodes.
    pub inter_node_messages: u64,
    /// Payload bytes sent between executors on different nodes.
    pub inter_node_bytes: u64,
}

/// Gated trace/metrics hooks for the wire layer. Span names are keyed by
/// the transport kind so an exported trace tells ring traffic (`sc.*`)
/// from the engine's BlockManager-class results, shuffle and broadcast
/// (`bm.*`).
fn send_span_name(kind: TransportKind) -> &'static str {
    match kind {
        TransportKind::MpiRef => "mpi.send",
        TransportKind::ScalableComm => "sc.send",
        TransportKind::BlockManager => "bm.send",
    }
}

fn recv_span_name(kind: TransportKind) -> &'static str {
    match kind {
        TransportKind::MpiRef => "mpi.recv",
        TransportKind::ScalableComm => "sc.recv",
        TransportKind::BlockManager => "bm.recv",
    }
}

fn record_send(kind: TransportKind, from: ExecutorId, to: ExecutorId, channel: usize, bytes: usize) {
    static SENDS: OnceLock<Arc<Counter>> = OnceLock::new();
    static SEND_BYTES: OnceLock<Arc<Counter>> = OnceLock::new();
    static MSG_BYTES: OnceLock<Arc<Histogram>> = OnceLock::new();
    trace::event(
        Layer::Net,
        send_span_name(kind),
        &[
            ("from", from.0 as u64),
            ("to", to.0 as u64),
            ("channel", channel as u64),
            ("bytes", bytes as u64),
        ],
    );
    SENDS.get_or_init(|| metrics::counter("net.send.messages")).inc();
    SEND_BYTES.get_or_init(|| metrics::counter("net.send.bytes")).add(bytes as u64);
    MSG_BYTES.get_or_init(|| metrics::histogram("net.msg_bytes")).observe(bytes as u64);
}

fn record_recv(
    kind: TransportKind,
    at: ExecutorId,
    from: ExecutorId,
    channel: usize,
    bytes: usize,
    started: Instant,
) {
    static RECVS: OnceLock<Arc<Counter>> = OnceLock::new();
    trace::event_dur(
        Layer::Net,
        recv_span_name(kind),
        started,
        &[
            ("at", at.0 as u64),
            ("from", from.0 as u64),
            ("channel", channel as u64),
            ("bytes", bytes as u64),
        ],
    );
    RECVS.get_or_init(|| metrics::counter("net.recv.messages")).inc();
}

/// Fully-connected mesh over in-process channels.
pub struct MeshTransport {
    n: usize,
    channels: usize,
    kind: TransportKind,
    /// Node index per executor (dense by executor id).
    node_of: Vec<usize>,
    /// `links[(from * n + to) * channels + ch]`.
    tx: Vec<Sender<ByteBuf>>,
    rx: Vec<Receiver<ByteBuf>>,
    stats: NetStats,
}

impl MeshTransport {
    /// Builds a mesh over `executors` with `channels` parallel channels per
    /// directed pair. `kind` names the mesh's spans in a trace.
    pub fn new(executors: &[ExecutorInfo], channels: usize, kind: TransportKind) -> Arc<Self> {
        assert!(!executors.is_empty());
        assert!(channels > 0);
        let n = executors.len();
        let mut node_of = vec![0usize; n];
        for e in executors {
            assert!(e.id.index() < n, "executor ids must be dense");
            node_of[e.id.index()] = e.node;
        }
        let (tx, rx) = (0..n * n * channels).map(|_| channel()).unzip();
        Arc::new(Self { n, channels, kind, node_of, tx, rx, stats: NetStats::default() })
    }

    /// A scalable-communicator mesh (tests, probes, collectives harness).
    pub fn unshaped(executors: &[ExecutorInfo], channels: usize) -> Arc<Self> {
        Self::new(executors, channels, TransportKind::ScalableComm)
    }

    fn idx(&self, from: ExecutorId, to: ExecutorId, channel: usize) -> NetResult<usize> {
        let (f, t) = (from.index(), to.index());
        if f >= self.n || t >= self.n || channel >= self.channels {
            return Err(NetError::InvalidAddress(format!(
                "({from}, {to}, ch{channel}) outside mesh of {} executors x {} channels",
                self.n, self.channels
            )));
        }
        Ok((f * self.n + t) * self.channels + channel)
    }

    /// Which transport this mesh's spans are labelled as.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            messages: self.stats.messages.load(Ordering::Relaxed),
            bytes: self.stats.bytes.load(Ordering::Relaxed),
            inter_node_messages: self.stats.inter_node_messages.load(Ordering::Relaxed),
            inter_node_bytes: self.stats.inter_node_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Transport for MeshTransport {
    fn size(&self) -> usize {
        self.n
    }

    fn channels(&self) -> usize {
        self.channels
    }

    fn send(&self, from: ExecutorId, to: ExecutorId, channel: usize, msg: ByteBuf) -> NetResult<()> {
        let idx = self.idx(from, to, channel)?;
        let nbytes = msg.len();
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(nbytes as u64, Ordering::Relaxed);
        if self.node_of[from.index()] != self.node_of[to.index()] {
            self.stats.inter_node_messages.fetch_add(1, Ordering::Relaxed);
            self.stats.inter_node_bytes.fetch_add(nbytes as u64, Ordering::Relaxed);
        }
        self.tx[idx].send(msg).map_err(|_| NetError::Disconnected)?;
        if trace::enabled() {
            record_send(self.kind, from, to, channel, nbytes);
        }
        Ok(())
    }

    fn recv(&self, at: ExecutorId, from: ExecutorId, channel: usize) -> NetResult<ByteBuf> {
        let started = trace::enabled().then(Instant::now);
        let idx = self.idx(from, at, channel)?;
        let m = self.rx[idx].recv().map_err(|_| NetError::Disconnected)?;
        if let Some(t0) = started {
            record_recv(self.kind, at, from, channel, m.len(), t0);
        }
        Ok(m)
    }

    fn recv_timeout(
        &self,
        at: ExecutorId,
        from: ExecutorId,
        channel: usize,
        timeout: Duration,
    ) -> NetResult<ByteBuf> {
        // Only successful receives are recorded: collective receivers poll
        // this in a 10 ms quantum loop, and a span per empty poll would
        // drown the trace.
        let started = trace::enabled().then(Instant::now);
        let idx = self.idx(from, at, channel)?;
        let m = self.rx[idx].recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })?;
        if let Some(t0) = started {
            record_recv(self.kind, at, from, channel, m.len(), t0);
        }
        Ok(m)
    }

    fn drain_all(&self) -> usize {
        let mut dropped = 0;
        for rx in &self.rx {
            while rx.try_recv().is_some() {
                dropped += 1;
            }
        }
        dropped
    }
}

/// A transport bound to one executor: the view collective algorithms use.
#[derive(Clone)]
pub struct Endpoint {
    net: Arc<dyn Transport>,
    me: ExecutorId,
}

impl Endpoint {
    /// Binds `net` to executor `me`.
    pub fn new(net: Arc<dyn Transport>, me: ExecutorId) -> Self {
        Self { net, me }
    }

    /// The executor this endpoint speaks as.
    pub fn id(&self) -> ExecutorId {
        self.me
    }

    /// Channels per directed pair on the underlying transport.
    pub fn channels(&self) -> usize {
        self.net.channels()
    }

    /// Sends `msg` from this executor to `to` on `channel`.
    pub fn send(&self, to: ExecutorId, channel: usize, msg: ByteBuf) -> NetResult<()> {
        self.net.send(self.me, to, channel, msg)
    }

    /// Blocks for the next frame from `from` on `channel`.
    pub fn recv(&self, from: ExecutorId, channel: usize) -> NetResult<ByteBuf> {
        self.net.recv(self.me, from, channel)
    }

    /// Like [`Endpoint::recv`] with an upper bound on the wait.
    pub fn recv_timeout(
        &self,
        from: ExecutorId,
        channel: usize,
        timeout: Duration,
    ) -> NetResult<ByteBuf> {
        self.net.recv_timeout(self.me, from, channel, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::round_robin_layout;

    fn two_execs() -> Vec<ExecutorInfo> {
        round_robin_layout(2, 1, 1)
    }

    #[test]
    fn unshaped_send_recv_roundtrip() {
        let execs = two_execs();
        let net = MeshTransport::unshaped(&execs, 2);
        net.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"hello"))
            .unwrap();
        let got = net.recv(ExecutorId(1), ExecutorId(0), 0).unwrap();
        assert_eq!(&got[..], b"hello");
    }

    #[test]
    fn channels_are_independent_fifos() {
        let execs = two_execs();
        let net = MeshTransport::unshaped(&execs, 2);
        net.send(ExecutorId(0), ExecutorId(1), 1, ByteBuf::from_static(b"ch1"))
            .unwrap();
        net.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"ch0-a"))
            .unwrap();
        net.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from_static(b"ch0-b"))
            .unwrap();
        assert_eq!(&net.recv(ExecutorId(1), ExecutorId(0), 0).unwrap()[..], b"ch0-a");
        assert_eq!(&net.recv(ExecutorId(1), ExecutorId(0), 1).unwrap()[..], b"ch1");
        assert_eq!(&net.recv(ExecutorId(1), ExecutorId(0), 0).unwrap()[..], b"ch0-b");
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let execs = two_execs();
        let net = MeshTransport::unshaped(&execs, 1);
        assert!(matches!(
            net.send(ExecutorId(0), ExecutorId(5), 0, ByteBuf::new()),
            Err(NetError::InvalidAddress(_))
        ));
        assert!(matches!(
            net.recv_timeout(ExecutorId(0), ExecutorId(1), 3, Duration::from_millis(1)),
            Err(NetError::InvalidAddress(_))
        ));
    }

    #[test]
    fn recv_timeout_expires_when_no_message() {
        let execs = two_execs();
        let net = MeshTransport::unshaped(&execs, 1);
        let err = net
            .recv_timeout(ExecutorId(1), ExecutorId(0), 0, Duration::from_millis(5))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let execs = round_robin_layout(2, 2, 1); // 4 executors, 2 nodes round-robin
        let net = MeshTransport::unshaped(&execs, 1);
        // exec0 (node0) -> exec2 (node0): intra. exec0 -> exec1 (node1): inter.
        net.send(ExecutorId(0), ExecutorId(2), 0, ByteBuf::from(vec![0; 10])).unwrap();
        net.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from(vec![0; 7])).unwrap();
        let s = net.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 17);
        assert_eq!(s.inter_node_messages, 1);
        assert_eq!(s.inter_node_bytes, 7);
    }

    #[test]
    fn cross_thread_ping_pong() {
        let execs = two_execs();
        let net = MeshTransport::unshaped(&execs, 1);
        let net2 = net.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                let m = net2.recv(ExecutorId(1), ExecutorId(0), 0).unwrap();
                net2.send(ExecutorId(1), ExecutorId(0), 0, m).unwrap();
            }
        });
        for i in 0..100u32 {
            net.send(ExecutorId(0), ExecutorId(1), 0, ByteBuf::from(i.to_le_bytes().to_vec()))
                .unwrap();
            let back = net.recv(ExecutorId(0), ExecutorId(1), 0).unwrap();
            assert_eq!(u32::from_le_bytes(back[..].try_into().unwrap()), i);
        }
        t.join().unwrap();
    }

    #[test]
    fn endpoint_binds_identity() {
        let execs = two_execs();
        let net = MeshTransport::unshaped(&execs, 1);
        let a = Endpoint::new(net.clone(), ExecutorId(0));
        let b = Endpoint::new(net, ExecutorId(1));
        a.send(b.id(), 0, ByteBuf::from_static(b"ping")).unwrap();
        assert_eq!(&b.recv(a.id(), 0).unwrap()[..], b"ping");
        assert_eq!(a.id(), ExecutorId(0));
        assert_eq!(a.channels(), 1);
    }
}
