//! Rank-bound communicator: one executor's view of the ring.
//!
//! Collective algorithms address peers by *ring rank*, not executor id; the
//! mapping between the two is the topology-awareness policy (see
//! [`sparker_net::topology`]). A [`RingComm`] owns that translation plus the
//! per-channel send/recv primitives, so algorithm code reads like its MPI
//! counterpart.
//!
//! # Epoch fencing and gang cancellation
//!
//! Every frame a `RingComm` sends carries an `(op, attempt)` epoch header
//! (see [`sparker_net::epoch`]), written in place ahead of the payload;
//! `recv` silently discards frames whose epoch does not match its own, so a
//! frame left over from a failed stage attempt can never be consumed by the
//! retry. A comm may also carry a shared cancel token
//! ([`with_cancel`](RingComm::with_cancel)) and a receive deadline
//! ([`with_recv_deadline`](RingComm::with_recv_deadline)): receives
//! then poll in bounded quanta, aborting with [`NetError::Cancelled`] the
//! moment a gang peer fails, or [`NetError::Timeout`] when the deadline
//! passes — a dead ring neighbour stalls a task for the deadline, never
//! forever.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparker_net::codec::Payload;
use sparker_net::epoch::{self, FrameWriter};
use sparker_net::ByteBuf;

use sparker_net::error::{NetError, NetResult};
use sparker_net::topology::RingTopology;
use sparker_net::transport::Transport;

/// How often a receive wakes up to check the cancel token / deadline.
const POLL_QUANTUM: Duration = Duration::from_millis(10);

/// A transport bound to one ring rank.
#[derive(Clone)]
pub struct RingComm {
    net: Arc<dyn Transport>,
    ring: Arc<RingTopology>,
    rank: usize,
    /// `(op, attempt)` stamped on every outgoing frame and required of every
    /// incoming one.
    epoch: (u64, u32),
    /// Gang cancel token; set means "abandon the collective now".
    cancel: Option<Arc<AtomicBool>>,
    /// Upper bound on any single receive; `None` blocks indefinitely.
    recv_deadline: Option<Duration>,
}

impl RingComm {
    /// Binds `net` to the executor occupying `rank` in `ring`, at epoch
    /// `(0, 0)` with no cancel token and no receive deadline.
    pub fn new(net: Arc<dyn Transport>, ring: Arc<RingTopology>, rank: usize) -> Self {
        assert!(rank < ring.size(), "rank {rank} out of ring of {}", ring.size());
        assert!(
            ring.parallelism() <= net.channels(),
            "ring parallelism {} exceeds transport channels {}",
            ring.parallelism(),
            net.channels()
        );
        Self { net, ring, rank, epoch: (0, 0), cancel: None, recv_deadline: None }
    }

    /// Stamps this comm with a collective epoch. Both ends of every link must
    /// agree (the driver hands all gang tasks the same `(op, attempt)`).
    pub fn with_epoch(mut self, op: u64, attempt: u32) -> Self {
        self.epoch = (op, attempt);
        self
    }

    /// Attaches the gang's shared cancel token.
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Bounds every receive: a silent peer fails the call with
    /// [`NetError::Timeout`] after `deadline` instead of blocking forever.
    pub fn with_recv_deadline(mut self, deadline: Duration) -> Self {
        self.recv_deadline = Some(deadline);
        self
    }

    /// Derives a communicator bound to `rank` in `sub` — a different ring
    /// over the *same* transport (e.g. the node-leader ring of a
    /// hierarchical collective). Epoch, cancel token, and receive deadline
    /// carry over, so sub-ring traffic stays fenced to the same collective
    /// attempt and aborts with the same gang.
    pub fn subring(&self, sub: Arc<RingTopology>, rank: usize) -> RingComm {
        assert!(rank < sub.size(), "rank {rank} out of ring of {}", sub.size());
        assert!(
            sub.parallelism() <= self.net.channels(),
            "ring parallelism {} exceeds transport channels {}",
            sub.parallelism(),
            self.net.channels()
        );
        Self {
            net: self.net.clone(),
            ring: sub,
            rank,
            epoch: self.epoch,
            cancel: self.cancel.clone(),
            recv_deadline: self.recv_deadline,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.ring.size()
    }

    /// Channel parallelism of the PDR (the paper's `P`).
    pub fn parallelism(&self) -> usize {
        self.ring.parallelism()
    }

    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// The `(op, attempt)` epoch this comm stamps on its frames.
    pub fn epoch(&self) -> (u64, u32) {
        self.epoch
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.load(Ordering::Relaxed))
    }

    /// Opens an epoch frame at this comm's epoch with room for `payload_len`
    /// payload bytes; the caller writes the payload straight behind the
    /// header and hands the frame to [`RingComm::send_frame`].
    pub fn frame(&self, payload_len: usize) -> FrameWriter {
        FrameWriter::new(self.epoch.0, self.epoch.1, payload_len)
    }

    /// [`RingComm::frame`] holding `value`, encoded straight behind the
    /// header.
    pub fn frame_of<V: Payload>(&self, value: &V) -> FrameWriter {
        let mut frame = self.frame(value.size_hint());
        value.encode_into(frame.encoder());
        frame
    }

    /// Seals `frame` and sends it to `rank` on `channel`.
    pub fn send_frame(&self, rank: usize, channel: usize, frame: FrameWriter) -> NetResult<()> {
        if self.cancelled() {
            return Err(NetError::Cancelled);
        }
        let me = self.ring.executor_at(self.rank).id;
        let to = self.ring.executor_at(rank).id;
        self.net.send(me, to, channel, frame.finish())
    }

    /// Sends raw payload bytes to the next rank around the ring on `channel`.
    pub fn send_next(&self, channel: usize, msg: ByteBuf) -> NetResult<()> {
        self.send_to_rank(self.ring.next(self.rank), channel, msg)
    }

    /// Receives from the previous rank around the ring on `channel`.
    pub fn recv_prev(&self, channel: usize) -> NetResult<ByteBuf> {
        self.recv_from_rank(self.ring.prev(self.rank), channel)
    }

    /// Sends raw payload bytes to an arbitrary rank, copied behind the epoch
    /// header.
    pub fn send_to_rank(&self, rank: usize, channel: usize, msg: ByteBuf) -> NetResult<()> {
        let mut frame = self.frame(msg.len());
        frame.put_raw(&msg);
        self.send_frame(rank, channel, frame)
    }

    /// Receives from an arbitrary rank, honouring this comm's deadline.
    pub fn recv_from_rank(&self, rank: usize, channel: usize) -> NetResult<ByteBuf> {
        self.recv_fenced(rank, channel, self.recv_deadline)
    }

    /// Receives from an arbitrary rank with an explicit deadline (overrides
    /// the comm-level one; used by tests to turn deadlocks into failures).
    pub fn recv_from_rank_timeout(
        &self,
        rank: usize,
        channel: usize,
        timeout: Duration,
    ) -> NetResult<ByteBuf> {
        self.recv_fenced(rank, channel, Some(timeout))
    }

    /// The fenced receive loop: polls in bounded quanta so cancellation and
    /// the deadline are observed even while the link is silent, and discards
    /// frames from other epochs.
    fn recv_fenced(
        &self,
        rank: usize,
        channel: usize,
        deadline: Option<Duration>,
    ) -> NetResult<ByteBuf> {
        let me = self.ring.executor_at(self.rank).id;
        let from = self.ring.executor_at(rank).id;
        let expire = deadline.map(|d| Instant::now() + d);
        loop {
            if self.cancelled() {
                return Err(NetError::Cancelled);
            }
            // Wait one quantum, or less if the deadline is nearer; an elapsed
            // deadline still grants a zero-length poll so an already-queued
            // frame beats a timeout.
            let mut quantum = POLL_QUANTUM;
            if let Some(expire) = expire {
                quantum = quantum.min(expire.saturating_duration_since(Instant::now()));
            }
            match self.net.recv_timeout(me, from, channel, quantum) {
                Ok(frame) => {
                    let (op, attempt, payload) = epoch::unwrap(frame)?;
                    if (op, attempt) == self.epoch {
                        return Ok(payload);
                    }
                    // Stale epoch: a leftover from a failed attempt (or an
                    // op that already tore down). Discard and keep waiting;
                    // the dead frame's allocation goes back to the pool.
                    sparker_net::pool::global().recycle_frame(payload);
                }
                Err(NetError::Timeout) => {
                    if let Some(expire) = expire {
                        if Instant::now() >= expire {
                            return Err(NetError::Timeout);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_net::topology::{round_robin_layout, RingOrder};
    use sparker_net::transport::MeshTransport;

    fn comm_pair() -> (RingComm, RingComm) {
        let execs = round_robin_layout(2, 1, 1);
        let net = MeshTransport::unshaped(&execs, 2);
        let ring = Arc::new(RingTopology::new(execs, RingOrder::ById, 2));
        (
            RingComm::new(net.clone(), ring.clone(), 0),
            RingComm::new(net, ring, 1),
        )
    }

    #[test]
    fn ring_send_recv_by_rank() {
        let (a, b) = comm_pair();
        a.send_next(0, ByteBuf::from_static(b"fwd")).unwrap();
        assert_eq!(&b.recv_prev(0).unwrap()[..], b"fwd");
        b.send_next(1, ByteBuf::from_static(b"wrap")).unwrap();
        assert_eq!(&a.recv_prev(1).unwrap()[..], b"wrap");
    }

    #[test]
    fn topology_aware_rank_differs_from_executor_id() {
        // Round-robin over 2 nodes: executors 0,2 on node-000; 1,3 on node-001.
        // Topology-aware order: [0, 2, 1, 3] => executor 2 has rank 1.
        let execs = round_robin_layout(2, 2, 1);
        let net = MeshTransport::unshaped(&execs, 1);
        let ring = Arc::new(RingTopology::new(execs, RingOrder::TopologyAware, 1));
        assert_eq!(ring.executor_at(1).id.0, 2);
        let c = RingComm::new(net, ring, 1);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 4);
    }

    #[test]
    #[should_panic(expected = "out of ring")]
    fn rank_out_of_range_panics() {
        let execs = round_robin_layout(2, 1, 1);
        let net = MeshTransport::unshaped(&execs, 1);
        let ring = Arc::new(RingTopology::new(execs, RingOrder::ById, 1));
        RingComm::new(net, ring, 5);
    }

    #[test]
    #[should_panic(expected = "exceeds transport channels")]
    fn parallelism_beyond_channels_panics() {
        let execs = round_robin_layout(2, 1, 1);
        let net = MeshTransport::unshaped(&execs, 1);
        let ring = Arc::new(RingTopology::new(execs, RingOrder::ById, 4));
        RingComm::new(net, ring, 0);
    }

    #[test]
    fn stale_epoch_frames_are_discarded() {
        let (a, b) = comm_pair();
        let a_old = a.clone().with_epoch(7, 0);
        let a_new = a.with_epoch(7, 1);
        let b_new = b.with_epoch(7, 1);
        // A stale attempt-0 frame arrives first; the attempt-1 receiver must
        // skip it and deliver the attempt-1 frame.
        a_old.send_next(0, ByteBuf::from_static(b"stale")).unwrap();
        a_new.send_next(0, ByteBuf::from_static(b"fresh")).unwrap();
        assert_eq!(&b_new.recv_prev(0).unwrap()[..], b"fresh");
    }

    #[test]
    fn mismatched_epoch_times_out_rather_than_misdelivers() {
        let (a, b) = comm_pair();
        let b = b.with_epoch(1, 1);
        a.send_next(0, ByteBuf::from_static(b"old-epoch")).unwrap();
        assert_eq!(
            b.recv_from_rank_timeout(0, 0, Duration::from_millis(30)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn cancel_token_aborts_a_blocked_recv() {
        let (_a, b) = comm_pair();
        let token = Arc::new(AtomicBool::new(false));
        let b = b.with_cancel(token.clone());
        let t = std::thread::spawn(move || b.recv_prev(0));
        std::thread::sleep(Duration::from_millis(30));
        token.store(true, Ordering::Relaxed);
        assert_eq!(t.join().unwrap(), Err(NetError::Cancelled));
    }

    #[test]
    fn cancel_token_fails_sends_immediately() {
        let (a, _b) = comm_pair();
        let token = Arc::new(AtomicBool::new(true));
        let a = a.with_cancel(token);
        assert_eq!(a.send_next(0, ByteBuf::new()), Err(NetError::Cancelled));
    }

    #[test]
    fn recv_deadline_bounds_a_silent_link() {
        let (_a, b) = comm_pair();
        let b = b.with_recv_deadline(Duration::from_millis(25));
        let start = Instant::now();
        assert_eq!(b.recv_prev(0), Err(NetError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn corrupt_frame_is_a_codec_error() {
        let execs = round_robin_layout(2, 1, 1);
        let net = MeshTransport::unshaped(&execs, 1);
        let ring = Arc::new(RingTopology::new(execs.clone(), RingOrder::ById, 1));
        let b = RingComm::new(net.clone(), ring, 1);
        // Raw (unwrapped) bytes on the wire: the fence must reject them.
        use sparker_net::transport::Transport as _;
        net.send(
            execs[0].id,
            execs[1].id,
            0,
            ByteBuf::from_static(b"not an epoch frame"),
        )
        .unwrap();
        assert!(matches!(b.recv_prev(0), Err(NetError::Codec(_))));
    }
}
