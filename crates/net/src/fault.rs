//! Deterministic transport-level fault injection.
//!
//! The engine's original `FaultPlan` injects failures only at task-body
//! start, which never exercises a collective *mid-flight*: the interesting
//! failures for MPI-style collectives are a frame that vanishes between two
//! ring neighbours, a link that stalls, a payload that arrives mangled, or an
//! executor that dies after its Kth send. [`NetFaultPlan`] describes exactly
//! those events and [`FaultyTransport`] replays them deterministically around
//! any inner [`Transport`], so a chaos seed reproduces the same fault
//! sequence on every run.
//!
//! Coordinates are *per directed link* `(from, to)` send sequence numbers,
//! 0-based, counted across all channels of the link — the Nth `send` call on
//! that link triggers the fault regardless of which channel carried it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use sparker_obs::{trace, Layer};

use crate::bytebuf::ByteBuf;
use crate::error::{NetError, NetResult};
use crate::sync::Mutex;
use crate::topology::ExecutorId;
use crate::transport::Transport;

/// One directed link, by executor index.
type Link = (u32, u32);

/// A deterministic, replayable schedule of network faults.
///
/// Build one with the chained setters, then wrap a transport via
/// [`FaultyTransport::new`]. Plans are immutable once built; all mutable
/// replay state lives in the transport decorator.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Link-seq pairs whose frame is silently dropped.
    drops: HashSet<(Link, u64)>,
    /// Link-seq pairs whose frame is delayed by the given duration.
    delays: HashMap<(Link, u64), Duration>,
    /// Link-seq pairs whose payload has one byte flipped.
    corrupts: HashSet<(Link, u64)>,
    /// Executors that die after completing this many sends.
    kills: HashMap<u32, u64>,
    /// Links that silently drop every frame.
    partitioned: HashSet<Link>,
}

impl NetFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
            && self.delays.is_empty()
            && self.corrupts.is_empty()
            && self.kills.is_empty()
            && self.partitioned.is_empty()
    }

    /// Silently drops the `n`th (0-based) send on the directed link
    /// `from -> to`.
    pub fn drop_nth(mut self, from: ExecutorId, to: ExecutorId, n: u64) -> Self {
        self.drops.insert(((from.0, to.0), n));
        self
    }

    /// Delays delivery of the `n`th send on `from -> to` by `delay`.
    pub fn delay_nth(mut self, from: ExecutorId, to: ExecutorId, n: u64, delay: Duration) -> Self {
        self.delays.insert(((from.0, to.0), n), delay);
        self
    }

    /// Flips one payload byte of the `n`th send on `from -> to`.
    pub fn corrupt_nth(mut self, from: ExecutorId, to: ExecutorId, n: u64) -> Self {
        self.corrupts.insert(((from.0, to.0), n));
        self
    }

    /// Kills `executor` after it completes `k` sends: every later send from
    /// it fails with [`NetError::Disconnected`], permanently.
    pub fn kill_after_sends(mut self, executor: ExecutorId, k: u64) -> Self {
        self.kills.insert(executor.0, k);
        self
    }

    /// Partitions the given directed links: every frame on them is dropped.
    pub fn partition(mut self, links: &[(ExecutorId, ExecutorId)]) -> Self {
        for &(from, to) in links {
            self.partitioned.insert((from.0, to.0));
        }
        self
    }

    // --- read-side queries -------------------------------------------------
    //
    // [`FaultyTransport`] replays plans against a live transport; the DES
    // (`sparker_tuner::elastic`) replays the *same plans* against simulated
    // op-graphs. These queries expose the plan's verdicts without giving the
    // replayer mutable access, so both consumers stay in lock-step on what a
    // given (link, seq) coordinate means.

    /// Would the `n`th (0-based) send on `from -> to` be dropped (either by
    /// a one-shot drop or a standing partition)?
    pub fn drops_nth(&self, from: ExecutorId, to: ExecutorId, n: u64) -> bool {
        self.partitioned.contains(&(from.0, to.0)) || self.drops.contains(&((from.0, to.0), n))
    }

    /// Injected delivery delay for the `n`th send on `from -> to`, if any.
    pub fn delay_of_nth(&self, from: ExecutorId, to: ExecutorId, n: u64) -> Option<Duration> {
        self.delays.get(&((from.0, to.0), n)).copied()
    }

    /// Would the `n`th send on `from -> to` arrive with a flipped byte?
    pub fn corrupts_nth(&self, from: ExecutorId, to: ExecutorId, n: u64) -> bool {
        self.corrupts.contains(&((from.0, to.0), n))
    }

    /// Send count after which `executor` dies, if it has a kill schedule.
    pub fn kill_threshold(&self, executor: ExecutorId) -> Option<u64> {
        self.kills.get(&executor.0).copied()
    }

    /// Is the directed link `from -> to` under a standing partition?
    pub fn is_partitioned(&self, from: ExecutorId, to: ExecutorId) -> bool {
        self.partitioned.contains(&(from.0, to.0))
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Next send sequence number per directed link.
    link_seq: HashMap<Link, u64>,
    /// Completed sends per executor (for kill schedules).
    sends_by: HashMap<u32, u64>,
    /// Executors whose kill schedule has fired.
    dead: HashSet<u32>,
}

/// A [`Transport`] decorator that replays a [`NetFaultPlan`].
///
/// Receives are passed through untouched: every injectable fault manifests on
/// the send side (a dropped or corrupted frame is observed by the receiver as
/// a timeout or a codec error, exactly like a real network).
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: NetFaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyTransport {
    /// Wraps `inner`, replaying `plan` against its traffic.
    pub fn new(inner: Arc<dyn Transport>, plan: NetFaultPlan) -> Arc<Self> {
        Arc::new(Self { inner, plan, state: Mutex::new(FaultState::default()) })
    }

    /// The plan this decorator replays.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// True once `executor`'s kill schedule has fired.
    pub fn is_dead(&self, executor: ExecutorId) -> bool {
        self.state.lock().dead.contains(&executor.0)
    }
}

/// What the plan says should happen to one send.
enum Verdict {
    Forward,
    Drop,
    SenderDead,
    Corrupt,
    Delay(Duration),
}

impl FaultyTransport {
    fn judge(&self, from: ExecutorId, to: ExecutorId) -> Verdict {
        let link = (from.0, to.0);
        let mut s = self.state.lock();
        if s.dead.contains(&from.0) {
            return Verdict::SenderDead;
        }
        if let Some(&k) = self.plan.kills.get(&from.0) {
            if s.sends_by.get(&from.0).copied().unwrap_or(0) >= k {
                s.dead.insert(from.0);
                return Verdict::SenderDead;
            }
        }
        // The send will complete (possibly as a silent drop); account for it.
        *s.sends_by.entry(from.0).or_insert(0) += 1;
        let seq = s.link_seq.entry(link).or_insert(0);
        let this_seq = *seq;
        *seq += 1;
        drop(s);

        if self.plan.partitioned.contains(&link) || self.plan.drops.contains(&(link, this_seq)) {
            Verdict::Drop
        } else if self.plan.corrupts.contains(&(link, this_seq)) {
            Verdict::Corrupt
        } else if let Some(&d) = self.plan.delays.get(&(link, this_seq)) {
            Verdict::Delay(d)
        } else {
            Verdict::Forward
        }
    }
}

impl Transport for FaultyTransport {
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn channels(&self) -> usize {
        self.inner.channels()
    }

    fn send(&self, from: ExecutorId, to: ExecutorId, channel: usize, msg: ByteBuf) -> NetResult<()> {
        let fault_event = |name: &str| {
            trace::event(Layer::Net, name, &[("from", from.0 as u64), ("to", to.0 as u64)]);
        };
        match self.judge(from, to) {
            Verdict::SenderDead => {
                fault_event("fault.dead");
                Err(NetError::Disconnected)
            }
            Verdict::Drop => {
                fault_event("fault.drop");
                Ok(())
            }
            Verdict::Forward => self.inner.send(from, to, channel, msg),
            Verdict::Corrupt => {
                fault_event("fault.corrupt");
                let mut bytes = msg.to_vec();
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0x01;
                }
                self.inner.send(from, to, channel, ByteBuf::from(bytes))
            }
            Verdict::Delay(d) => {
                fault_event("fault.delay");
                std::thread::sleep(d);
                self.inner.send(from, to, channel, msg)
            }
        }
    }

    fn recv(&self, at: ExecutorId, from: ExecutorId, channel: usize) -> NetResult<ByteBuf> {
        self.inner.recv(at, from, channel)
    }

    fn recv_timeout(
        &self,
        at: ExecutorId,
        from: ExecutorId,
        channel: usize,
        timeout: Duration,
    ) -> NetResult<ByteBuf> {
        self.inner.recv_timeout(at, from, channel, timeout)
    }

    fn drain_all(&self) -> usize {
        self.inner.drain_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::round_robin_layout;
    use crate::transport::MeshTransport;

    fn mesh(n: usize) -> Arc<MeshTransport> {
        MeshTransport::unshaped(&round_robin_layout(n, 1, 1), 2)
    }

    const E0: ExecutorId = ExecutorId(0);
    const E1: ExecutorId = ExecutorId(1);

    #[test]
    fn clean_plan_forwards_everything() {
        let net = FaultyTransport::new(mesh(2), NetFaultPlan::new());
        net.send(E0, E1, 0, ByteBuf::from_static(b"hi")).unwrap();
        assert_eq!(&net.recv(E1, E0, 0).unwrap()[..], b"hi");
    }

    #[test]
    fn drop_nth_skips_exactly_that_send() {
        let net = FaultyTransport::new(mesh(2), NetFaultPlan::new().drop_nth(E0, E1, 1));
        for m in [b"a", b"b", b"c"] {
            net.send(E0, E1, 0, ByteBuf::from_static(m)).unwrap();
        }
        assert_eq!(&net.recv(E1, E0, 0).unwrap()[..], b"a");
        assert_eq!(&net.recv(E1, E0, 0).unwrap()[..], b"c");
        assert_eq!(
            net.recv_timeout(E1, E0, 0, Duration::from_millis(5)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn link_sequence_counts_across_channels() {
        // Seq 1 on the link is the channel-1 send, even though channel 0
        // carried seq 0.
        let net = FaultyTransport::new(mesh(2), NetFaultPlan::new().drop_nth(E0, E1, 1));
        net.send(E0, E1, 0, ByteBuf::from_static(b"ch0")).unwrap();
        net.send(E0, E1, 1, ByteBuf::from_static(b"ch1")).unwrap();
        assert_eq!(&net.recv(E1, E0, 0).unwrap()[..], b"ch0");
        assert_eq!(
            net.recv_timeout(E1, E0, 1, Duration::from_millis(5)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn corrupt_nth_flips_a_byte() {
        let net = FaultyTransport::new(mesh(2), NetFaultPlan::new().corrupt_nth(E0, E1, 0));
        net.send(E0, E1, 0, ByteBuf::from_static(b"abc")).unwrap();
        assert_eq!(&net.recv(E1, E0, 0).unwrap()[..], b"ab\x62");
    }

    #[test]
    fn delay_nth_stalls_delivery() {
        let net = FaultyTransport::new(
            mesh(2),
            NetFaultPlan::new().delay_nth(E0, E1, 0, Duration::from_millis(20)),
        );
        let start = std::time::Instant::now();
        net.send(E0, E1, 0, ByteBuf::from_static(b"slow")).unwrap();
        assert_eq!(&net.recv(E1, E0, 0).unwrap()[..], b"slow");
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn kill_after_sends_is_permanent() {
        let net = FaultyTransport::new(mesh(2), NetFaultPlan::new().kill_after_sends(E0, 2));
        net.send(E0, E1, 0, ByteBuf::new()).unwrap();
        net.send(E0, E1, 0, ByteBuf::new()).unwrap();
        assert_eq!(net.send(E0, E1, 0, ByteBuf::new()), Err(NetError::Disconnected));
        assert_eq!(net.send(E0, E1, 1, ByteBuf::new()), Err(NetError::Disconnected));
        assert!(net.is_dead(E0));
        assert!(!net.is_dead(E1));
        // Other executors are unaffected.
        net.send(E1, E0, 0, ByteBuf::from_static(b"ok")).unwrap();
        assert_eq!(&net.recv(E0, E1, 0).unwrap()[..], b"ok");
    }

    #[test]
    fn partition_drops_every_frame_on_the_link() {
        let net = FaultyTransport::new(mesh(2), NetFaultPlan::new().partition(&[(E0, E1)]));
        for _ in 0..3 {
            net.send(E0, E1, 0, ByteBuf::from_static(b"lost")).unwrap();
        }
        assert_eq!(
            net.recv_timeout(E1, E0, 0, Duration::from_millis(5)),
            Err(NetError::Timeout)
        );
        // Reverse direction is untouched.
        net.send(E1, E0, 0, ByteBuf::from_static(b"back")).unwrap();
        assert_eq!(&net.recv(E0, E1, 0).unwrap()[..], b"back");
    }

    #[test]
    fn read_side_queries_agree_with_replay_verdicts() {
        let plan = NetFaultPlan::new()
            .drop_nth(E0, E1, 1)
            .delay_nth(E0, E1, 2, Duration::from_millis(7))
            .corrupt_nth(E1, E0, 0)
            .kill_after_sends(E0, 5)
            .partition(&[(E1, E0)]);
        assert!(!plan.drops_nth(E0, E1, 0));
        assert!(plan.drops_nth(E0, E1, 1));
        assert!(plan.drops_nth(E1, E0, 9), "partition drops every seq");
        assert!(plan.is_partitioned(E1, E0));
        assert!(!plan.is_partitioned(E0, E1));
        assert_eq!(plan.delay_of_nth(E0, E1, 2), Some(Duration::from_millis(7)));
        assert_eq!(plan.delay_of_nth(E0, E1, 3), None);
        assert!(plan.corrupts_nth(E1, E0, 0));
        assert!(!plan.corrupts_nth(E0, E1, 0));
        assert_eq!(plan.kill_threshold(E0), Some(5));
        assert_eq!(plan.kill_threshold(E1), None);
    }

    #[test]
    fn drain_all_reaches_the_inner_mesh() {
        let inner = mesh(2);
        let net = FaultyTransport::new(inner.clone(), NetFaultPlan::new());
        net.send(E0, E1, 0, ByteBuf::from_static(b"x")).unwrap();
        net.send(E0, E1, 1, ByteBuf::from_static(b"y")).unwrap();
        assert_eq!(net.drain_all(), 2);
        assert_eq!(
            net.recv_timeout(E1, E0, 0, Duration::from_millis(5)),
            Err(NetError::Timeout)
        );
    }
}
