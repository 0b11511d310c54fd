//! Multi-process split aggregation: the SPMD driver/executor protocol that
//! runs the full collective stack across OS processes over real TCP.
//!
//! The in-process engine ([`crate::cluster`]) models executors as threads;
//! this module is the production-shaped variant the paper actually ships:
//! every executor is its own process, joined to the driver through
//! [`sparker_net::tcp::rendezvous`], with two planes of traffic:
//!
//! * **control plane** — the blocking driver↔executor socket from
//!   rendezvous. The driver dispatches [`DriverMsg::Run`] jobs carrying a
//!   full [`JobSpec`]; executors answer [`ExecMsg::JobOk`] (their owned,
//!   fully-reduced segments) or [`ExecMsg::JobErr`].
//! * **data plane** — the [`sparker_net::tcp::TcpTransport`] peer mesh,
//!   where the reduce-scatter [`JobSpec::algo`] names runs through the same
//!   dispatch as in-process ([`crate::ops::reduce`]), epoch-fenced exactly
//!   as in-process ([`sparker_collectives::RingComm`]).
//!
//! # Recovery semantics (DESIGN.md §5h)
//!
//! Partition data is a *pure function* of `(seed, part)` — the multi-process
//! equivalent of RDD lineage: any executor can recompute any partition.
//! Recovery is layered, cheapest first:
//!
//! 1. **Reconnection** (inside the transport): a transient socket failure is
//!    re-dialed with backoff; the job attempt may fail, but the *gang retry*
//!    runs over the healed link and the epoch fence discards stale frames.
//!    The membership view does not change.
//! 2. **Ring over survivors**: when an executor is confirmed dead (its
//!    control socket dropped), the driver bumps the generation of its
//!    [`MembershipView`], and the next attempt runs the *ring* over the
//!    survivors — re-ranked by view position, same lineage recomputation,
//!    still bit-exact. The tree fallback is no longer the first response to
//!    death.
//! 3. **Tree fallback** (last resort): only when ring attempts are
//!    exhausted, survivors ship whole aggregators up the control plane and
//!    the driver merges pairwise — slower, but exact. An `Algo::Tree` job
//!    runs this tree as its primary path instead.
//!
//! A restarted executor re-joins through rendezvous between jobs
//! ([`MultiProcDriver::try_readmit`]): it takes over the vacated rank, dials
//! the live lower ranks itself, and the driver tells live higher ranks to
//! dial it ([`DriverMsg::Admit`]); the next view includes it again.
//!
//! Fault injection for all paths is built into [`JobSpec`] (`fail_rank`,
//! `die_rank`, `drop_rank`/`drop_peer`) so `launch_cluster`/`chaos_cluster`
//! can prove them against genuinely killed, stopped, and disconnected
//! processes.
//!
//! All job values are integer-valued `f64`s, so sums are exact in any merge
//! order and every path (ring, survivor ring, tree, driver-side [`oracle`])
//! must agree **bit-for-bit** — the acceptance check is exact equality, not
//! tolerance. The same exactness lets an executor fold each of its
//! partitions straight into its one aggregator (IMM inside the process,
//! PAPER.md §3.2) instead of building and adding a vector per partition.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sparker_collectives::gather::Gather;
use sparker_collectives::ring::produce_from;
use sparker_collectives::{segment_count, Algo, RingComm};
use sparker_net::codec::{Decoder, Encoder, F64Array, Payload};
use sparker_net::error::{NetError, NetResult};
use sparker_net::tcp::rendezvous::{self, ControlConn, Coordinator, Joined};
use sparker_net::tcp::{frame, TcpConfig};
use sparker_net::topology::{ExecutorId, ExecutorInfo, RingOrder, RingTopology};
use sparker_net::transport::Transport;
use sparker_net::{pool, ByteBuf};
use sparker_obs::metrics::{self, Counter, MetricValue};
use sparker_sparse::DenseOrSparse;

use crate::ops::reduce::{reduce_scatter, reduce_scatter_dense};
use crate::task::{EngineError, EngineResult};

/// Exit code of an executor killed by `die_rank` fault injection, so the
/// launcher can tell an injected death from a crash.
pub const KILLED_EXIT_CODE: i32 = 13;

/// Sentinel for "no rank" in the fault-injection fields.
pub const NO_RANK: u32 = u32::MAX;

fn counter_cached(cell: &'static OnceLock<Arc<Counter>>, name: &'static str) -> &'static Arc<Counter> {
    cell.get_or_init(|| metrics::counter(name))
}

/// `multiproc.view_changes`: membership views published by the driver.
fn count_view_change() {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    counter_cached(&C, "multiproc.view_changes").add(1);
}

/// `multiproc.ring_retries`: gang attempts beyond the first.
fn count_ring_retry() {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    counter_cached(&C, "multiproc.ring_retries").add(1);
}

/// `multiproc.fallbacks`: jobs that degraded to the tree fallback.
fn count_fallback() {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    counter_cached(&C, "multiproc.fallbacks").add(1);
}

/// `multiproc.readmissions`: executors re-admitted to a vacated rank.
fn count_readmission() {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    counter_cached(&C, "multiproc.readmissions").add(1);
}

/// A generation-numbered membership view: which ranks participate in a job.
///
/// The driver owns the view; it bumps `generation` whenever the member set
/// changes (death or re-admission) and ships the view inside every
/// [`JobSpec`]. Executors build the ring over `members` in order — their
/// ring position is their index in this list, while transport addressing
/// keeps using absolute ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Monotonic view number (0 = the founding full mesh).
    pub generation: u64,
    /// Participating absolute ranks, ascending.
    pub members: Vec<u32>,
}

impl MembershipView {
    /// The founding view: all `n` ranks, generation 0.
    pub fn full(n: usize) -> Self {
        Self { generation: 0, members: (0..n as u32).collect() }
    }
}

impl Payload for MembershipView {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.generation);
        enc.put_u32_slice(&self.members);
    }

    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok(Self { generation: dec.get_u64()?, members: dec.get_u32_vec()? })
    }

    fn size_hint(&self) -> usize {
        8 + 8 + 4 * self.members.len()
    }
}

/// One split-aggregate job, shipped whole to every executor.
///
/// Data is defined by `(seed, dim, density, total_parts)` through
/// [`part_vector`]; `assigned[rank]` lists the partitions each rank
/// aggregates locally before the ring runs. `view` names the ranks that
/// participate (the ring is formed over them in order).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Collective op id — the `op` half of the epoch fence.
    pub id: u64,
    /// Reduce [`DenseOrSparse`] segments instead of dense [`F64Array`]s.
    pub sparse: bool,
    /// Density threshold for the adaptive segments (sparse jobs).
    pub threshold: f64,
    /// Seed defining the dataset.
    pub seed: u64,
    /// Aggregator length.
    pub dim: usize,
    /// Fraction of `dim` touched per partition (1.0 = dense).
    pub density: f64,
    /// Number of partitions in the dataset.
    pub total_parts: usize,
    /// Ring channels (the paper's parallelism `P`).
    pub parallelism: usize,
    /// Reduction algorithm, the same vocabulary the selector and the
    /// in-process engine use. `Algo::Tree` runs the driver's tree as the
    /// primary path.
    pub algo: Algo,
    /// Emulated node count for `Algo::Hierarchical`: members are blocked
    /// into this many host groups by ring position (deterministic across
    /// view changes). 0 keeps the legacy layout where every rank is its own
    /// node.
    pub nodes: usize,
    /// Gang attempt — the `attempt` half of the epoch fence.
    pub attempt: u32,
    /// Epoch namespace ([`sparker_net::epoch::namespaced`]) folded into the
    /// attempt word on the wire, so jobs interleaved by concurrent
    /// submitters can never accept each other's collective frames. 0 is the
    /// single-job default.
    pub epoch_ns: u32,
    /// Per-receive deadline inside the ring, so a lost peer turns into a
    /// typed error instead of a hang.
    pub recv_deadline_ms: u64,
    /// Fault injection: this rank reports failure on attempt 0 after
    /// spraying stale frames ([`NO_RANK`] = off).
    pub fail_rank: u32,
    /// Fault injection: this rank exits mid-ring on attempt 0
    /// ([`NO_RANK`] = off).
    pub die_rank: u32,
    /// Fault injection: this rank severs its data-plane connection to
    /// `drop_peer` just before the ring on attempt 0 ([`NO_RANK`] = off).
    /// With reconnection armed the link heals and the job must still
    /// complete without a view change.
    pub drop_rank: u32,
    /// The peer whose connection `drop_rank` severs.
    pub drop_peer: u32,
    /// The membership view this job runs under (driver fills it).
    pub view: MembershipView,
    /// Partitions per absolute rank, indexed by rank.
    pub assigned: Vec<Vec<u64>>,
}

impl JobSpec {
    /// A dense job over `n` executors with sane defaults; tune fields after.
    pub fn dense(id: u64, seed: u64, dim: usize, total_parts: usize) -> Self {
        Self {
            id,
            sparse: false,
            threshold: 0.25,
            seed,
            dim,
            density: 1.0,
            total_parts,
            parallelism: 2,
            algo: Algo::ChunkedRing(2),
            nodes: 0,
            attempt: 0,
            epoch_ns: 0,
            recv_deadline_ms: 2_000,
            fail_rank: NO_RANK,
            die_rank: NO_RANK,
            drop_rank: NO_RANK,
            drop_peer: NO_RANK,
            view: MembershipView { generation: 0, members: Vec::new() },
            assigned: Vec::new(),
        }
    }

    /// A sparse variant of [`JobSpec::dense`].
    pub fn sparse(id: u64, seed: u64, dim: usize, total_parts: usize, density: f64) -> Self {
        let mut s = Self::dense(id, seed, dim, total_parts);
        s.sparse = true;
        s.density = density;
        s
    }
}

impl Payload for JobSpec {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_bool(self.sparse);
        enc.put_f64(self.threshold);
        enc.put_u64(self.seed);
        enc.put_usize(self.dim);
        enc.put_f64(self.density);
        enc.put_usize(self.total_parts);
        enc.put_usize(self.parallelism);
        self.algo.encode_into(enc);
        enc.put_usize(self.nodes);
        enc.put_u32(self.attempt);
        enc.put_u32(self.epoch_ns);
        enc.put_u64(self.recv_deadline_ms);
        enc.put_u32(self.fail_rank);
        enc.put_u32(self.die_rank);
        enc.put_u32(self.drop_rank);
        enc.put_u32(self.drop_peer);
        self.view.encode_into(enc);
        self.assigned.encode_into(enc);
    }

    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        // Fields decode in the order written, which is the wire order.
        Ok(Self {
            id: dec.get_u64()?,
            sparse: dec.get_bool()?,
            threshold: dec.get_f64()?,
            seed: dec.get_u64()?,
            dim: dec.get_usize()?,
            density: dec.get_f64()?,
            total_parts: dec.get_usize()?,
            parallelism: dec.get_usize()?,
            algo: Algo::decode_from(dec)?,
            nodes: dec.get_usize()?,
            attempt: dec.get_u32()?,
            epoch_ns: dec.get_u32()?,
            recv_deadline_ms: dec.get_u64()?,
            fail_rank: dec.get_u32()?,
            die_rank: dec.get_u32()?,
            drop_rank: dec.get_u32()?,
            drop_peer: dec.get_u32()?,
            view: MembershipView::decode_from(dec)?,
            assigned: Vec::decode_from(dec)?,
        })
    }

    fn size_hint(&self) -> usize {
        97 + self.algo.size_hint() + self.view.size_hint() + self.assigned.size_hint()
    }
}

/// Driver → executor control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverMsg {
    /// Run a split-aggregate job (ring over the data plane).
    Run(JobSpec),
    /// Tree fallback: recompute `parts` from lineage, ship the whole local
    /// aggregator up the control plane.
    Fallback {
        /// Job id the fallback belongs to.
        id: u64,
        /// The spec the aggregator is computed under (dataset definition).
        spec: JobSpec,
        /// Partitions this executor must cover.
        parts: Vec<u64>,
    },
    /// A replacement executor took over `rank`: dial its fresh listener at
    /// `addr` (sent only to live ranks *above* `rank`, per the mesh dial
    /// rule) and answer [`ExecMsg::AdmitOk`].
    Admit {
        /// The re-admitted absolute rank.
        rank: u32,
        /// Its new listen address.
        addr: String,
        /// The view generation this admission leads to (diagnostics).
        generation: u64,
    },
    /// Report recovery metrics ([`ExecMsg::Metrics`]).
    Metrics,
    /// Clean shutdown of the executor process.
    Shutdown,
}

const TAG_RUN: u8 = 1;
const TAG_FALLBACK: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;
const TAG_ADMIT: u8 = 4;
const TAG_METRICS: u8 = 5;

impl Payload for DriverMsg {
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            DriverMsg::Run(spec) => {
                enc.put_u8(TAG_RUN);
                spec.encode_into(enc);
            }
            DriverMsg::Fallback { id, spec, parts } => {
                enc.put_u8(TAG_FALLBACK);
                enc.put_u64(*id);
                spec.encode_into(enc);
                enc.put_u64_slice(parts);
            }
            DriverMsg::Admit { rank, addr, generation } => {
                enc.put_u8(TAG_ADMIT);
                enc.put_u32(*rank);
                enc.put_str(addr);
                enc.put_u64(*generation);
            }
            DriverMsg::Metrics => enc.put_u8(TAG_METRICS),
            DriverMsg::Shutdown => enc.put_u8(TAG_SHUTDOWN),
        }
    }

    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        match dec.get_u8()? {
            TAG_RUN => Ok(DriverMsg::Run(JobSpec::decode_from(dec)?)),
            TAG_FALLBACK => Ok(DriverMsg::Fallback {
                id: dec.get_u64()?,
                spec: JobSpec::decode_from(dec)?,
                parts: dec.get_u64_vec()?,
            }),
            TAG_ADMIT => Ok(DriverMsg::Admit {
                rank: dec.get_u32()?,
                addr: dec.get_string()?,
                generation: dec.get_u64()?,
            }),
            TAG_METRICS => Ok(DriverMsg::Metrics),
            TAG_SHUTDOWN => Ok(DriverMsg::Shutdown),
            tag => Err(NetError::Codec(format!("invalid DriverMsg tag {tag}"))),
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            DriverMsg::Run(spec) => 1 + spec.size_hint(),
            DriverMsg::Fallback { spec, parts, .. } => 1 + 8 + spec.size_hint() + 8 + 8 * parts.len(),
            DriverMsg::Admit { addr, .. } => 1 + 4 + 8 + addr.len() + 8,
            DriverMsg::Metrics => 1,
            DriverMsg::Shutdown => 1,
        }
    }
}

/// Executor → driver control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecMsg {
    /// Reduce-scatter completed: the segments this rank owns — the gather
    /// half of split aggregation.
    JobOk {
        /// Job id.
        id: u64,
        /// The owned segments as one gather frame, `Vec<OwnedSegment<V>>`
        /// of the job's segment type (`F64Array`, or `DenseOrSparse` for a
        /// sparse job).
        segments: ByteBuf,
    },
    /// The job failed on this rank (transport error or injected).
    JobErr {
        /// Job id.
        id: u64,
        /// The reporting rank.
        rank: u32,
        /// The view generation the rank was running under.
        view_gen: u64,
        /// Ranks this executor's transport currently considers dead —
        /// the driver's raw material for deciding membership.
        dead_peers: Vec<u32>,
        /// Human-readable cause (a [`NetError`] rendering).
        error: String,
    },
    /// Fallback aggregator covering the assigned partitions.
    FallbackOk {
        /// Job id.
        id: u64,
        /// The full local aggregator.
        agg: Vec<f64>,
    },
    /// Reply to [`DriverMsg::Admit`]: whether the dial to the re-admitted
    /// rank succeeded (`error` empty) or why not.
    AdmitOk {
        /// The re-admitted rank that was dialed.
        rank: u32,
        /// Empty on success; the dial failure otherwise.
        error: String,
    },
    /// Reply to [`DriverMsg::Metrics`]: flattened recovery metrics
    /// (counters as `(name, value)`; histograms as `name.count`/`name.sum`).
    Metrics {
        /// The metric pairs.
        pairs: Vec<(String, u64)>,
    },
}

const TAG_JOB_OK: u8 = 1;
const TAG_JOB_ERR: u8 = 2;
const TAG_FALLBACK_OK: u8 = 3;
const TAG_ADMIT_OK: u8 = 4;
const TAG_METRICS_REPLY: u8 = 5;

impl Payload for ExecMsg {
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            ExecMsg::JobOk { id, segments } => {
                enc.put_u8(TAG_JOB_OK);
                enc.put_u64(*id);
                enc.put_bytes(segments);
            }
            ExecMsg::JobErr { id, rank, view_gen, dead_peers, error } => {
                enc.put_u8(TAG_JOB_ERR);
                enc.put_u64(*id);
                enc.put_u32(*rank);
                enc.put_u64(*view_gen);
                enc.put_u32_slice(dead_peers);
                enc.put_str(error);
            }
            ExecMsg::FallbackOk { id, agg } => {
                enc.put_u8(TAG_FALLBACK_OK);
                enc.put_u64(*id);
                enc.put_f64_slice(agg);
            }
            ExecMsg::AdmitOk { rank, error } => {
                enc.put_u8(TAG_ADMIT_OK);
                enc.put_u32(*rank);
                enc.put_str(error);
            }
            ExecMsg::Metrics { pairs } => {
                enc.put_u8(TAG_METRICS_REPLY);
                pairs.encode_into(enc);
            }
        }
    }

    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        match dec.get_u8()? {
            TAG_JOB_OK => Ok(ExecMsg::JobOk { id: dec.get_u64()?, segments: dec.get_bytes()? }),
            TAG_JOB_ERR => Ok(ExecMsg::JobErr {
                id: dec.get_u64()?,
                rank: dec.get_u32()?,
                view_gen: dec.get_u64()?,
                dead_peers: dec.get_u32_vec()?,
                error: dec.get_string()?,
            }),
            TAG_FALLBACK_OK => {
                Ok(ExecMsg::FallbackOk { id: dec.get_u64()?, agg: dec.get_f64_vec()? })
            }
            TAG_ADMIT_OK => Ok(ExecMsg::AdmitOk { rank: dec.get_u32()?, error: dec.get_string()? }),
            TAG_METRICS_REPLY => Ok(ExecMsg::Metrics { pairs: Vec::decode_from(dec)? }),
            tag => Err(NetError::Codec(format!("invalid ExecMsg tag {tag}"))),
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            ExecMsg::JobOk { segments, .. } => 1 + 8 + 8 + segments.len(),
            ExecMsg::JobErr { dead_peers, error, .. } => {
                1 + 8 + 4 + 8 + 8 + 4 * dead_peers.len() + 8 + error.len()
            }
            ExecMsg::FallbackOk { agg, .. } => 1 + 8 + 8 + 8 * agg.len(),
            ExecMsg::AdmitOk { error, .. } => 1 + 4 + 8 + error.len(),
            ExecMsg::Metrics { pairs } => 1 + pairs.size_hint(),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic dataset: partitions as pure functions of (seed, part).
// ---------------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adds partition `part`'s contribution into `agg`, whose length is the
/// dimension: `ceil(dim · density)` (at least one) draws of an index and a
/// value, each added where it lands. This is the one definition of a
/// partition. It is deterministic, so any executor can recompute any
/// partition (the lineage property fallback recovery rests on).
///
/// Every value is an integer in `1..=512` and every partial sum an integer
/// far below 2^53, so `f64` addition is exact in any association order.
/// That is what makes "bit-exact across ring, tree and oracle" a meaningful
/// acceptance check, and why folding each draw straight into an executor's
/// one aggregator gives the same bits as summing finished per-partition
/// vectors.
fn fold_part(agg: &mut [f64], seed: u64, part: u64, density: f64) {
    let dim = agg.len();
    if dim == 0 {
        return;
    }
    let nnz = (((dim as f64) * density).ceil() as usize).clamp(1, dim);
    let base = splitmix64(seed ^ splitmix64(part.wrapping_add(1)));
    for k in 0..nnz {
        let h = splitmix64(base.wrapping_add(k as u64));
        agg[(h % dim as u64) as usize] += ((h >> 32) % 512) as f64 + 1.0;
    }
}

/// The vector partition `part` contributes: its draws folded into zeros.
/// Small integers, deterministic in `(seed, part)`.
pub fn part_vector(seed: u64, part: u64, dim: usize, density: f64) -> Vec<f64> {
    let mut v = vec![0.0; dim];
    fold_part(&mut v, seed, part, density);
    v
}

/// Driver-side expected value: the sum of every partition vector.
pub fn oracle(spec: &JobSpec) -> Vec<f64> {
    local_aggregate(spec, &(0..spec.total_parts as u64).collect::<Vec<_>>())
}

/// IMM inside the executor process: one aggregator, every assigned
/// partition folded into it (PAPER.md §3.2).
fn local_aggregate(spec: &JobSpec, parts: &[u64]) -> Vec<f64> {
    let mut agg = vec![0.0; spec.dim];
    for &part in parts {
        fold_part(&mut agg, spec.seed, part, spec.density);
    }
    agg
}

/// Segment `g` of `count` under the ceil-block split every rank and the
/// driver share: ceil(dim/count) elements each, the tail shorter or empty.
fn ceil_block(dim: usize, count: usize, g: usize) -> std::ops::Range<usize> {
    let len = dim.div_ceil(count.max(1));
    (g * len).min(dim)..((g + 1) * len).min(dim)
}

/// Ring infos over `members` (absolute ranks ascending). ExecutorIds are the
/// absolute ranks, so transport addressing is unchanged while ring positions
/// compact to `0..members.len()`.
///
/// With `nodes == 0` every rank is its own (trivial) node. With `nodes > 0`
/// members are blocked into `min(nodes, members.len())` emulated hosts *by
/// position* in the (shared, view-ordered) member list, so every rank —
/// including survivors after a view change — derives the same grouping and
/// hierarchical collectives elect the same leaders everywhere.
fn member_infos(members: &[u32], nodes: usize) -> Vec<ExecutorInfo> {
    let len = members.len().max(1);
    let k = nodes.min(len);
    members
        .iter()
        .enumerate()
        .map(|(pos, &m)| {
            let node = if k == 0 { m as usize } else { pos * k / len };
            ExecutorInfo {
                id: ExecutorId(m),
                host: if k == 0 {
                    format!("proc-{m:03}")
                } else {
                    format!("emunode-{node:03}")
                },
                node,
                cores: 1,
            }
        })
        .collect()
}

/// The ring a job runs on: `members` in view order, blocked into
/// `spec.nodes` emulated hosts, `spec.parallelism` channels.
fn job_ring(members: &[u32], spec: &JobSpec) -> RingTopology {
    RingTopology::new(member_infos(members, spec.nodes), RingOrder::ById, spec.parallelism)
}

// ---------------------------------------------------------------------------
// Executor side
// ---------------------------------------------------------------------------

/// Joins the cluster at `driver_addr` and serves jobs until the driver sends
/// [`DriverMsg::Shutdown`] (or hangs up). The executor-process main loop.
pub fn run_executor(driver_addr: &str, join_timeout: Duration) -> NetResult<()> {
    run_executor_with(driver_addr, join_timeout, TcpConfig::default())
}

/// [`run_executor`] with explicit transport tunables (heartbeat cadence,
/// reconnect budget — the chaos harness shortens everything).
pub fn run_executor_with(
    driver_addr: &str,
    join_timeout: Duration,
    cfg: TcpConfig,
) -> NetResult<()> {
    let joined = rendezvous::join_with(driver_addr, join_timeout, cfg)?;
    serve(joined)
}

/// Serves jobs on an already-joined membership (exposed so tests can run
/// executors as threads).
pub fn serve(mut joined: Joined) -> NetResult<()> {
    loop {
        let payload = match joined.control.recv(Duration::from_secs(600)) {
            Ok(p) => p,
            Err(NetError::Timeout) => continue,
            // Driver gone: nothing left to serve.
            Err(NetError::Disconnected) => return Ok(()),
            Err(e) => return Err(e),
        };
        let reply = match DriverMsg::from_frame(payload)? {
            DriverMsg::Run(spec) => run_job(&joined, &spec),
            DriverMsg::Fallback { id, spec, parts } => {
                ExecMsg::FallbackOk { id, agg: local_aggregate(&spec, &parts) }
            }
            DriverMsg::Admit { rank, addr, generation: _ } => {
                let error = match admit_dial(&joined, rank, &addr) {
                    Ok(()) => String::new(),
                    Err(e) => e.to_string(),
                };
                ExecMsg::AdmitOk { rank, error }
            }
            DriverMsg::Metrics => ExecMsg::Metrics { pairs: flattened_metrics() },
            DriverMsg::Shutdown => return Ok(()),
        };
        // A reply that can't be delivered means the driver hung up or
        // evicted us mid-job — either way there is nobody left to serve,
        // which is a clean exit, not an executor fault.
        if joined.control.send(&reply.to_frame()).is_err() {
            return Ok(());
        }
    }
}

/// Dials a re-admitted rank's fresh listener (driver `Admit` step: only
/// ranks above the rejoiner do this, preserving the mesh dial direction) and
/// installs the socket as the new link.
fn admit_dial(joined: &Joined, rank: u32, addr: &str) -> NetResult<()> {
    if rank as usize >= joined.rank {
        return Err(NetError::InvalidAddress(format!(
            "admit of rank {rank} at rank {}: only higher ranks dial",
            joined.rank
        )));
    }
    let sa: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| NetError::InvalidAddress(format!("admit address {addr:?}: {e}")))?;
    let mut stream =
        std::net::TcpStream::connect_timeout(&sa, joined.cfg.connect_timeout).map_err(|e| {
            NetError::Io(format!("dialing re-admitted rank {rank} at {addr}: {e}"))
        })?;
    stream.set_nodelay(true).map_err(frame::io_to_net)?;
    let preamble = rendezvous::peer_preamble(joined.rank as u32);
    frame::write_frame(
        &mut stream,
        pool::global(),
        joined.rank as u32,
        frame::CONTROL_CHANNEL,
        &preamble,
    )?;
    joined.transport.install_peer(rank as usize, stream, Some(addr.to_string()))
}

/// Flattens the local metric registry for the driver: counters and gauges as
/// `(name, value)`, histograms as `name.count` / `name.sum`. Where
/// `/proc/self/stat` is readable it appends the process's work so far:
/// `proc.minflt` (minor page faults) and `proc.cpu_ticks` (user + system
/// time in clock ticks).
fn flattened_metrics() -> Vec<(String, u64)> {
    let mut pairs = Vec::new();
    for m in metrics::snapshot() {
        match m.value {
            MetricValue::Counter(v) => pairs.push((m.name, v)),
            MetricValue::Gauge(v) => pairs.push((m.name, v.max(0) as u64)),
            MetricValue::Histogram(count, sum, _) => {
                pairs.push((format!("{}.count", m.name), count));
                pairs.push((format!("{}.sum", m.name), sum));
            }
        }
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok();
    if let Some((minflt, cpu_ticks)) = stat.as_deref().and_then(parse_proc_stat) {
        pairs.push(("proc.minflt".into(), minflt));
        pairs.push(("proc.cpu_ticks".into(), cpu_ticks));
    }
    pairs
}

/// `(minor faults, user + system ticks)` from a `/proc/[pid]/stat` line:
/// fields 10, 14 and 15, counted from 1. Field 2, `comm`, is the
/// parenthesised executable name and may itself hold spaces or `)`, so the
/// fields are counted from the last `)`, after which field 3 starts.
fn parse_proc_stat(line: &str) -> Option<(u64, u64)> {
    let fields: Vec<&str> = line[line.rfind(')')? + 1..].split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some((field(10)?, field(14)? + field(15)?))
}

/// How long an executor waits for links to view members to come up before
/// declaring them in a [`ExecMsg::JobErr`] — covers the re-admission race
/// where the driver's `Admit` dials are still in flight.
const MEMBER_LINK_GRACE: Duration = Duration::from_millis(1_000);

fn job_err(joined: &Joined, spec: &JobSpec, error: String) -> ExecMsg {
    ExecMsg::JobErr {
        id: spec.id,
        rank: joined.rank as u32,
        view_gen: spec.view.generation,
        dead_peers: joined.transport.dead_peers().iter().map(|&r| r as u32).collect(),
        error,
    }
}

fn run_job(joined: &Joined, spec: &JobSpec) -> ExecMsg {
    let rank = joined.rank;
    let n = joined.n;
    // The founding protocol shipped no view; treat empty as "all ranks".
    let members: Vec<u32> = if spec.view.members.is_empty() {
        (0..n as u32).collect()
    } else {
        spec.view.members.clone()
    };
    let Some(position) = members.iter().position(|&m| m as usize == rank) else {
        return job_err(
            joined,
            spec,
            format!("rank {rank} is not in view {} {:?}", spec.view.generation, members),
        );
    };
    // A ring needs at least one channel and distinct members below `n`; a
    // decoded spec that breaks any of these fails typed instead of reaching
    // the ring's asserts or sizing its rank table by a stray id.
    let mut distinct = members.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if spec.assigned.len() != n
        || spec.parallelism == 0
        || spec.parallelism > joined.channels
        || distinct.len() != members.len()
        || members.iter().any(|&m| m as usize >= n)
    {
        return job_err(
            joined,
            spec,
            format!(
                "spec shape mismatch: {} assignments for {n} ranks, P={} over {} channels, \
                 view members {members:?}",
                spec.assigned.len(),
                spec.parallelism,
                joined.channels
            ),
        );
    }
    // Wait briefly for links to every view member: a just-readmitted peer's
    // dial may still be in flight when the first Run of the new view lands.
    let grace = Instant::now() + MEMBER_LINK_GRACE;
    for &m in &members {
        let m = m as usize;
        if m == rank {
            continue;
        }
        while joined.transport.peer_is_dead(m) && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(2));
        }
        if joined.transport.peer_is_dead(m) {
            let detail = joined
                .transport
                .peer_error(m)
                .map(|e| e.to_string())
                .unwrap_or_else(|| "dead".into());
            return job_err(joined, spec, format!("view member {m} is down: {detail}"));
        }
    }
    let agg = local_aggregate(spec, &spec.assigned[rank]);

    let ring = Arc::new(job_ring(&members, spec));
    let count = segment_count(spec.algo, &ring);
    let net: Arc<dyn Transport> = joined.transport.clone();
    let comm = RingComm::new(net, ring, position)
        .with_epoch(spec.id, sparker_net::epoch::namespaced(spec.epoch_ns, spec.attempt))
        .with_recv_deadline(Duration::from_millis(spec.recv_deadline_ms));

    // Injected transient failure: leave well-formed frames of this (doomed)
    // attempt on the wire, then report failure. The retry proves the epoch
    // fence rejects them across real sockets.
    if spec.attempt == 0 && spec.fail_rank == rank as u32 {
        for ch in 0..spec.parallelism {
            let _ = comm.send_next(ch, ByteBuf::from_static(b"stale attempt-0 frame"));
        }
        return job_err(joined, spec, "injected failure (fail_rank)".into());
    }
    // Injected death: first frame goes out, then the process vanishes
    // mid-collective. Peers must observe the death as a typed error, and the
    // driver must re-form the ring over the survivors.
    if spec.attempt == 0 && spec.die_rank == rank as u32 {
        let _ = comm.send_next(0, ByteBuf::from_static(b"dying mid-ring"));
        std::process::exit(KILLED_EXIT_CODE);
    }
    // Injected connection drop: sever one data-plane link right before the
    // ring. Reconnection must heal it — the attempt may fail on a deadline,
    // but the gang retry (same view) must succeed over the healed link.
    if spec.attempt == 0 && spec.drop_rank == rank as u32 && spec.drop_peer != NO_RANK {
        let _ = joined.transport.kill_connection(spec.drop_peer as usize);
    }

    // The ceil-block split, so the frames that can meet in one merge keep
    // their lengths whatever the algorithm. A dense job reduces the views of
    // `agg` in place; a frame of another block reaching a dense reduce (after
    // a dropped link lost frames) has the wrong length, which fails the
    // attempt with a typed error, and the gang retry runs on the healed link.
    // Sparse segments are split up front on this thread and the lanes move
    // theirs out: splitting inside the lanes made `op_ms_p50` @
    // `tcp_large_jobs` 17% slower on 2 cores.
    let block = |g| ceil_block(spec.dim, count, g);
    let result = if spec.sparse {
        let merge = |a: &mut DenseOrSparse, b: DenseOrSparse| a.merge(&b);
        let segs = (0..count).map(|g| DenseOrSparse::from_dense(&agg[block(g)], spec.threshold));
        reduce_scatter(&comm, spec.algo, &produce_from(segs.collect()), &merge)
            .map(|owned| owned.to_frame())
    } else {
        reduce_scatter_dense(&comm, spec.algo, &agg, &block).map(|owned| owned.to_frame())
    };

    match result {
        Ok(segments) => ExecMsg::JobOk { id: spec.id, segments },
        Err(e) => job_err(joined, spec, e.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Driver side
// ---------------------------------------------------------------------------

/// Result of one driver-orchestrated job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The aggregated vector (length `dim`).
    pub value: Vec<f64>,
    /// Gang attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the tree produced the result: the fallback, or the primary
    /// path of an `Algo::Tree` job.
    pub used_fallback: bool,
    /// Owned segments gathered over the control plane (ring path only).
    pub wire_segments: usize,
    /// Encoded segment bytes gathered from executors (ring path only).
    pub result_bytes: u64,
    /// The membership view generation the result was produced under.
    pub view_generation: u64,
    /// Ring size of the successful attempt (0 on the fallback path).
    pub ring_size: usize,
}

/// Gang attempts [`MultiProcDriver::run_job`] makes on the ring before the
/// tree fallback.
const MAX_ATTEMPTS: u32 = 4;

/// The multi-process driver: owns the control connections and the membership
/// view, dispatches jobs, and decides between gang retry, survivor-ring
/// re-formation, and tree fallback (in that order).
pub struct MultiProcDriver {
    controls: Vec<Option<ControlConn>>,
    /// The current membership view (generation bumps on every change).
    view: MembershipView,
    /// How long to wait for each executor's reply to a job.
    pub reply_timeout: Duration,
    /// The last ring-attempt failure seen by [`MultiProcDriver::run_job`]
    /// (diagnostics: why a job needed retries or the fallback).
    pub last_ring_error: String,
    /// `(dialer rank, error)` for every failed [`DriverMsg::Admit`] dial in
    /// the most recent [`MultiProcDriver::try_readmit`].
    pub last_admit_errors: Vec<(usize, String)>,
}

impl MultiProcDriver {
    /// Wraps the control connections returned by
    /// [`rendezvous::Coordinator::wait_for`].
    pub fn new(controls: Vec<ControlConn>) -> Self {
        let n = controls.len();
        Self {
            controls: controls.into_iter().map(Some).collect(),
            view: MembershipView::full(n),
            reply_timeout: Duration::from_secs(60),
            last_ring_error: String::new(),
            last_admit_errors: Vec::new(),
        }
    }

    /// Total executor ranks the cluster started with.
    pub fn size(&self) -> usize {
        self.controls.len()
    }

    /// Ranks whose control connection is still alive.
    pub fn alive(&self) -> Vec<usize> {
        (0..self.controls.len()).filter(|&r| self.controls[r].is_some()).collect()
    }

    /// The current membership view.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Sends an encoded [`DriverMsg`] to `rank`; a failed send closes the
    /// control link.
    fn send_to(&mut self, rank: usize, frame: &[u8]) {
        let failed = match &mut self.controls[rank] {
            Some(conn) => conn.send(frame).is_err(),
            None => false,
        };
        if failed {
            self.controls[rank] = None;
        }
    }

    fn recv_from(&mut self, rank: usize) -> Option<ExecMsg> {
        let timeout = self.reply_timeout;
        let result = match &mut self.controls[rank] {
            Some(conn) => match conn.recv(timeout) {
                Ok(payload) => ExecMsg::from_frame(payload).ok(),
                Err(_) => None,
            },
            None => return None,
        };
        if result.is_none() {
            // Timeout, disconnect, or garbage: this control link is done.
            self.controls[rank] = None;
        }
        result
    }

    /// Publishes a new view if the live set changed since the last one.
    /// Death is confirmed *only* by control-connection loss — a transport
    /// that is merely reconnecting does not evict anyone.
    fn refresh_view(&mut self) {
        let members: Vec<u32> = self.alive().iter().map(|&r| r as u32).collect();
        if members != self.view.members {
            self.view.generation += 1;
            self.view.members = members;
            count_view_change();
        }
    }

    /// Runs one job to completion: gang attempts over the ring (re-formed
    /// over survivors whenever the membership view changes), then the tree
    /// fallback as last resort. An `Algo::Tree` job skips the ring and runs
    /// the tree as one primary round, counted in neither
    /// `multiproc.ring_retries` nor `multiproc.fallbacks`. `Err` only when no
    /// exact result can be produced at all.
    pub fn run_job(&mut self, base: &JobSpec) -> EngineResult<JobOutcome> {
        let n_total = self.size();
        let mut attempts = 0;
        let mut last_err = String::new();
        let tree_primary = base.algo == Algo::Tree;
        while !tree_primary && attempts < MAX_ATTEMPTS {
            self.refresh_view();
            let gang = self.alive();
            if gang.is_empty() {
                break;
            }
            // One encoding per attempt, the same bytes to every member.
            let run = DriverMsg::Run(JobSpec {
                attempt: attempts,
                view: self.view.clone(),
                assigned: assign_parts(base.total_parts, &gang, n_total),
                ..base.clone()
            })
            .to_frame();
            attempts += 1;
            if attempts > 1 {
                count_ring_retry();
            }
            for &rank in &gang {
                self.send_to(rank, &run);
            }
            let mut oks: Vec<ByteBuf> = Vec::new();
            let mut failures: Vec<String> = Vec::new();
            for &rank in &gang {
                match self.recv_from(rank) {
                    Some(ExecMsg::JobOk { id, segments }) if id == base.id => oks.push(segments),
                    Some(ExecMsg::JobErr { id, rank: r, view_gen, dead_peers, error })
                        if id == base.id =>
                    {
                        failures.push(format!(
                            "rank {r} (view {view_gen}, dead peers {dead_peers:?}): {error}"
                        ));
                    }
                    Some(other) => {
                        failures.push(format!("rank {rank}: unexpected reply {other:?}"));
                    }
                    None => {
                        failures.push(format!("rank {rank}: control connection lost"));
                    }
                }
            }
            if let Some(f) = failures.last() {
                last_err = f.clone();
            }
            self.last_ring_error = failures.join("; ");
            if oks.len() == gang.len() {
                // The view is the one the attempt ran under: only
                // `refresh_view`, at the top of the loop, changes it.
                let count = segment_count(base.algo, &job_ring(&self.view.members, base));
                let (value, wire_segments, result_bytes) =
                    assemble(base, count, oks).map_err(|e| EngineError::TaskFailed {
                        stage: job_stage(base.id, self.view.generation),
                        task: gang[0],
                        attempts,
                        reason: e.to_string(),
                    })?;
                return Ok(JobOutcome {
                    value,
                    attempts,
                    used_fallback: false,
                    wire_segments,
                    result_bytes,
                    view_generation: self.view.generation,
                    ring_size: gang.len(),
                });
            }
        }

        if !tree_primary {
            count_fallback();
        }

        // The tree: survivors recompute everything from lineage.
        self.refresh_view();
        let survivors = self.alive();
        if survivors.is_empty() {
            return Err(EngineError::TaskFailed {
                stage: job_stage(base.id, self.view.generation),
                task: 0,
                attempts,
                reason: format!("no executors left for fallback (last error: {last_err})"),
            });
        }
        let assigned = assign_parts(base.total_parts, &survivors, self.size());
        for &rank in &survivors {
            let msg = DriverMsg::Fallback {
                id: base.id,
                spec: base.clone(),
                parts: assigned[rank].clone(),
            };
            self.send_to(rank, &msg.to_frame());
        }
        let mut aggs = Vec::with_capacity(survivors.len());
        for &rank in &survivors {
            match self.recv_from(rank) {
                Some(ExecMsg::FallbackOk { id, agg }) if id == base.id && agg.len() == base.dim => {
                    aggs.push(agg);
                }
                other => {
                    return Err(EngineError::TaskFailed {
                        stage: job_stage(base.id, self.view.generation),
                        task: rank,
                        attempts: attempts + 1,
                        reason: format!("fallback reply was {other:?}"),
                    });
                }
            }
        }
        Ok(JobOutcome {
            value: tree_merge(aggs),
            attempts: attempts + 1,
            used_fallback: true,
            wire_segments: 0,
            result_bytes: 0,
            view_generation: self.view.generation,
            ring_size: 0,
        })
    }

    /// Checks the rendezvous listener for a replacement executor and, if one
    /// arrived and a rank is vacant, re-admits it: the newcomer takes the
    /// lowest dead rank, dials the live lower ranks itself (during its
    /// `REJOIN` join), and live higher ranks are told to dial it. Returns
    /// the re-admitted rank, or `None` if nobody knocked within `wait`.
    pub fn try_readmit(
        &mut self,
        coordinator: &mut Coordinator,
        wait: Duration,
    ) -> EngineResult<Option<usize>> {
        let deadline = Instant::now() + wait;
        let (stream, addr) = loop {
            match coordinator.poll_hello().map_err(EngineError::Net)? {
                Some(hello) => break hello,
                None => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        let Some(rank) = (0..self.size()).find(|&r| self.controls[r].is_none()) else {
            // No vacancy: drop the socket, the newcomer's join will fail.
            return Ok(None);
        };
        let live = self.alive();
        let control = coordinator
            .readmit(stream, addr.clone(), rank, &live)
            .map_err(EngineError::Net)?;
        self.controls[rank] = Some(control);
        // Live higher ranks dial the rejoiner (mesh rule: higher dials
        // lower's listener... reversed here: the rejoiner dialed lower live
        // ranks during its join; higher ranks dial its kept listener now).
        let next_gen = self.view.generation + 1;
        let dialers: Vec<usize> = live.iter().copied().filter(|&r| r > rank).collect();
        let admit = DriverMsg::Admit { rank: rank as u32, addr, generation: next_gen }.to_frame();
        for &r in &dialers {
            self.send_to(r, &admit);
        }
        self.last_admit_errors.clear();
        for &r in &dialers {
            match self.recv_from(r) {
                Some(ExecMsg::AdmitOk { error, .. }) if error.is_empty() => {}
                Some(ExecMsg::AdmitOk { error, .. }) => {
                    // The dial failed; the link stays down and the next job
                    // will surface it as a typed error. Not fatal here.
                    self.last_admit_errors.push((r, error));
                }
                Some(other) => self.last_admit_errors.push((r, format!("unexpected {other:?}"))),
                None => self.last_admit_errors.push((r, "control connection lost".into())),
            }
        }
        count_readmission();
        // The next run_job's refresh_view publishes the bumped generation.
        Ok(Some(rank))
    }

    /// Gathers flattened recovery metrics from every live executor.
    pub fn collect_metrics(&mut self) -> Vec<(usize, Vec<(String, u64)>)> {
        let live = self.alive();
        let metrics = DriverMsg::Metrics.to_frame();
        for &rank in &live {
            self.send_to(rank, &metrics);
        }
        let mut out = Vec::new();
        for &rank in &live {
            if let Some(ExecMsg::Metrics { pairs }) = self.recv_from(rank) {
                out.push((rank, pairs));
            }
        }
        out
    }

    /// Sends a clean shutdown to every surviving executor.
    pub fn shutdown(&mut self) {
        let shutdown = DriverMsg::Shutdown.to_frame();
        for rank in 0..self.size() {
            self.send_to(rank, &shutdown);
        }
    }
}

fn job_stage(id: u64, generation: u64) -> String {
    format!("multiproc job {id} (view {generation})")
}

/// Round-robins partitions over `ranks`, returning a per-rank (of `n_total`)
/// assignment; ranks not listed get no partitions.
fn assign_parts(total_parts: usize, ranks: &[usize], n_total: usize) -> Vec<Vec<u64>> {
    let mut assigned = vec![Vec::new(); n_total];
    for part in 0..total_parts as u64 {
        let rank = ranks[(part as usize) % ranks.len()];
        assigned[rank].push(part);
    }
    assigned
}

/// Reassembles the gather frames into the full vector through the driver's
/// [`Gather`] reader: every index of the job's `count` segments exactly
/// once, each written into its ceil-block as it is decoded (holding every
/// segment and then concatenating them made this 1 ms slower per
/// `tcp_large_jobs` op on 2 cores). Returns the value, the number of
/// segments and their encoded bytes (excluding the index and count words).
fn assemble(
    spec: &JobSpec,
    count: usize,
    frames: Vec<ByteBuf>,
) -> NetResult<(Vec<f64>, usize, u64)> {
    if spec.sparse {
        place(spec, count, Gather::new(count, frames)?, |s: DenseOrSparse| (s.size_hint(), s.into_dense()))
    } else {
        place(spec, count, Gather::new(count, frames)?, |s: F64Array| (s.size_hint(), s.0))
    }
}

/// [`assemble`]'s loop over one segment type; `dense` yields a segment's
/// encoded bytes and its values.
fn place<V: Payload>(
    spec: &JobSpec,
    count: usize,
    mut gather: Gather<V>,
    dense: impl Fn(V) -> (usize, Vec<f64>),
) -> NetResult<(Vec<f64>, usize, u64)> {
    let mut value = vec![0.0; spec.dim];
    let mut result_bytes = 0u64;
    for (index, segment) in gather.segments().enumerate() {
        let (bytes, values) = dense(segment);
        let block = ceil_block(spec.dim, count, index);
        if values.len() != block.len() {
            return Err(NetError::Codec(format!(
                "job {}: segment {index} of {count} ({} values) does not fit its block",
                spec.id,
                values.len()
            )));
        }
        value[block].copy_from_slice(&values);
        result_bytes += bytes as u64;
    }
    gather.finish()?;
    Ok((value, count, result_bytes))
}

/// Pairwise (log-depth) merge of whole aggregators — the tree the fallback
/// path degrades to.
fn tree_merge(mut aggs: Vec<Vec<f64>>) -> Vec<f64> {
    while aggs.len() > 1 {
        let mut next = Vec::with_capacity(aggs.len().div_ceil(2));
        let mut it = aggs.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            next.push(a);
        }
        aggs = next;
    }
    aggs.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_collectives::ring::OwnedSegment;
    use sparker_testkit::{check, tk_assert_eq, Config};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Spins up a driver plus `n` executor threads joined over real loopback
    /// TCP, runs `jobs` through them, and returns the outcomes.
    fn run_cluster(n: usize, channels: usize, jobs: Vec<JobSpec>) -> Vec<JobOutcome> {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let mut execs = Vec::new();
        for _ in 0..n {
            let addr = addr.clone();
            execs.push(std::thread::spawn(move || {
                run_executor(&addr, Duration::from_secs(20)).unwrap();
            }));
        }
        let controls = coordinator.wait_for(n, channels, Duration::from_secs(20)).unwrap();
        let mut driver = MultiProcDriver::new(controls);
        driver.reply_timeout = Duration::from_secs(30);
        let outcomes: Vec<JobOutcome> =
            jobs.iter().map(|j| driver.run_job(j).unwrap()).collect();
        driver.shutdown();
        for e in execs {
            e.join().unwrap();
        }
        outcomes
    }

    #[test]
    fn dense_job_is_bit_exact() {
        let spec = JobSpec::dense(11, 0xD5EED, 4096, 9);
        let outcomes = run_cluster(3, 2, vec![spec.clone()]);
        let o = &outcomes[0];
        assert_eq!(o.attempts, 1);
        assert!(!o.used_fallback);
        assert_eq!(o.wire_segments, 2 * 3 * 2);
        assert_eq!(o.ring_size, 3);
        assert_eq!(o.view_generation, 0);
        assert_eq!(bits(&o.value), bits(&oracle(&spec)));
    }

    #[test]
    fn sparse_job_is_bit_exact_and_cheaper_on_the_wire() {
        let dim = 8192;
        let sparse = JobSpec::sparse(21, 0x5EED5, dim, 9, 0.01);
        let mut dense = sparse.clone();
        dense.id = 22;
        dense.sparse = false;
        let outcomes = run_cluster(3, 2, vec![sparse.clone(), dense]);
        assert_eq!(bits(&outcomes[0].value), bits(&oracle(&sparse)));
        assert_eq!(bits(&outcomes[1].value), bits(&outcomes[0].value));
        assert!(
            outcomes[0].result_bytes * 3 < outcomes[1].result_bytes,
            "sparse gather ({} B) should be well under dense ({} B)",
            outcomes[0].result_bytes,
            outcomes[1].result_bytes
        );
    }

    #[test]
    fn hierarchical_job_is_bit_exact_over_real_tcp() {
        // 4 ranks blocked into 2 emulated nodes: ranks {0,1} on emunode-000,
        // {2,3} on emunode-001. Leaders (0, 2) own all P*L segments.
        let mut dense = JobSpec::dense(51, 0x41E2, 4096, 9);
        dense.algo = Algo::Hierarchical;
        dense.nodes = 2;
        let mut sparse = JobSpec::sparse(52, 0x41E3, 4096, 9, 0.02);
        sparse.algo = Algo::Hierarchical;
        sparse.nodes = 2;
        let outcomes = run_cluster(4, 2, vec![dense.clone(), sparse.clone()]);
        let o = &outcomes[0];
        assert_eq!(o.attempts, 1);
        assert!(!o.used_fallback);
        assert_eq!(o.wire_segments, 2 * 2, "P*L segments, leaders only");
        assert_eq!(o.ring_size, 4);
        assert_eq!(bits(&o.value), bits(&oracle(&dense)));
        assert_eq!(bits(&outcomes[1].value), bits(&oracle(&sparse)));
    }

    #[test]
    fn hierarchical_without_emulated_nodes_degenerates_to_flat() {
        // nodes == 0 leaves every rank its own node; the hierarchical path
        // must collapse to the flat ring layout (P*N segments).
        let mut spec = JobSpec::dense(53, 0x41E4, 2048, 6);
        spec.algo = Algo::Hierarchical;
        let outcomes = run_cluster(3, 2, vec![spec.clone()]);
        let o = &outcomes[0];
        assert_eq!(o.wire_segments, 2 * 3);
        assert_eq!(bits(&o.value), bits(&oracle(&spec)));
    }

    #[test]
    fn halving_and_tree_jobs_are_bit_exact_over_real_tcp() {
        let fallbacks = || metrics::counter("multiproc.fallbacks").get();
        let before = fallbacks();
        let mut halving = JobSpec::dense(54, 0x4A1F, 4096, 9);
        halving.algo = Algo::Halving;
        let mut tree = JobSpec::sparse(55, 0x72EE, 4096, 9, 0.02);
        tree.algo = Algo::Tree;
        let outcomes = run_cluster(3, 2, vec![halving.clone(), tree.clone()]);
        let (h, t) = (&outcomes[0], &outcomes[1]);
        assert_eq!((h.attempts, h.used_fallback), (1, false));
        assert_eq!(h.wire_segments, 2 * 3, "P*N is already a multiple of 2");
        assert_eq!(bits(&h.value), bits(&oracle(&halving)));
        assert_eq!((t.attempts, t.used_fallback, t.ring_size), (1, true, 0), "one tree round");
        assert_eq!(bits(&t.value), bits(&oracle(&tree)));
        assert_eq!(fallbacks(), before, "a tree primary is not a fallback");
    }

    #[test]
    fn assemble_rejects_bad_gathers_typed() {
        let spec = JobSpec::dense(1, 7, 10, 2);
        let frame = |indices: &[usize]| {
            let seg = |index| OwnedSegment { index, segment: F64Array(vec![1.0; 5]) };
            indices.iter().map(|&i| seg(i)).collect::<Vec<_>>().to_frame()
        };
        assert_eq!(assemble(&spec, 2, vec![frame(&[1]), frame(&[0])]).unwrap().0, vec![1.0; 10]);
        for bad in [vec![frame(&[0]), frame(&[0])], vec![frame(&[0])], vec![frame(&[usize::MAX])]] {
            assert!(matches!(assemble(&spec, 2, bad), Err(NetError::Codec(_))));
        }
    }

    #[test]
    fn injected_failure_retries_and_fences_stale_frames() {
        let mut spec = JobSpec::dense(31, 0xFA11, 2048, 6);
        spec.fail_rank = 1;
        spec.recv_deadline_ms = 700;
        let outcomes = run_cluster(3, 2, vec![spec.clone()]);
        let o = &outcomes[0];
        assert_eq!(o.attempts, 2, "attempt 0 must fail, attempt 1 succeed");
        assert!(!o.used_fallback);
        assert_eq!(o.view_generation, 0, "a transient failure must not change the view");
        assert_eq!(bits(&o.value), bits(&oracle(&spec)));
    }

    #[test]
    fn injected_connection_drop_heals_without_view_change() {
        let mut spec = JobSpec::dense(41, 0xD401, 2048, 6);
        spec.drop_rank = 1;
        spec.drop_peer = 0;
        spec.recv_deadline_ms = 1_500;
        let outcomes = run_cluster(3, 2, vec![spec.clone()]);
        let o = &outcomes[0];
        assert!(!o.used_fallback, "reconnection must heal the drop, not fallback");
        assert_eq!(o.view_generation, 0, "a healed drop must not change the view");
        assert_eq!(o.ring_size, 3);
        assert_eq!(bits(&o.value), bits(&oracle(&spec)));
    }

    /// Two ranks joined over loopback TCP with one channel, in rank order,
    /// and the driver's control connections that keep them joined.
    fn join_two() -> (Vec<Joined>, Vec<ControlConn>) {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let joins: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || rendezvous::join(&addr, Duration::from_secs(20)).unwrap())
            })
            .collect();
        let controls = coordinator.wait_for(2, 1, Duration::from_secs(20)).unwrap();
        let mut joined: Vec<Joined> = joins.into_iter().map(|h| h.join().unwrap()).collect();
        joined.sort_by_key(|j| j.rank);
        (joined, controls)
    }

    /// Runs `spec` on rank 0 of two ranks joined over loopback TCP, after
    /// rank 1 has sent only `bad`, the first frame rank 0 reduces, whose
    /// segment has 33 values where fewer or more are local, as a frame of
    /// another block would; the job must fail with a typed `JobErr`.
    fn wrong_length_frame_fails_the_job(mut spec: JobSpec, bad: impl FnOnce(&RingComm)) {
        let (joined, _controls) = join_two();
        spec.parallelism = 1;
        spec.assigned = vec![vec![0], vec![1]];
        let peer = RingComm::new(joined[1].transport.clone(), Arc::new(job_ring(&[0, 1], &spec)), 1)
            .with_epoch(spec.id, sparker_net::epoch::namespaced(spec.epoch_ns, spec.attempt));
        bad(&peer);
        match run_job(&joined[0], &spec) {
            ExecMsg::JobErr { error, .. } => {
                assert!(error.contains("dense segment says 33 values"), "{:?}: {error}", spec.algo)
            }
            other => panic!("{:?}: a wrong-length frame must fail the job typed, got {other:?}", spec.algo),
        }
    }

    #[test]
    fn wrong_length_dense_frame_fails_the_job_typed() {
        let bad = F64Array(vec![1.0; 33]);
        // The dense kernel: rank 0 first reduces segment 1 (32 values) from
        // its ring predecessor.
        let mut spec = JobSpec::dense(61, 0xBAD, 64, 2);
        spec.algo = Algo::FlatRing;
        wrong_length_frame_fails_the_job(spec, |peer| {
            peer.send_frame(0, 0, peer.frame_of(&bad)).unwrap()
        });
        // Halving: rank 0 keeps segment 0 (32 values) and merges the
        // count-prefixed range its partner sends.
        let mut spec = JobSpec::dense(62, 0xBAD, 64, 2);
        spec.algo = Algo::Halving;
        wrong_length_frame_fails_the_job(spec, |peer| {
            let mut frame = peer.frame(16 + 8 * bad.0.len());
            frame.encoder().put_usize(1);
            bad.encode_into(frame.encoder());
            peer.send_frame(0, 0, frame).unwrap()
        });
        // Hierarchical, both ranks on one node: leader rank 0 folds rank 1's
        // one segment (64 values).
        let mut spec = JobSpec::dense(63, 0xBAD, 64, 2);
        spec.algo = Algo::Hierarchical;
        spec.nodes = 1;
        wrong_length_frame_fails_the_job(spec, |peer| {
            peer.send_frame(0, 0, peer.frame_of(&bad)).unwrap()
        });
    }

    /// A decoded spec with no channels, or with a view that repeats a
    /// member, cannot form a ring; the executor must answer a typed
    /// `JobErr` instead of panicking in `RingTopology::new`.
    #[test]
    fn malformed_job_shape_fails_the_job_typed() {
        let (joined, _controls) = join_two();
        let mut spec = JobSpec::dense(64, 0x5EA, 64, 2);
        spec.parallelism = 1;
        spec.assigned = vec![vec![0], vec![1]];
        let mut no_channels = spec.clone();
        no_channels.parallelism = 0;
        let mut repeated_member = spec.clone();
        repeated_member.view = MembershipView { generation: 0, members: vec![0, 1, 0] };
        let mut stray_member = spec;
        stray_member.view = MembershipView { generation: 0, members: vec![0, u32::MAX] };
        for bad in [no_channels, repeated_member, stray_member] {
            match run_job(&joined[0], &bad) {
                ExecMsg::JobErr { error, .. } => {
                    assert!(error.contains("spec shape mismatch"), "{error}")
                }
                other => panic!("a malformed shape must fail the job typed, got {other:?}"),
            }
        }
    }

    #[test]
    fn payloads_roundtrip() {
        let spec = JobSpec::sparse(7, 9, 100, 4, 0.5);
        let mut with_assign = spec.clone();
        with_assign.assigned = vec![vec![0, 3], vec![1], vec![2]];
        with_assign.view = MembershipView { generation: 3, members: vec![0, 2, 3] };
        with_assign.epoch_ns = 511;
        with_assign.algo = Algo::Hierarchical;
        with_assign.nodes = 2;
        let frame = with_assign.to_frame();
        assert_eq!(frame.len(), with_assign.size_hint(), "JobSpec size_hint must be exact");
        for msg in [
            DriverMsg::Run(with_assign.clone()),
            DriverMsg::Fallback { id: 7, spec: with_assign, parts: vec![0, 1, 2, 3] },
            DriverMsg::Admit { rank: 2, addr: "127.0.0.1:4444".into(), generation: 5 },
            DriverMsg::Metrics,
            DriverMsg::Shutdown,
        ] {
            let back = DriverMsg::from_frame(msg.to_frame()).unwrap();
            assert_eq!(back, msg);
        }
        for msg in [
            ExecMsg::JobOk {
                id: 1,
                segments: vec![OwnedSegment { index: 5, segment: F64Array(vec![1.0]) }].to_frame(),
            },
            ExecMsg::JobErr {
                id: 2,
                rank: 1,
                view_gen: 4,
                dead_peers: vec![0, 2],
                error: "peer disconnected".into(),
            },
            ExecMsg::FallbackOk { id: 3, agg: vec![1.0, 2.0, 3.0] },
            ExecMsg::AdmitOk { rank: 2, error: String::new() },
            ExecMsg::Metrics {
                pairs: vec![("net.reconnect.healed".into(), 2), ("x".into(), 0)],
            },
        ] {
            let frame = msg.to_frame();
            assert_eq!(frame.len(), msg.size_hint(), "size_hint must be exact");
            assert_eq!(ExecMsg::from_frame(frame).unwrap(), msg);
        }
    }

    #[test]
    fn membership_view_roundtrips() {
        for view in [
            MembershipView::full(4),
            MembershipView { generation: 9, members: vec![1, 3] },
            MembershipView { generation: 0, members: Vec::new() },
        ] {
            let back = MembershipView::from_frame(view.to_frame()).unwrap();
            assert_eq!(back, view);
            assert_eq!(view.to_frame().len(), view.size_hint());
        }
    }

    #[test]
    fn proc_stat_fields_count_from_the_last_paren() {
        let line = "4242 (exec (w 2)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    56 7 0 0 20 0 3 0 671006 2703360 306 18446744073709551615";
        assert_eq!(parse_proc_stat(line), Some((1234, 63)));
        assert_eq!(parse_proc_stat("4242 (exec) S 1 4242"), None, "truncated line");
        assert_eq!(parse_proc_stat("no parenthesis"), None);
        let own = std::fs::read_to_string("/proc/self/stat").ok();
        if let Some(own) = own {
            assert!(parse_proc_stat(&own).is_some(), "own stat line {own:?}");
        }
    }

    /// The formulation `local_aggregate` replaced: a fresh `part_vector`
    /// per partition, added into the aggregator.
    fn sum_of_part_vectors(spec: &JobSpec, parts: &[u64]) -> Vec<f64> {
        let mut agg = vec![0.0; spec.dim];
        for &part in parts {
            for (a, x) in agg.iter_mut().zip(part_vector(spec.seed, part, spec.dim, spec.density)) {
                *a += x;
            }
        }
        agg
    }

    #[test]
    fn folding_partitions_is_bit_identical_to_summing_part_vectors() {
        check(&Config::with_cases(64), |src| {
            let dim = src.choose(&[0usize, 1, 63, 64, 4097]);
            let density = src.choose(&[1e-3, 0.25, 1.0]);
            let seed = src.u64_any();
            // Few distinct parts, so lists repeat parts; length 0 is empty.
            let parts = src.vec_of(0..6, |s| s.u64_in(0..4));
            let spec = JobSpec::sparse(1, seed, dim, 4, density);
            tk_assert_eq!(
                bits(&local_aggregate(&spec, &parts)),
                bits(&sum_of_part_vectors(&spec, &parts)),
                "dim {dim}, density {density}, parts {parts:?}"
            );
            for &part in &parts {
                let mut folded = vec![0.0; dim];
                fold_part(&mut folded, seed, part, density);
                tk_assert_eq!(bits(&part_vector(seed, part, dim, density)), bits(&folded));
            }
            Ok(())
        });
    }

    /// `part_vector` is the dataset the benchmark's probes and cached
    /// partitions are built from: its bits must never drift.
    #[test]
    fn part_vector_output_is_pinned() {
        let digest = |v: Vec<f64>| v.iter().fold(0u64, |h, x| splitmix64(h ^ x.to_bits()));
        assert_eq!(digest(part_vector(42, 3, 4097, 0.25)), 0xe21a_93ca_8385_bda5);
        assert_eq!(digest(part_vector(0x5EED, 0, 64, 1.0)), 0x7511_e070_f17c_1cae);
        assert_eq!(digest(part_vector(7, 11, 63, 1e-3)), 0x2515_01a4_1a62_c2bc);
    }

    #[test]
    fn oracle_matches_manual_sum() {
        let spec = JobSpec::dense(1, 42, 64, 5);
        let mut manual = vec![0.0; 64];
        for p in 0..5 {
            for (m, x) in manual.iter_mut().zip(part_vector(42, p, 64, 1.0)) {
                *m += x;
            }
        }
        assert_eq!(bits(&oracle(&spec)), bits(&manual));
    }
}
