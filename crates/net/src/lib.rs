//! # sparker-net
//!
//! Communication substrate for the Sparker reproduction.
//!
//! The Sparker paper (ICPP'21) builds a dedicated low-latency inter-executor
//! communication layer ("scalable communicator") on top of JeroMQ because
//! Spark's built-in mechanisms (RPC and the BlockManager) are either
//! driver-centric or far too slow (3861 µs round-trip vs 16 µs for MPI).
//! This crate provides the equivalent substrate for our in-process cluster:
//!
//! * [`bytebuf`] — the in-repo byte container ([`ByteBuf`] /
//!   [`bytebuf::ByteBufMut`]): reference-counted frames with zero-copy
//!   slicing, replacing the `bytes` crate so the workspace builds with no
//!   external dependencies.
//! * [`codec`] — the explicit serialization boundary. Every value that crosses
//!   an executor boundary is encoded into [`ByteBuf`] through this module,
//!   so serialized-byte counts (the quantity In-Memory Merge optimizes) are
//!   observable everywhere.
//! * [`sync`] — std-only locks (poison-recovering, see the module's
//!   convention note), a reentrant mutex, and the unbounded MPMC channel the
//!   transports and executor work queues run on.
//! * [`profile`] — network profiles: latency/bandwidth of intra-node and
//!   inter-node links, single-stream (per-channel) caps, NIC line rate, and
//!   per-transport software overheads. Presets reproduce the paper's two
//!   clusters (`BIC`: 8× 56-core nodes on 100 Gbps IPoIB, `AWS`: 10×
//!   96-core m5d.24xlarge on 25 Gbps Ethernet).
//! * [`transport`] — the [`transport::Transport`] trait plus the shaped
//!   in-process mesh transport used by executors. Message delivery pays the
//!   profiled latency + size/bandwidth delay, with separate accounting for
//!   per-channel streams and the node NIC, which is what makes the paper's
//!   "parallel channels are required to fill a TCP pipe" observation
//!   reproducible in-process.
//! * [`blockmanager`] — a deliberately slow polling key-value transport that
//!   emulates Spark BlockManager-based message passing (the paper's strawman).
//! * [`fault`] — deterministic transport-level fault injection: a
//!   [`fault::FaultyTransport`] decorator replaying a [`fault::NetFaultPlan`]
//!   (drops, delays, corruption, executor kills, partitions) against any
//!   inner transport, the substrate of the chaos suite.
//! * [`pool`] — the frame/buffer pool ([`FramePool`]): power-of-two
//!   freelists that recycle encode-buffer allocations through the hot
//!   reduction path (epoch wrapping, ring segment frames), with obs counters
//!   for hits/misses/bytes-reused. Reuse is refcount-safe and can never leak
//!   stale bytes (see the module docs and `tests/prop_pool.rs`).
//! * [`epoch`] — the `(op, attempt)` epoch header plus checksum that fences
//!   collective frames: stale-attempt frames are rejected by
//!   receivers, corrupted frames fail as [`NetError::Codec`] instead of
//!   decoding into a wrong answer.
//! * [`topology`] — executor ranks, the parallel directed ring (PDR), and
//!   topology-aware ordering (sort executors by hostname so that ring
//!   neighbours land on the same node whenever possible).
//! * [`hash`] — `sum64`, the word-wise checksum of the epoch and TCP frames,
//!   computed inside the copy each layer already makes.
//! * [`tcp`] — the real-socket [`Transport`]: multi-process TCP over
//!   length-prefixed `SPKT` frames ([`tcp::frame`], normative spec in
//!   DESIGN.md §5g) with pooled zero-allocation send/receive, plus the
//!   driver-rooted rendezvous that assembles the peer mesh
//!   ([`tcp::rendezvous`]).
//! * [`mod@bench`] — ping-pong latency and streaming throughput micro-benchmarks
//!   used by the Figure 12/13 harnesses.

#![warn(missing_docs)]

pub mod bench;
pub mod blockmanager;
pub mod bytebuf;
pub mod codec;
pub mod epoch;
pub mod error;
pub mod fault;
pub mod hash;
pub mod pool;
pub mod profile;
pub mod sync;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod transport;

pub use bytebuf::{ByteBuf, ByteBufMut};
pub use codec::{Decoder, Encoder, Payload};
pub use error::NetError;
pub use fault::{FaultyTransport, NetFaultPlan};
pub use pool::{FramePool, PoolStats};
pub use profile::{LinkProfile, NetProfile, TransportKind};
pub use tcp::TcpTransport;
pub use topology::{ExecutorId, ExecutorInfo, LinkClass, NodeGroup, NodeTopology, RingTopology};
pub use transport::{MeshTransport, Transport};
