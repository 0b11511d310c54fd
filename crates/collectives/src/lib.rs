//! # sparker-collectives
//!
//! Scalable reduction algorithms over the `sparker-net` substrate.
//!
//! The Sparker paper's core argument is that Spark cannot use "scalable
//! reduction" — reduction algorithms that *split* the reduced value to gain
//! parallelism — because its aggregation interface treats aggregators as
//! opaque objects. This crate implements those algorithms, generic over a
//! [`Segment`] type (the paper's aggregator-segment type `V`):
//!
//! * [`ring::ring_reduce_scatter`] — the algorithm Sparker uses (§4.2,
//!   Figure 11): bandwidth-optimal, each of `N` executors ends up with
//!   `1/N`-th of the reduced value having moved only `(N-1)/N` of its data.
//!   Runs over the parallel directed ring with `P` channels: the value is
//!   split into `P·N` segments and `P` threads run independent rings, thread
//!   `i` on channel `i` over segment range `[i·N, (i+1)·N)`. The chunked
//!   variants ([`ring::ring_reduce_scatter_chunked`]) additionally split each
//!   logical segment into `C` chunks and software-pipeline send/merge within
//!   every ring step — depth pipelining on top of the PDR's width.
//!   [`ring::ring_reduce_scatter_dense`] runs the same schedule for a dense
//!   `f64` sum, reducing views of the aggregator in place.
//! * [`tree::binomial_tree_reduce`] — the non-splitting baseline shaped like
//!   Spark's own `treeAggregate` reduction: `⌈log₂N⌉` rounds, whole
//!   aggregators on every hop.
//! * [`halving::recursive_halving_reduce_scatter`] — the Rabenseifner-style
//!   alternative (cited by the paper as state of the art), used for the
//!   algorithm ablation.
//! * [`gather`] — the driver-side decode of the owned segments a
//!   reduce-scatter leaves on each rank.
//! * [`hierarchical`] — the two-level path: intra-node fold to an elected
//!   node leader, ring over leaders only; NIC bytes shrink by the
//!   executors-per-node factor.
//!
//! Each collective has one implementation, taking the merge as a closure
//! (the engine passes the user's `reduceOp`); the `Segment`-bound entry
//! points are single calls into it with [`Segment::merge_from`].
//!
//! All algorithms are written against [`comm::RingComm`] — a rank-bound view
//! of a transport plus ring topology — so the same code runs in unit tests,
//! in the benchmark's probes, inside the engine's executors and over TCP.

pub mod comm;
pub mod gather;
pub mod halving;
pub mod hierarchical;
pub mod lanes;
pub mod ring;
pub mod segment;
pub mod testing;
pub mod tree;

pub use comm::RingComm;
pub use hierarchical::{
    hierarchical_reduce_scatter, hierarchical_reduce_scatter_by, node_topology_of,
};
pub use lanes::run_lanes;
pub use ring::{
    ring_reduce_scatter, ring_reduce_scatter_chunked, ring_reduce_scatter_dense,
    ring_reduce_scatter_produced_by, OwnedSegment,
};
pub use segment::{Segment, SumSegment, U64SumSegment};
