//! The reduce phase of split aggregation, shared by threads and processes.
//!
//! [`Algo`] is the one algorithm vocabulary from selector to wire to
//! collective, and this module is the one place it is dispatched. The
//! in-process ring stage ([`crate::ops::split_aggregate`]) and the
//! multi-process executor ([`crate::multiproc`]) both call
//! [`reduce_scatter`] with their split as a producer and their `reduceOp`
//! as the merge, or [`reduce_scatter_dense`] for a dense `f64` sum, and both
//! sides of a gather agree on the segment space through [`segment_count`].

use std::ops::Range;
use std::sync::OnceLock;

use sparker_collectives::halving::recursive_halving_reduce_scatter_by;
use sparker_collectives::hierarchical::{hierarchical_reduce_scatter_by, node_topology_of};
use sparker_collectives::lanes::run_lanes;
use sparker_collectives::ring::{
    ring_reduce_scatter_dense, ring_reduce_scatter_produced_by, OwnedSegment,
};
use sparker_collectives::segment::{merge_segments, slice_bounds, SumSegment};
use sparker_collectives::RingComm;
use sparker_net::codec::Payload;
use sparker_net::error::{NetError, NetResult};
use sparker_net::topology::RingTopology;
use sparker_tuner::Algo;

use crate::metrics::AggStrategy;

/// Number of segments `algo` splits every aggregator into on `ring`, which
/// is also the index space the gather reassembles:
/// * the ring family `P·N·C` (the tree's fallback vectors use the same);
/// * halving `P·N` rounded up to a multiple of the largest power of two
///   `≤ N`, so every halving round splits evenly;
/// * hierarchical `P·L` over the `L` node groups (leaders own every
///   segment, non-leaders none).
pub fn segment_count(algo: Algo, ring: &RingTopology) -> usize {
    let (p, n) = (ring.parallelism(), ring.size().max(1));
    match algo {
        Algo::FlatRing | Algo::ChunkedRing(_) | Algo::Tree => p * n * algo.chunks(),
        Algo::Halving => {
            let p2 = 1usize << n.ilog2();
            (p * n).div_ceil(p2) * p2
        }
        Algo::Hierarchical => p * node_topology_of(ring).num_nodes(),
    }
}

/// Runs `algo`'s reduce-scatter over `comm`: segment `g` of
/// [`segment_count`] is `produce(g)`, and segments meeting at a rank are
/// combined with `merge`. Returns the fully-reduced segments this rank owns
/// in ascending index order, the order a gather frame carries them in.
///
/// `Algo::Tree` has no reduce-scatter phase: both hosts run their tree path
/// instead, so here it is an error.
pub fn reduce_scatter<V, G, F>(
    comm: &RingComm,
    algo: Algo,
    produce: &G,
    merge: &F,
) -> NetResult<Vec<OwnedSegment<V>>>
where
    V: Payload,
    G: Fn(usize) -> V + Sync,
    F: Fn(&mut V, V) + Sync,
{
    let total = segment_count(algo, comm.ring());
    let split_all = || split_parallel(produce, total, comm.parallelism());
    let mut owned = match algo {
        // The ring's lanes split their own index ranges.
        Algo::FlatRing | Algo::ChunkedRing(_) => {
            ring_reduce_scatter_produced_by(comm, produce, merge, algo.chunks())
        }
        Algo::Halving => recursive_halving_reduce_scatter_by(comm, split_all(), merge),
        Algo::Hierarchical => hierarchical_reduce_scatter_by(comm, split_all(), merge),
        Algo::Tree => Err(NetError::InvalidAddress(
            "the tree has no reduce-scatter phase; run the tree path".into(),
        )),
    }?;
    owned.sort_unstable_by_key(|o| o.index);
    Ok(owned)
}

/// [`reduce_scatter`] of a dense `f64` sum: segment `g` is the view
/// `data[bounds(g)]` and segments meeting at a rank are added. The ring
/// family runs the in-place reduce-copy kernel
/// ([`ring_reduce_scatter_dense`]), which never copies a segment out of
/// `data`; halving and hierarchical take copies of the views, like any
/// owned split. Bit-identical to [`reduce_scatter`] over those copies with
/// [`merge_segments`].
///
/// An incoming segment whose length differs from the local one (a frame of
/// another block, after a dropped link lost frames) is [`NetError::Codec`]
/// on every algorithm, never a panic.
pub fn reduce_scatter_dense<B>(
    comm: &RingComm,
    algo: Algo,
    data: &[f64],
    bounds: &B,
) -> NetResult<Vec<OwnedSegment<SumSegment>>>
where
    B: Fn(usize) -> Range<usize> + Sync,
{
    match algo {
        Algo::FlatRing | Algo::ChunkedRing(_) => {
            ring_reduce_scatter_dense(comm, data, bounds, algo.chunks())
        }
        Algo::Halving | Algo::Hierarchical | Algo::Tree => {
            // The owned collectives take an infallible merge: the first
            // mismatch is kept and fails the op once they return.
            let mismatch = OnceLock::new();
            let merge = |a: &mut SumSegment, b: SumSegment| {
                if a.0.len() == b.0.len() {
                    merge_segments(a, b);
                } else {
                    let _ = mismatch.set((b.0.len(), a.0.len()));
                }
            };
            let owned =
                reduce_scatter(comm, algo, &|g| SumSegment(data[bounds(g)].to_vec()), &merge)?;
            match mismatch.into_inner() {
                None => Ok(owned),
                Some((got, want)) => Err(NetError::Codec(format!(
                    "dense segment says {got} values where {want} are local"
                ))),
            }
        }
    }
}

/// Produces all `total` segments on `parallelism` lanes, each lane a
/// contiguous chunk of the index space, for the collectives that take
/// ready-made segments.
pub(crate) fn split_parallel<V: Send>(
    produce: &(impl Fn(usize) -> V + Sync),
    total: usize,
    parallelism: usize,
) -> Vec<V> {
    let chunks = run_lanes(0..parallelism, |t| {
        let (lo, hi) = slice_bounds(total, t, parallelism);
        (lo..hi).map(produce).collect::<Vec<V>>()
    });
    chunks.into_iter().flatten().collect()
}

/// The metrics label of the aggregation path `algo` runs.
pub(crate) fn strategy_of(algo: Algo) -> AggStrategy {
    match algo {
        Algo::FlatRing | Algo::ChunkedRing(_) | Algo::Tree => AggStrategy::Split,
        Algo::Halving => AggStrategy::SplitHalving,
        Algo::Hierarchical => AggStrategy::SplitHier,
    }
}
