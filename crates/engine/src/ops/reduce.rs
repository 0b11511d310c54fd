//! The reduce phase of split aggregation, shared by threads and processes.
//!
//! [`Algo`] is the one algorithm vocabulary from selector to wire to
//! collective, and this module is the one place it is dispatched. The
//! in-process ring stage ([`crate::ops::split_aggregate`]) and the
//! multi-process executor ([`crate::multiproc`]) both call
//! [`reduce_scatter`] with their split as a producer and their `reduceOp`
//! as the merge, and both sides of a gather agree on the segment space
//! through [`segment_count`].

use sparker_collectives::halving::recursive_halving_reduce_scatter_by;
use sparker_collectives::hierarchical::{hierarchical_reduce_scatter_by, node_topology_of};
use sparker_collectives::lanes::run_lanes;
use sparker_collectives::ring::{ring_reduce_scatter_produced_by, OwnedSegment};
use sparker_collectives::segment::slice_bounds;
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
