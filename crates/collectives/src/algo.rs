//! [`Algo`], the one algorithm enum from selector to wire to collective,
//! and [`segment_count`], the segment space each choice splits an
//! aggregator into on a given ring.

use sparker_net::codec::{Decoder, Encoder, Payload};
use sparker_net::error::{NetError, NetResult};
use sparker_net::topology::RingTopology;

use crate::hierarchical::node_topology_of;

/// The algorithm menu the selector ranks. One entry per reduction path the
/// engine can actually run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Flat unpipelined ring reduce-scatter over all executors.
    FlatRing,
    /// Flat ring with `C` pipeline chunks per segment, `C in 2..=8`.
    ChunkedRing(u8),
    /// Recursive halving (Rabenseifner) reduce-scatter.
    Halving,
    /// Binomial tree over whole aggregators (the non-splitting baseline,
    /// and the engine's degradation target).
    Tree,
    /// Two-level: intra-node fold to node leaders, ring over leaders.
    Hierarchical,
}

impl Algo {
    /// Stable metric/label name (chunk count elided — it is a parameter of
    /// the ring, not a different algorithm).
    pub fn name(&self) -> &'static str {
        match self {
            Algo::FlatRing => "ring",
            Algo::ChunkedRing(_) => "chunked_ring",
            Algo::Halving => "halving",
            Algo::Tree => "tree",
            Algo::Hierarchical => "hier",
        }
    }

    /// The full candidate set, in canonical (tie-break) order.
    pub fn candidates() -> Vec<Algo> {
        let mut v = vec![Algo::FlatRing];
        v.extend((2..=8).map(Algo::ChunkedRing));
        v.push(Algo::Halving);
        v.push(Algo::Tree);
        v.push(Algo::Hierarchical);
        v
    }

    /// Pipeline chunk count this choice implies.
    pub fn chunks(&self) -> usize {
        match self {
            Algo::ChunkedRing(c) => *c as usize,
            _ => 1,
        }
    }
}

/// The one wire form of an algorithm choice: a tag byte, plus the chunk
/// count for [`Algo::ChunkedRing`]. An unknown tag is a typed codec error.
impl Payload for Algo {
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            Algo::FlatRing => enc.put_u8(0),
            Algo::ChunkedRing(c) => {
                enc.put_u8(1);
                enc.put_u8(*c);
            }
            Algo::Halving => enc.put_u8(2),
            Algo::Tree => enc.put_u8(3),
            Algo::Hierarchical => enc.put_u8(4),
        }
    }

    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        match dec.get_u8()? {
            0 => Ok(Algo::FlatRing),
            1 => Ok(Algo::ChunkedRing(dec.get_u8()?)),
            2 => Ok(Algo::Halving),
            3 => Ok(Algo::Tree),
            4 => Ok(Algo::Hierarchical),
            tag => Err(NetError::Codec(format!("unknown reduction algorithm tag {tag}"))),
        }
    }

    fn size_hint(&self) -> usize {
        1 + usize::from(matches!(self, Algo::ChunkedRing(_)))
    }
}

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
