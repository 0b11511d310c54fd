//! Gather: collecting reduce-scattered segments to a single rank.
//!
//! Sparker's split aggregation finishes by gathering each executor's
//! fully-reduced segments into the driver (via Spark's `collect`), where the
//! user's `concatOp` reassembles them (§4.2). Inside the collectives layer
//! we provide the executor-side equivalent: gather to a chosen root rank.

use sparker_net::codec::{Decoder, Encoder, Payload};
use sparker_net::error::{NetError, NetResult};

use crate::comm::RingComm;
use crate::ring::OwnedSegment;
use crate::segment::Segment;

/// The one wire form of owned segments, used by [`gather_segments`], the
/// engine's gather to the driver and the multi-process job reply: the
/// global index, then the segment. A `Vec` of them is the gather frame.
impl<V: Payload> Payload for OwnedSegment<V> {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_usize(self.index);
        self.segment.encode_into(enc);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok(Self { index: dec.get_usize()?, segment: V::decode_from(dec)? })
    }
    fn size_hint(&self) -> usize {
        8 + self.segment.size_hint()
    }
}

/// Orders gathered segments by global index, requiring every index in
/// `0..total` exactly once.
pub fn in_index_order<V>(
    total: usize,
    owned: impl IntoIterator<Item = OwnedSegment<V>>,
) -> NetResult<Vec<V>> {
    let mut slots: Vec<Option<V>> = (0..total).map(|_| None).collect();
    for o in owned {
        match slots.get_mut(o.index) {
            Some(slot @ None) => *slot = Some(o.segment),
            _ => {
                return Err(NetError::Codec(format!(
                    "gathered segment {} of {total} is duplicated or out of range",
                    o.index
                )))
            }
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| NetError::Codec(format!("segment {i} of {total} missing"))))
        .collect()
}

/// Gathers every rank's owned segments into `root`.
///
/// At `root`, returns all segments sorted by global index (and verifies the
/// index space `0..total` is covered exactly once); elsewhere returns `None`.
pub fn gather_segments<S: Segment>(
    comm: &RingComm,
    owned: Vec<OwnedSegment<S>>,
    root: usize,
    total: usize,
) -> NetResult<Option<Vec<S>>> {
    let n = comm.size();
    assert!(root < n);
    if comm.rank() != root {
        comm.send_to_rank(root, 0, owned.to_frame())?;
        return Ok(None);
    }
    let mut all = owned;
    for rank in (0..n).filter(|&r| r != root) {
        all.extend(Vec::<OwnedSegment<S>>::from_frame(comm.recv_from_rank(rank, 0)?)?);
    }
    in_index_order(total, all).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::ring_reduce_scatter;
    use crate::segment::U64SumSegment;
    use crate::testing::{run_ring_cluster, RingClusterSpec};

    #[test]
    fn reduce_scatter_then_gather_equals_full_reduction() {
        let spec = RingClusterSpec::unshaped(2, 2, 2);
        let n = spec.total_executors();
        let total = 2 * n;
        let results = run_ring_cluster(&spec, |comm| {
            let segs: Vec<U64SumSegment> = (0..total)
                .map(|g| U64SumSegment(vec![comm.rank() as u64 + g as u64; 3]))
                .collect();
            let owned = ring_reduce_scatter(&comm, segs).unwrap();
            gather_segments(&comm, owned, 0, total).unwrap()
        });
        for (rank, r) in results.iter().enumerate() {
            if rank == 0 {
                let segs = r.as_ref().unwrap();
                assert_eq!(segs.len(), total);
                for (g, seg) in segs.iter().enumerate() {
                    let want: u64 = (0..n).map(|r| r as u64 + g as u64).sum();
                    assert!(seg.0.iter().all(|&v| v == want));
                }
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn gather_to_nonzero_root() {
        let spec = RingClusterSpec::unshaped(1, 3, 1);
        let results = run_ring_cluster(&spec, |comm| {
            let owned = vec![OwnedSegment {
                index: (comm.rank() + 1) % comm.size(),
                segment: U64SumSegment(vec![comm.rank() as u64]),
            }];
            gather_segments(&comm, owned, 2, 3).unwrap()
        });
        assert!(results[0].is_none() && results[1].is_none());
        let segs = results[2].as_ref().unwrap();
        // Segment g was owned by rank (g + n - 1) % n = g - 1 mod 3.
        assert_eq!(segs[0].0, vec![2]);
        assert_eq!(segs[1].0, vec![0]);
        assert_eq!(segs[2].0, vec![1]);
    }

    #[test]
    fn gather_detects_missing_segments() {
        let spec = RingClusterSpec::unshaped(1, 2, 1);
        let results = run_ring_cluster(&spec, |comm| {
            // Both ranks claim segment 0: duplicate + missing index 1.
            let owned = vec![OwnedSegment {
                index: 0,
                segment: U64SumSegment(vec![1]),
            }];
            gather_segments(&comm, owned, 0, 2)
        });
        assert!(results[0].is_err());
        assert!(matches!(results[1], Ok(None)));
    }
}
