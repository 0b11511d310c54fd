//! Gather: collecting reduce-scattered segments to a single rank.
//!
//! Sparker's split aggregation finishes by gathering each executor's
//! fully-reduced segments into the driver (via Spark's `collect`), where the
//! user's `concatOp` reassembles them (§4.2). [`Gather`] is the driver's
//! end: it hands `concatOp` the paper's `Seq[V]` as [`Segments`], decoding
//! each segment from its executor's frame only when concat asks for it.
//! Inside the collectives layer we also provide the executor-side
//! equivalent: gather to a chosen root rank.

use std::marker::PhantomData;

use sparker_net::codec::{Decoder, Encoder, Payload};
use sparker_net::error::{NetError, NetResult};
use sparker_net::ByteBuf;

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

/// The paper's `Seq[V]` as `concatOp` receives it: every segment of the
/// index space, in index order.
///
/// Built from a driver-side [`Gather`], each segment is decoded from its
/// frame at the moment concat asks for it, so at most one decoded segment
/// is alive next to concat's output. Values already held (the tree
/// fallback, tests) convert with `From<Vec<V>>`. A malformed
/// gather ends the sequence early; the caller learns why from
/// [`Gather::finish`] and discards concat's value.
pub struct Segments<'a, V> {
    source: Source<'a, V>,
}

enum Source<'a, V> {
    Held(std::vec::IntoIter<V>),
    Gathered(&'a mut Gather<V>),
}

impl<V> From<Vec<V>> for Segments<'static, V> {
    fn from(segments: Vec<V>) -> Self {
        Self { source: Source::Held(segments.into_iter()) }
    }
}

impl<V: Payload> Iterator for Segments<'_, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        match &mut self.source {
            Source::Held(held) => held.next(),
            Source::Gathered(gather) => gather.next_segment(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.source {
            Source::Held(held) => held.len(),
            Source::Gathered(gather) => gather.left(),
        };
        (left, Some(left))
    }
}

impl<V: Payload> ExactSizeIterator for Segments<'_, V> {}

/// The driver's end of a gather: the executors' gather frames (each a
/// `Vec<OwnedSegment<V>>` in ascending index order), read lazily.
///
/// One [`Decoder`] per frame; of each frame only the next segment's index
/// word has been read. Wire-derived bytes never panic: a duplicate, missing,
/// out-of-range or out-of-order index, a truncated segment or trailing bytes
/// latch a [`NetError::Codec`], end [`Segments`] and come back from
/// [`Gather::finish`].
pub struct Gather<V> {
    frames: Vec<FrameCursor>,
    total: usize,
    next: usize,
    error: Option<NetError>,
    segment: PhantomData<fn() -> V>,
}

/// One gather frame with the index word of its next segment already read.
struct FrameCursor {
    dec: Decoder,
    head: Option<usize>,
    /// Segments behind `head` whose index words are still unread.
    unread: usize,
}

impl FrameCursor {
    /// Reads the next index word, or checks the frame ends if none is left.
    fn advance(&mut self, total: usize) -> NetResult<()> {
        if self.unread == 0 {
            self.head = None;
            return match self.dec.remaining() {
                0 => Ok(()),
                n => Err(NetError::Codec(format!("{n} trailing bytes after a gather frame"))),
            };
        }
        let index = self.dec.get_usize()?;
        if index >= total || self.head.is_some_and(|prev| index <= prev) {
            return Err(NetError::Codec(format!(
                "gathered segment {index} of {total} is out of range or out of order in its frame"
            )));
        }
        self.head = Some(index);
        self.unread -= 1;
        Ok(())
    }
}

impl<V: Payload> Gather<V> {
    /// Opens `frames`, which together must hold exactly `total` segments.
    pub fn new(total: usize, frames: Vec<ByteBuf>) -> NetResult<Self> {
        let mut cursors = Vec::with_capacity(frames.len());
        let mut count = 0usize;
        for frame in frames {
            let mut dec = Decoder::new(frame);
            let unread = dec.get_usize()?;
            count = count.saturating_add(unread);
            let mut cursor = FrameCursor { dec, head: None, unread };
            cursor.advance(total)?;
            cursors.push(cursor);
        }
        if count != total {
            return Err(NetError::Codec(format!(
                "gather frames hold {count} segments, expected {total}"
            )));
        }
        Ok(Self { frames: cursors, total, next: 0, error: None, segment: PhantomData })
    }

    /// The gathered segments in index order, for `concatOp`.
    pub fn segments(&mut self) -> Segments<'_, V> {
        Segments { source: Source::Gathered(self) }
    }

    /// Decodes and checks whatever concat left unconsumed, then reports the
    /// first error the gather met, if any.
    pub fn finish(mut self) -> NetResult<()> {
        while self.next_segment().is_some() {}
        self.error.map_or(Ok(()), Err)
    }

    fn left(&self) -> usize {
        if self.error.is_some() {
            0
        } else {
            self.total - self.next
        }
    }

    fn next_segment(&mut self) -> Option<V> {
        if self.left() == 0 {
            return None;
        }
        match self.decode_next() {
            Ok(segment) => Some(segment),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    fn decode_next(&mut self) -> NetResult<V> {
        let (index, total) = (self.next, self.total);
        let frame = self.frames.iter_mut().find(|f| f.head == Some(index)).ok_or_else(|| {
            NetError::Codec(format!("gathered segment {index} of {total} is missing or duplicated"))
        })?;
        let segment = V::decode_from(&mut frame.dec)?;
        frame.advance(total)?;
        self.next += 1;
        Ok(segment)
    }
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
        comm.send_frame(root, 0, comm.frame_of(&owned))?;
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

    /// A gather frame of `(index, value)` segments, in the order given.
    fn frame(owned: &[(usize, u64)]) -> ByteBuf {
        owned
            .iter()
            .map(|&(index, v)| OwnedSegment { index, segment: U64SumSegment(vec![v; 2]) })
            .collect::<Vec<_>>()
            .to_frame()
    }

    /// `frame` with its last `cut` bytes removed.
    fn truncated(owned: &[(usize, u64)], cut: usize) -> ByteBuf {
        let bytes = frame(owned).to_vec();
        ByteBuf::from(bytes[..bytes.len() - cut].to_vec())
    }

    /// Runs a concat that consumes at most `take` segments lazily; returns
    /// the values it saw and what the gather reported after it.
    fn concat_lazily(total: usize, frames: Vec<ByteBuf>, take: usize) -> (Vec<u64>, NetResult<()>) {
        let mut gather = match Gather::<U64SumSegment>::new(total, frames) {
            Ok(gather) => gather,
            Err(e) => return (Vec::new(), Err(e)),
        };
        let seen = gather.segments().take(take).map(|s| s.0[0]).collect();
        (seen, gather.finish())
    }

    fn assert_codec(case: &str, got: NetResult<()>) {
        assert!(matches!(got, Err(NetError::Codec(_))), "{case}: {got:?}");
    }

    #[test]
    fn lazy_gather_yields_every_segment_in_index_order() {
        let frames = vec![frame(&[(0, 10), (2, 12)]), frame(&[]), frame(&[(1, 11), (3, 13)])];
        let mut gather = Gather::<U64SumSegment>::new(4, frames).unwrap();
        let mut segments = gather.segments();
        assert_eq!(segments.len(), 4);
        assert_eq!(segments.next().map(|s| s.0), Some(vec![10, 10]));
        assert_eq!(segments.len(), 3);
        assert_eq!(segments.map(|s| s.0[0]).collect::<Vec<_>>(), vec![11, 12, 13]);
        gather.finish().unwrap();
    }

    #[test]
    fn malformed_lazy_gathers_fail_typed() {
        let cases: Vec<(&str, usize, Vec<ByteBuf>)> = vec![
            ("duplicate across frames", 3, vec![frame(&[(0, 1), (1, 1)]), frame(&[(1, 1)])]),
            ("duplicate in a frame", 2, vec![frame(&[(0, 1), (0, 1)])]),
            ("missing", 3, vec![frame(&[(0, 1)]), frame(&[(2, 1)])]),
            ("out of range at a head", 2, vec![frame(&[(7, 1)]), frame(&[(0, 1)])]),
            ("out of range behind a head", 2, vec![frame(&[(0, 1), (5, 1)])]),
            ("out of order in a frame", 2, vec![frame(&[(1, 1), (0, 1)])]),
            ("truncated segment", 2, vec![truncated(&[(0, 1), (1, 1)], 4)]),
            ("truncated index", 2, vec![truncated(&[(0, 1), (1, 1)], 28)]),
            ("trailing bytes", 2, vec![frame(&[(0, 1)]), ByteBuf::from({
                let mut bytes = frame(&[(1, 1)]).to_vec();
                bytes.extend([0u8; 3]);
                bytes
            })]),
            ("empty frame", 1, vec![ByteBuf::new(), frame(&[(0, 1)])]),
        ];
        for (case, total, frames) in cases {
            let (_, got) = concat_lazily(total, frames, usize::MAX);
            assert_codec(case, got);
        }
    }

    #[test]
    fn a_concat_that_stops_early_still_has_the_rest_checked() {
        // Segment 0 is sound; segment 1, which concat never asks for, is cut.
        let (seen, got) = concat_lazily(2, vec![truncated(&[(0, 7), (1, 8)], 4)], 1);
        assert_eq!(seen, vec![7]);
        assert_codec("malformed tail", got);
        // Stopping early over a sound gather is not itself an error.
        let (seen, got) = concat_lazily(2, vec![frame(&[(0, 7), (1, 8)])], 1);
        assert_eq!(seen, vec![7]);
        got.unwrap();
    }

    #[test]
    fn held_segments_are_exact_size_in_order() {
        let segments = Segments::from(vec![U64SumSegment(vec![1]), U64SumSegment(vec![2])]);
        assert_eq!(segments.len(), 2);
        assert_eq!(segments.map(|s| s.0[0]).collect::<Vec<_>>(), vec![1, 2]);
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
