//! The aggregator-segment abstraction (the paper's type `V`).
//!
//! A [`Segment`] is a value that can be (a) moved across executors through
//! the codec and (b) merged element-wise with another segment of the same
//! shape. Collective algorithms only ever merge segments with equal index
//! ranges, so implementations may assume `self` and `other` describe the
//! same slice of the underlying aggregator.

use sparker_net::codec::{Decoder, Encoder, Payload};
use sparker_net::error::NetResult;

/// A mergeable, wire-encodable segment of an aggregator.
pub trait Segment: Payload + Send + 'static {
    /// Merges `other` into `self` (the paper's `reduceOp` on segments).
    ///
    /// Must be associative and commutative up to the tolerance the
    /// application accepts (floating-point sums reorder across topologies).
    fn merge_from(&mut self, other: &Self);

    /// Wire size of this segment, used by benches for accounting.
    ///
    /// Defaults to [`Payload::size_hint`], which every impl in this
    /// workspace keeps exact (asserted by the `prop_payload` suite), so
    /// there is a single wire-bytes number across benches and metrics.
    fn payload_bytes(&self) -> usize {
        self.size_hint()
    }
}

/// Element-wise summing segment of `f64`s — the shape of every MLlib
/// gradient/statistics aggregator in the paper.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SumSegment(pub Vec<f64>);

impl SumSegment {
    pub fn zeros(n: usize) -> Self {
        Self(vec![0.0; n])
    }
}

impl Payload for SumSegment {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_f64_slice(&self.0);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok(Self(dec.get_f64_vec()?))
    }
    fn size_hint(&self) -> usize {
        8 + 8 * self.0.len()
    }
}

impl Segment for SumSegment {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.0.len(), other.0.len(), "segment shape mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += *b;
        }
    }
}

/// Element-wise wrapping-sum segment of `u64`s — used by the aggregation
/// micro-benchmarks (the paper sums arrays of 8-byte integers).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct U64SumSegment(pub Vec<u64>);

impl U64SumSegment {
    pub fn zeros(n: usize) -> Self {
        Self(vec![0; n])
    }
}

impl Payload for U64SumSegment {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64_slice(&self.0);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok(Self(dec.get_u64_vec()?))
    }
    fn size_hint(&self) -> usize {
        8 + 8 * self.0.len()
    }
}

impl Segment for U64SumSegment {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.0.len(), other.0.len(), "segment shape mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = a.wrapping_add(*b);
        }
    }
}

/// Splits a flat slice into `n` near-equal contiguous pieces; piece `i` gets
/// the remainder spread over the first `len % n` pieces. This is the
/// `splitOp` every array-backed aggregator uses.
pub fn slice_bounds(len: usize, i: usize, n: usize) -> (usize, usize) {
    assert!(n > 0 && i < n, "invalid split index {i} of {n}");
    let base = len / n;
    let rem = len % n;
    let start = i * base + i.min(rem);
    let end = start + base + usize::from(i < rem);
    (start, end)
}

/// Inverse of [`slice_bounds`]: joins pieces in order into one vector that
/// is allocated once at its final length (the `concatOp` every array-backed
/// aggregator uses).
pub fn concat<'a>(pieces: impl IntoIterator<Item = &'a [f64]> + Clone) -> Vec<f64> {
    let mut out = Vec::with_capacity(pieces.clone().into_iter().map(<[f64]>::len).sum());
    for piece in pieces {
        out.extend_from_slice(piece);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_segment_merges_elementwise() {
        let mut a = SumSegment(vec![1.0, 2.0, 3.0]);
        a.merge_from(&SumSegment(vec![0.5, -2.0, 10.0]));
        assert_eq!(a.0, vec![1.5, 0.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "segment shape mismatch")]
    fn mismatched_shapes_panic() {
        let mut a = SumSegment(vec![1.0]);
        a.merge_from(&SumSegment(vec![1.0, 2.0]));
    }

    #[test]
    fn u64_segment_wraps() {
        let mut a = U64SumSegment(vec![u64::MAX]);
        a.merge_from(&U64SumSegment(vec![2]));
        assert_eq!(a.0, vec![1]);
    }

    #[test]
    fn segments_roundtrip_codec() {
        let s = SumSegment(vec![1.5, -2.0]);
        let back = SumSegment::from_frame(s.to_frame()).unwrap();
        assert_eq!(back, s);
        let u = U64SumSegment(vec![7, 8]);
        let back = U64SumSegment::from_frame(u.to_frame()).unwrap();
        assert_eq!(back, u);
    }

    #[test]
    fn slice_bounds_cover_exactly() {
        for len in [0usize, 1, 7, 12, 100] {
            for n in [1usize, 2, 3, 5, 12] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..n {
                    let (s, e) = slice_bounds(len, i, n);
                    assert_eq!(s, prev_end, "pieces must be contiguous");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len);
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn concat_inverts_slice_bounds_at_exact_capacity() {
        let v: Vec<f64> = (0..37).map(f64::from).collect();
        let pieces: Vec<&[f64]> = (0..5)
            .map(|i| {
                let (s, e) = slice_bounds(v.len(), i, 5);
                &v[s..e]
            })
            .collect();
        let joined = concat(pieces.iter().copied());
        assert_eq!(joined, v);
        assert_eq!(joined.capacity(), v.len());
    }

    #[test]
    fn slice_bounds_are_balanced() {
        // No piece differs from another by more than one element.
        let n = 7;
        let sizes: Vec<usize> = (0..n)
            .map(|i| {
                let (s, e) = slice_bounds(100, i, n);
                e - s
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "invalid split index")]
    fn slice_bounds_rejects_bad_index() {
        slice_bounds(10, 3, 3);
    }
}
