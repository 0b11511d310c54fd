//! Derived split aggregation for composite aggregators.
//!
//! The paper's §6 sketches a future direction: "compiler techniques may be
//! used to analyze the aggregator to generate split aggregation code
//! without user-defined code." This module is that idea as a library:
//! describe an aggregator's layout once — a struct of `f64` arrays plus
//! scalars, exactly the shape of MLlib's aggregators (Figure 7's
//! `Agg { sum1, sum2 }`) — and [`CompositeLayout`] derives `splitOp`,
//! `reduceOp` and `concatOp` mechanically. No per-model splitting code.
//!
//! The derivation views the aggregator as one logical `f64` vector
//! (`field₀ ‖ field₁ ‖ … ‖ scalars`), slices it with the same balanced
//! bounds as [`slice_bounds`], and reassembles on concat. All derived
//! callbacks satisfy the SAI laws the property tests pin down:
//! `concat(split(u)) == u` and split∘reduce ≡ reduce∘split.

use sparker_net::codec::{Decoder, Encoder, Payload};
use sparker_net::error::{NetError, NetResult};

use crate::segment::{slice_bounds, SumSegment};

/// A struct-of-arrays aggregator: named `f64` fields plus trailing scalars,
/// all of which merge by element-wise addition.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeAgg {
    fields: Vec<Vec<f64>>,
    scalars: Vec<f64>,
}

impl CompositeAgg {
    /// Zero-initialized aggregator with the given field lengths and scalar
    /// count.
    pub fn zeros(field_lens: &[usize], num_scalars: usize) -> Self {
        Self {
            fields: field_lens.iter().map(|&l| vec![0.0; l]).collect(),
            scalars: vec![0.0; num_scalars],
        }
    }

    /// Wraps existing arrays.
    pub fn from_parts(fields: Vec<Vec<f64>>, scalars: Vec<f64>) -> Self {
        Self { fields, scalars }
    }

    pub fn field(&self, i: usize) -> &[f64] {
        &self.fields[i]
    }

    pub fn field_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.fields[i]
    }

    pub fn scalar(&self, i: usize) -> f64 {
        self.scalars[i]
    }

    pub fn scalar_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.scalars[i]
    }

    /// The layout this aggregator conforms to.
    pub fn layout(&self) -> CompositeLayout {
        CompositeLayout {
            field_lens: self.fields.iter().map(Vec::len).collect(),
            num_scalars: self.scalars.len(),
        }
    }

    /// Element-wise merge (every field and scalar sums).
    pub fn merge(&mut self, other: CompositeAgg) {
        assert_eq!(self.fields.len(), other.fields.len(), "field count mismatch");
        for (a, b) in self.fields.iter_mut().zip(other.fields) {
            assert_eq!(a.len(), b.len(), "field length mismatch");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        assert_eq!(self.scalars.len(), other.scalars.len(), "scalar count mismatch");
        for (x, y) in self.scalars.iter_mut().zip(other.scalars) {
            *x += y;
        }
    }

    /// Reads the element at logical (flattened) index `i`.
    fn logical_get(&self, mut i: usize) -> f64 {
        for f in &self.fields {
            if i < f.len() {
                return f[i];
            }
            i -= f.len();
        }
        self.scalars[i]
    }

    /// Writes the element at logical index `i`.
    fn logical_set(&mut self, mut i: usize, v: f64) {
        for f in &mut self.fields {
            if i < f.len() {
                f[i] = v;
                return;
            }
            i -= f.len();
        }
        self.scalars[i] = v;
    }
}

impl Payload for CompositeAgg {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_usize(self.fields.len());
        for f in &self.fields {
            enc.put_f64_slice(f);
        }
        enc.put_f64_slice(&self.scalars);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        let nf = dec.get_usize()?;
        // A wire-derived count never sizes an allocation on its own.
        let mut fields = Vec::with_capacity(nf.min(1 << 20));
        for _ in 0..nf {
            fields.push(dec.get_f64_vec()?);
        }
        let scalars = dec.get_f64_vec()?;
        Ok(Self { fields, scalars })
    }
    fn size_hint(&self) -> usize {
        8 + self.fields.iter().map(|f| 8 + 8 * f.len()).sum::<usize>() + 8 + 8 * self.scalars.len()
    }
}

/// The derived layout: everything needed to generate SAI callbacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeLayout {
    pub field_lens: Vec<usize>,
    pub num_scalars: usize,
}

impl CompositeLayout {
    pub fn new(field_lens: Vec<usize>, num_scalars: usize) -> Self {
        Self { field_lens, num_scalars }
    }

    /// Total logical length (all fields + scalars).
    pub fn total_len(&self) -> usize {
        self.field_lens.iter().sum::<usize>() + self.num_scalars
    }

    /// Derived `splitOp`: logical slice `i` of `n` as a [`SumSegment`].
    ///
    /// Cross-field boundaries are handled transparently; scalars ride in
    /// the final slice. O(segment length) like a hand-written slice.
    pub fn split(&self, agg: &CompositeAgg, i: usize, n: usize) -> SumSegment {
        debug_assert_eq!(agg.layout(), *self, "aggregator does not match layout");
        let (lo, hi) = slice_bounds(self.total_len(), i, n);
        SumSegment((lo..hi).map(|j| agg.logical_get(j)).collect())
    }

    /// Derived `concatOp`: segments in index order back into the composite.
    ///
    /// # Errors
    /// Fails if the segments' total length does not match the layout.
    pub fn concat(&self, segments: Vec<SumSegment>) -> NetResult<CompositeAgg> {
        let total: usize = segments.iter().map(|s| s.0.len()).sum();
        if total != self.total_len() {
            return Err(NetError::Codec(format!(
                "concat: {total} elements for layout of {}",
                self.total_len()
            )));
        }
        let mut agg = CompositeAgg::zeros(&self.field_lens, self.num_scalars);
        let mut idx = 0;
        for seg in segments {
            for v in seg.0 {
                agg.logical_set(idx, v);
                idx += 1;
            }
        }
        Ok(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    /// Figure 7's `Agg { sum1, sum2 }` plus a loss scalar.
    fn fig7_agg(seed: f64) -> CompositeAgg {
        let sum1: Vec<f64> = (0..10).map(|i| seed + i as f64).collect();
        let sum2: Vec<f64> = (0..7).map(|i| seed * 2.0 - i as f64).collect();
        CompositeAgg::from_parts(vec![sum1, sum2], vec![seed * 10.0])
    }

    #[test]
    fn concat_inverts_split_across_field_boundaries() {
        let agg = fig7_agg(3.5);
        let layout = agg.layout();
        assert_eq!(layout.total_len(), 18);
        for n in [1usize, 2, 3, 5, 18, 25] {
            let segs: Vec<SumSegment> = (0..n).map(|i| layout.split(&agg, i, n)).collect();
            let back = layout.concat(segs).unwrap();
            assert_eq!(back, agg, "n={n}");
        }
    }

    #[test]
    fn split_then_reduce_equals_reduce_then_split() {
        let a = fig7_agg(1.0);
        let b = fig7_agg(-2.25);
        let layout = a.layout();
        let n = 5;
        let mut merged = a.clone();
        merged.merge(b.clone());
        for i in 0..n {
            let direct = layout.split(&merged, i, n);
            let mut via_segs = layout.split(&a, i, n);
            via_segs.merge_from(&layout.split(&b, i, n));
            assert_eq!(direct, via_segs, "segment {i}");
        }
    }

    #[test]
    fn scalars_survive_the_roundtrip() {
        let agg = fig7_agg(7.0);
        let layout = agg.layout();
        let segs: Vec<SumSegment> = (0..4).map(|i| layout.split(&agg, i, 4)).collect();
        let back = layout.concat(segs).unwrap();
        assert_eq!(back.scalar(0), 70.0);
    }

    #[test]
    fn merge_sums_fields_and_scalars() {
        let mut a = CompositeAgg::zeros(&[2, 3], 1);
        a.field_mut(0)[0] = 1.0;
        *a.scalar_mut(0) = 5.0;
        let mut b = CompositeAgg::zeros(&[2, 3], 1);
        b.field_mut(0)[0] = 2.0;
        b.field_mut(1)[2] = 4.0;
        *b.scalar_mut(0) = -1.0;
        a.merge(b);
        assert_eq!(a.field(0), &[3.0, 0.0]);
        assert_eq!(a.field(1), &[0.0, 0.0, 4.0]);
        assert_eq!(a.scalar(0), 4.0);
    }

    #[test]
    fn codec_roundtrip() {
        let agg = fig7_agg(-0.5);
        let back = CompositeAgg::from_frame(agg.to_frame()).unwrap();
        assert_eq!(back, agg);
    }

    #[test]
    fn concat_rejects_wrong_totals() {
        let layout = CompositeLayout::new(vec![4], 0);
        assert!(layout.concat(vec![SumSegment(vec![1.0; 3])]).is_err());
    }

    #[test]
    #[should_panic(expected = "field length mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = CompositeAgg::zeros(&[2], 0);
        a.merge(CompositeAgg::zeros(&[3], 0));
    }

    #[test]
    fn empty_fields_are_fine() {
        let agg = CompositeAgg::zeros(&[0, 5, 0], 2);
        let layout = agg.layout();
        assert_eq!(layout.total_len(), 7);
        let segs: Vec<SumSegment> = (0..3).map(|i| layout.split(&agg, i, 3)).collect();
        assert_eq!(layout.concat(segs).unwrap(), agg);
    }
}
