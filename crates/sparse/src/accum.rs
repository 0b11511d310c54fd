//! Executor-side sparse accumulator — the `U` of the split-aggregation
//! interface when updates are sparse.
//!
//! Per-partition folds (a batch of `SparseExample` gradients, LDA word
//! counts) touch few coordinates of a large model, so the executor-local
//! aggregator is a hashed index→value map instead of a dense vector: an
//! `add` is one hash probe. `splitOp` reads a sorted `(indices, values)`
//! view of the map, built by one sort on the first split after the last
//! mutation: segment `i` of `n` is the view's entries inside
//! [`slice_bounds`]`(len, i, n)` (two binary searches), rebased to
//! segment-local indices and wrapped in a [`DenseOrSparse`] that picks its
//! own wire representation.
//!
//! [`slice_bounds`]: sparker_collectives::segment::slice_bounds

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use sparker_collectives::segment::slice_bounds;

use crate::segment::{DenseOrSparse, SparseSegment};

/// Hashes a `u32` coordinate with one multiply by an odd constant, folding
/// the product's high half into the low half. The table picks buckets by
/// the low bits and tags by the high bits, so both halves must depend on
/// every input bit: strided indices (multiples of a power of two) would
/// otherwise share buckets. Keys are coordinates of the caller's own model,
/// not bytes off the wire, so the table needs no collision-attack seeding.
#[derive(Default)]
struct IndexHasher(u64);

/// The multiplier: ⌊2^64 / φ⌋, which is odd.
const INDEX_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        let h = i.wrapping_mul(INDEX_MUL);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IndexMap = HashMap<u32, f64, BuildHasherDefault<IndexHasher>>;

/// The map's entries in ascending index order.
#[derive(Debug, Clone)]
struct SortedView {
    indices: Vec<u32>,
    values: Vec<f64>,
}

/// A sparse accumulator over a logical `f64` vector of length `len`.
/// Entries that cancel to zero are kept (cheap, and `nnz` stays an upper
/// bound just like [`SparseSegment`]).
///
/// Each coordinate sums its deltas in call order, starting from `0.0`, so
/// the stored values do not depend on the map's layout.
#[derive(Debug, Clone, Default)]
pub struct SparseAccum {
    len: usize,
    map: IndexMap,
    /// Built by the first [`Self::segment`] after a mutation; every
    /// `&mut self` method clears it.
    sorted: OnceLock<SortedView>,
}

impl PartialEq for SparseAccum {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.map == other.map
    }
}

impl SparseAccum {
    /// The empty accumulator over a logical length.
    pub fn zeros(len: usize) -> Self {
        assert!(len <= u32::MAX as usize + 1, "length exceeds u32 index space");
        Self { len, ..Self::default() }
    }

    /// Collects the non-zeros of a dense slice.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut acc = Self::zeros(dense.len());
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                acc.map.insert(i as u32, v);
            }
        }
        acc
    }

    /// Logical (dense) length.
    pub fn dense_len(&self) -> usize {
        self.len
    }

    /// Stored entries (≥ mathematical non-zeros).
    pub fn nnz(&self) -> usize {
        self.map.len()
    }

    /// `nnz / len`; 0 for the empty-length accumulator.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.map.len() as f64 / self.len as f64
        }
    }

    /// Adds `delta` at coordinate `index`.
    pub fn add(&mut self, index: u32, delta: f64) {
        assert!((index as usize) < self.len, "index {index} out of bounds for len {}", self.len);
        self.sorted.take();
        *self.map.entry(index).or_insert(0.0) += delta;
    }

    /// Merges another accumulator of the same shape (the IMM `mergeOp`).
    pub fn merge(&mut self, other: &SparseAccum) {
        assert_eq!(self.len, other.len, "accumulator shape mismatch");
        self.sorted.take();
        for (&i, &v) in &other.map {
            *self.map.entry(i).or_insert(0.0) += v;
        }
    }

    /// Materializes the full dense vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        for (&i, &v) in &self.map {
            out[i as usize] = v;
        }
        out
    }

    /// The map's entries in index order, sorted once per mutation.
    fn sorted(&self) -> &SortedView {
        self.sorted.get_or_init(|| {
            let mut entries: Vec<(u32, f64)> = self.map.iter().map(|(&i, &v)| (i, v)).collect();
            entries.sort_unstable_by_key(|&(i, _)| i);
            let (indices, values) = entries.into_iter().unzip();
            SortedView { indices, values }
        })
    }

    /// The `splitOp`: segment `i` of `n`, covering the same index range
    /// dense `slice_bounds` splitting would, with indices rebased to the
    /// segment's origin. The returned segment applies `threshold` to choose
    /// its wire representation.
    pub fn segment(&self, i: usize, n: usize, threshold: f64) -> DenseOrSparse {
        let (lo, hi) = slice_bounds(self.len, i, n);
        let view = self.sorted();
        let start = view.indices.partition_point(|&idx| (idx as usize) < lo);
        let end = start + view.indices[start..].partition_point(|&idx| (idx as usize) < hi);
        let indices = view.indices[start..end].iter().map(|&idx| idx - lo as u32).collect();
        let values = view.values[start..end].to_vec();
        DenseOrSparse::from_sparse(SparseSegment::new(hi - lo, indices, values), threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::NEVER_DENSIFY;

    #[test]
    fn add_and_merge_accumulate() {
        let mut a = SparseAccum::zeros(10);
        a.add(3, 1.5);
        a.add(3, 0.5);
        a.add(7, -1.0);
        let mut b = SparseAccum::zeros(10);
        b.add(7, 1.0);
        b.add(0, 4.0);
        a.merge(&b);
        let mut want = vec![0.0; 10];
        want[0] = 4.0;
        want[3] = 2.0;
        assert_eq!(a.to_dense(), want);
        assert_eq!(a.nnz(), 3, "cancelled entry kept");
    }

    #[test]
    fn segments_tile_the_dense_vector() {
        let dense: Vec<f64> =
            (0..17).map(|i| if i % 3 == 0 { i as f64 } else { 0.0 }).collect();
        let acc = SparseAccum::from_dense(&dense);
        for n in [1usize, 2, 3, 5] {
            let mut rebuilt = Vec::new();
            for i in 0..n {
                rebuilt.extend(acc.segment(i, n, NEVER_DENSIFY).to_dense());
            }
            assert_eq!(rebuilt, dense, "n = {n}");
        }
    }

    #[test]
    fn segment_indices_are_rebased() {
        let mut acc = SparseAccum::zeros(8);
        acc.add(5, 2.0);
        // Segment 1 of 2 covers [4, 8); global index 5 is local index 1.
        let seg = acc.segment(1, 2, NEVER_DENSIFY);
        assert_eq!(seg.to_dense(), vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn add_after_segment_is_seen() {
        let mut acc = SparseAccum::zeros(8);
        acc.add(1, 1.0);
        assert_eq!(acc.segment(0, 2, NEVER_DENSIFY).to_dense(), vec![0.0, 1.0, 0.0, 0.0]);
        acc.add(2, 3.0);
        acc.add(1, 1.0);
        assert_eq!(acc.segment(0, 2, NEVER_DENSIFY).to_dense(), vec![0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn merge_after_segment_is_seen() {
        let mut acc = SparseAccum::zeros(8);
        acc.add(6, 1.0);
        assert_eq!(acc.segment(1, 2, NEVER_DENSIFY).to_dense(), vec![0.0, 0.0, 1.0, 0.0]);
        let mut other = SparseAccum::zeros(8);
        other.add(6, 0.5);
        other.add(4, 2.0);
        acc.merge(&other);
        assert_eq!(acc.segment(1, 2, NEVER_DENSIFY).to_dense(), vec![2.0, 0.0, 1.5, 0.0]);
    }

    #[test]
    fn clone_with_built_view_is_independent() {
        let mut acc = SparseAccum::zeros(4);
        acc.add(0, 1.0);
        let _ = acc.segment(0, 1, NEVER_DENSIFY);
        let copy = acc.clone();
        acc.add(3, 5.0);
        assert_eq!(copy.segment(0, 1, NEVER_DENSIFY).to_dense(), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(acc.segment(0, 1, NEVER_DENSIFY).to_dense(), vec![1.0, 0.0, 0.0, 5.0]);
        assert_ne!(copy, acc);
    }

    #[test]
    fn equality_ignores_the_view() {
        let mut a = SparseAccum::zeros(4);
        a.add(2, 1.0);
        let b = a.clone();
        let _ = a.segment(0, 1, NEVER_DENSIFY);
        assert_eq!(a, b);
    }

    #[test]
    fn accumulator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseAccum>();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_rejects_out_of_bounds() {
        SparseAccum::zeros(4).add(4, 1.0);
    }
}
