//! The splittable dense aggregator shared by every model.
//!
//! The paper's Figure 7 shows MLlib aggregators are structs of dense `f64`
//! arrays whose `merge` is element-wise summation. We flatten each model's
//! aggregator into **one** dense vector with a model-defined layout
//! (gradient ‖ loss ‖ count, or sufficient-stats matrix ‖ totals ‖ counters)
//! so a single set of SAI callbacks serves all models:
//!
//! * `splitOp(u, i, n)` → contiguous slice `i` of `n` ([`split_dense`]);
//! * `reduceOp(a, b)` → element-wise add ([`merge_segments`]);
//! * `concatOp(segments)` → concatenation ([`concat_segments`]).
//!
//! Property: for any vector and any `(i, n)` decomposition,
//! `concat(split(u)) == u` and split-then-reduce equals reduce-then-split —
//! the invariants the property tests pin down.
//!
//! The second half of this module is the same interface for **sparse**
//! aggregators: the executor-local `U` is a [`SparseAccum`] and segments
//! are [`DenseOrSparse`], so Zipfian/power-law workloads (sparse LR
//! gradients, LDA word counts) ship only their non-zeros until merge
//! fill-in makes dense cheaper.

use sparker_collectives::gather::Segments;
/// The paper's `splitOp` (segment `i` of `n` as a contiguous slice) and
/// `reduceOp` (element-wise add) on dense segments, defined beside
/// [`SumSegment`] so the engine can recognise them and reduce in place.
pub use sparker_collectives::segment::{merge_segments, slice_bounds, split_dense, SumSegment};
use sparker_collectives::segment::concat;
pub use sparker_sparse::{
    DenseOrSparse, SparseAccum, SparseSegment, DEFAULT_DENSITY_THRESHOLD, NEVER_DENSIFY,
};

use sparker_data::synth::{Document, SparseExample};
use sparker_net::codec::F64Array;

/// A model aggregator: one dense `f64` vector (see module docs).
pub type DenseAgg = F64Array;

/// Creates a zeroed aggregator of length `n`.
pub fn zeros(n: usize) -> DenseAgg {
    F64Array(vec![0.0; n])
}

/// Element-wise in-place merge of aggregators (the executor-local IMM merge).
pub fn merge_dense(a: &mut DenseAgg, b: DenseAgg) {
    assert_eq!(a.0.len(), b.0.len(), "aggregator shape mismatch");
    for (x, y) in a.0.iter_mut().zip(b.0) {
        *x += y;
    }
}

/// The paper's `concatOp`: the gathered segments, decoded one at a time in
/// index order → the full vector, as the segment type the engine returns.
pub fn concat_segments(segments: Segments<'_, SumSegment>) -> SumSegment {
    SumSegment(concat(segments.map(|s| s.0)))
}

/// [`concat_segments`] over segments already held, as an aggregator.
pub fn concat_dense(segments: Vec<SumSegment>) -> DenseAgg {
    F64Array(concat(segments.into_iter().map(|s| s.0)))
}

// ---------------------------------------------------------------------------
// Sparse SAI: same splitOp/reduceOp/concatOp contract over SparseAccum and
// DenseOrSparse segments.
// ---------------------------------------------------------------------------

/// Creates an empty sparse aggregator over a logical length `n`.
pub fn zeros_sparse(n: usize) -> SparseAccum {
    SparseAccum::zeros(n)
}

/// Executor-local IMM merge of sparse aggregators.
pub fn merge_sparse(a: &mut SparseAccum, b: SparseAccum) {
    a.merge(&b);
}

/// Sparse `splitOp` with the default density threshold: segments below it
/// ship sparse, above it dense, and they densify mid-reduction on fill-in.
pub fn split_adaptive(u: &SparseAccum, i: usize, n: usize) -> DenseOrSparse {
    u.segment(i, n, DEFAULT_DENSITY_THRESHOLD)
}

/// Sparse `splitOp` that never densifies — the forced-sparse ablation arm.
pub fn split_sparse(u: &SparseAccum, i: usize, n: usize) -> DenseOrSparse {
    u.segment(i, n, NEVER_DENSIFY)
}

/// `reduceOp` on adaptive segments (sorted-union add, with the SSAR
/// dense switch when fill-in crosses the segment's threshold).
pub fn merge_adaptive_segments(a: &mut DenseOrSparse, b: DenseOrSparse) {
    a.merge(&b);
}

/// `concatOp` on adaptive segments: segments in index order, decoded one at
/// a time → one full-length segment, re-choosing its representation by the
/// overall density (threshold taken from the first segment). Only the
/// non-zeros are copied; the dense vector is built only when the result is
/// dense ([`DenseOrSparse::concat`]).
pub fn concat_adaptive(segments: Segments<'_, DenseOrSparse>) -> DenseOrSparse {
    DenseOrSparse::concat(segments)
}

/// Folds one classification example into a sparse log-loss gradient
/// accumulator of length `w.len()` (the per-partition `seqOp`).
///
/// For label `y ∈ {±1}`, the log-loss gradient is `−y · σ(−y·wᵀx) · x`,
/// which touches only the example's non-zero coordinates — the reason the
/// per-partition aggregator stays sparse on high-dimensional data.
pub fn fold_logistic_sparse(mut acc: SparseAccum, ex: &SparseExample, w: &[f64]) -> SparseAccum {
    assert_eq!(acc.dense_len(), w.len(), "aggregator/weight shape mismatch");
    let margin = ex.dot(w);
    let scale = -ex.label / (1.0 + (ex.label * margin).exp());
    for (&i, &v) in ex.indices.iter().zip(&ex.values) {
        acc.add(i, scale * v);
    }
    acc
}

/// Folds one bag-of-words document into a sparse word-count accumulator of
/// vocabulary length (LDA's per-partition sufficient statistics for one
/// topic slice).
pub fn fold_doc_counts_sparse(mut acc: SparseAccum, doc: &Document) -> SparseAccum {
    for &(word, count) in &doc.words {
        acc.add(word, count as f64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_inverts_split() {
        let u = F64Array((0..103).map(|i| i as f64 * 0.25).collect());
        for n in [1, 2, 7, 16, 103, 200] {
            let segs: Vec<SumSegment> = (0..n).map(|i| split_dense(&u, i, n)).collect();
            assert_eq!(concat_segments(segs.clone().into()).0, u.0, "n={n}");
            let back = concat_dense(segs);
            assert_eq!(back, u, "n={n}");
        }
    }

    #[test]
    fn split_then_reduce_equals_reduce_then_split() {
        let a = F64Array((0..50).map(|i| i as f64).collect());
        let b = F64Array((0..50).map(|i| 100.0 - i as f64).collect());
        let n = 7;
        // reduce then split
        let mut whole = a.clone();
        merge_dense(&mut whole, b.clone());
        let direct: Vec<SumSegment> = (0..n).map(|i| split_dense(&whole, i, n)).collect();
        // split then reduce
        let split_first: Vec<SumSegment> = (0..n)
            .map(|i| {
                let mut s = split_dense(&a, i, n);
                merge_segments(&mut s, split_dense(&b, i, n));
                s
            })
            .collect();
        assert_eq!(direct, split_first);
    }

    #[test]
    fn zeros_is_merge_identity() {
        let u = F64Array(vec![1.5, -2.0, 3.0]);
        let mut z = zeros(3);
        merge_dense(&mut z, u.clone());
        assert_eq!(z, u);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_shape_mismatch_panics() {
        merge_dense(&mut zeros(3), zeros(4));
    }

    #[test]
    fn sparse_concat_inverts_split() {
        let mut u = zeros_sparse(103);
        for i in (0..103u32).step_by(9) {
            u.add(i, i as f64 + 0.5);
        }
        for n in [1, 2, 7, 16] {
            for split in [split_adaptive, split_sparse] {
                let segs: Vec<DenseOrSparse> = (0..n).map(|i| split(&u, i, n)).collect();
                let back = concat_adaptive(segs.into());
                assert_eq!(back.to_dense(), u.to_dense(), "n={n}");
            }
        }
    }

    #[test]
    fn sparse_split_then_reduce_equals_reduce_then_split() {
        let mut a = zeros_sparse(50);
        let mut b = zeros_sparse(50);
        for i in 0..50u32 {
            if i % 3 == 0 {
                a.add(i, i as f64);
            }
            if i % 4 == 0 {
                b.add(i, 100.0 - i as f64);
            }
        }
        let n = 7;
        let mut whole = a.clone();
        merge_sparse(&mut whole, b.clone());
        for i in 0..n {
            let direct = split_adaptive(&whole, i, n);
            let mut split_first = split_adaptive(&a, i, n);
            merge_adaptive_segments(&mut split_first, split_adaptive(&b, i, n));
            assert_eq!(direct.to_dense(), split_first.to_dense(), "segment {i}");
        }
    }

    #[test]
    fn logistic_fold_matches_dense_gradient() {
        use sparker_data::synth::SparseExample;
        let w = vec![0.1, -0.2, 0.3, 0.0, 0.5];
        let ex = SparseExample { label: 1.0, indices: vec![0, 2, 4], values: vec![1.0, 2.0, -1.0] };
        let acc = fold_logistic_sparse(zeros_sparse(5), &ex, &w);
        // Dense reference.
        let margin: f64 = 0.1 * 1.0 + 0.3 * 2.0 + 0.5 * -1.0;
        let scale = -1.0 / (1.0 + margin.exp());
        let mut want = vec![0.0; 5];
        for (&i, &v) in ex.indices.iter().zip(&ex.values) {
            want[i as usize] = scale * v;
        }
        assert_eq!(acc.to_dense(), want);
        assert_eq!(acc.nnz(), 3, "gradient support equals example support");
    }

    #[test]
    fn doc_fold_counts_words() {
        use sparker_data::synth::Document;
        let doc = Document { words: vec![(1, 2), (4, 1)] };
        let mut acc = fold_doc_counts_sparse(zeros_sparse(6), &doc);
        acc = fold_doc_counts_sparse(acc, &doc);
        assert_eq!(acc.to_dense(), vec![0.0, 4.0, 0.0, 0.0, 2.0, 0.0]);
    }
}
