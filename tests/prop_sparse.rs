//! Property suite for the sparse aggregation subsystem:
//!
//! * sparse ↔ dense round-trip identity;
//! * sparse merge equals dense merge (fp tolerance);
//! * split-then-reduce equals reduce-then-split for `SparseSegment`;
//! * the adaptive switch is value-preserving at the threshold boundary;
//! * ring and halving reduce-scatter over `DenseOrSparse` segments agree
//!   numerically with the dense `SumSegment` path on the same topology
//!   (the tree-fallback leg of the equivalence claim lives in
//!   `tests/sparse_aggregation.rs`, where the fallback can be forced);
//! * the hashed `SparseAccum` splits bit-identically to an ordered-map
//!   reference;
//! * the sparse `concatOp` equals the dense round-trip it replaces.

use std::collections::BTreeMap;

use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, Source};

use sparker::collectives::halving::recursive_halving_reduce_scatter;
use sparker::collectives::ring::ring_reduce_scatter;
use sparker::collectives::testing::{run_ring_cluster, RingClusterSpec};
use sparker::ml::aggregator::{
    DenseOrSparse, SparseAccum, SparseSegment, DEFAULT_DENSITY_THRESHOLD, NEVER_DENSIFY,
};
use sparker::net::codec::Encoder;
use sparker::prelude::*;

fn cfg() -> Config {
    Config::with_cases(16)
}

/// Mostly-zero dense vectors with integer-ish values so cross-topology
/// sums stay exactly representable (tolerance checks still apply).
fn arb_dense(src: &mut Source, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| if src.bool_any() { 0.0 } else { src.i64_any() as f64 % 1024.0 })
        .collect()
}

fn assert_close(a: &[f64], b: &[f64]) -> Result<(), sparker_testkit::PropError> {
    tk_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        tk_assert!(
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            "index {i}: {x} vs {y}"
        );
    }
    Ok(())
}

#[test]
fn sparse_dense_roundtrip_identity() {
    check(&cfg(), |src| {
        let len = src.usize_in(0..200);
        let dense = arb_dense(src, len);
        let seg = SparseSegment::from_dense(&dense);
        tk_assert_eq!(seg.to_dense(), dense, "from_dense ∘ to_dense is identity");
        tk_assert!(seg.density() <= 1.0);
        // And through the accumulator.
        let acc = SparseAccum::from_dense(&dense);
        tk_assert_eq!(acc.to_dense(), dense);
        Ok(())
    });
}

#[test]
fn sparse_merge_equals_dense_merge() {
    check(&cfg(), |src| {
        let len = src.usize_in(1..150);
        let a = arb_dense(src, len);
        let b = arb_dense(src, len);
        let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let mut s = SparseSegment::from_dense(&a);
        s.merge_sparse(&SparseSegment::from_dense(&b));
        assert_close(&s.to_dense(), &want)?;
        // Adaptive, across representation combinations.
        let ta = src.choose(&[0.0, 0.5, 2.0]);
        let tb = src.choose(&[0.0, 0.5, 2.0]);
        let mut da = DenseOrSparse::from_dense(&a, ta);
        da.merge(&DenseOrSparse::from_dense(&b, tb));
        assert_close(&da.to_dense(), &want)?;
        Ok(())
    });
}

#[test]
fn split_then_reduce_equals_reduce_then_split() {
    check(&cfg(), |src| {
        let len = src.usize_in(1..150);
        let n = src.usize_in(1..9);
        let a = SparseAccum::from_dense(&arb_dense(src, len));
        let b = SparseAccum::from_dense(&arb_dense(src, len));
        let threshold = src.choose(&[0.0, 0.5, 2.0]);
        let mut whole = a.clone();
        whole.merge(&b);
        for i in 0..n {
            let direct = whole.segment(i, n, threshold);
            let mut split_first = a.segment(i, n, threshold);
            split_first.merge(&b.segment(i, n, threshold));
            assert_close(&direct.to_dense(), &split_first.to_dense())?;
        }
        Ok(())
    });
}

#[test]
fn adaptive_switch_is_value_preserving_at_the_boundary() {
    check(&cfg(), |src| {
        // Build a segment sitting exactly at the threshold, then push it
        // one entry past: the representation must flip sparse → dense with
        // values intact.
        let len = 2 * src.usize_in(2..50);
        let threshold = 0.5;
        let mut dense = vec![0.0; len];
        for v in dense.iter_mut().take(len / 2) {
            *v = (src.i64_any() as f64 % 512.0).abs() + 1.0;
        }
        let mut seg = DenseOrSparse::from_dense(&dense, threshold);
        tk_assert!(seg.is_sparse(), "at density == threshold the segment stays sparse");
        // Merge in one new coordinate from the zero half.
        let extra = len / 2 + src.usize_in(0..len / 2);
        let mut other = vec![0.0; len];
        other[extra] = 7.0;
        let want: Vec<f64> = dense.iter().zip(&other).map(|(x, y)| x + y).collect();
        seg.merge(&DenseOrSparse::from_dense(&other, threshold));
        tk_assert!(!seg.is_sparse(), "fill-in past the threshold must densify");
        tk_assert_eq!(seg.to_dense(), want, "the switch must not change values");
        Ok(())
    });
}

/// Shared harness: reduce-scatter per-rank `DenseOrSparse` segments and the
/// same data as dense `SumSegment`s; both must agree per segment index.
fn topology_equivalence(src: &mut Source, halving: bool) -> Result<(), sparker_testkit::PropError> {
    let nodes = src.usize_in(1..3);
    let epn = src.usize_in(1..4);
    let par = if halving { 1 } else { src.usize_in(1..3) };
    let spec = RingClusterSpec::unshaped(nodes, epn, par);
    let n = spec.total_executors();
    // The ring wants exactly P*N segments; halving wants a multiple of the
    // largest power of two ≤ N.
    let total = if halving {
        let mut p2 = 1usize;
        while p2 * 2 <= n {
            p2 *= 2;
        }
        p2 * src.usize_in(1..4)
    } else {
        par * n
    };
    let seg_len = src.usize_in(1..12);
    let threshold = src.choose(&[0.0, 0.5, 2.0]);
    // values[rank][segment] is a dense vector, mostly zeros.
    let values: Vec<Vec<Vec<f64>>> =
        (0..n).map(|_| (0..total).map(|_| arb_dense(src, seg_len)).collect()).collect();

    let v_sparse = values.clone();
    let sparse_ranks = run_ring_cluster(&spec, move |comm| {
        let segs: Vec<DenseOrSparse> = v_sparse[comm.rank()]
            .iter()
            .map(|d| DenseOrSparse::from_dense(d, threshold))
            .collect();
        if halving {
            recursive_halving_reduce_scatter(&comm, segs).unwrap()
        } else {
            ring_reduce_scatter(&comm, segs).unwrap()
        }
    });
    let v_dense = values.clone();
    let dense_ranks = run_ring_cluster(&spec, move |comm| {
        let segs: Vec<SumSegment> =
            v_dense[comm.rank()].iter().map(|d| SumSegment(d.clone())).collect();
        if halving {
            recursive_halving_reduce_scatter(&comm, segs).unwrap()
        } else {
            ring_reduce_scatter(&comm, segs).unwrap()
        }
    });

    let mut dense_by_index: Vec<Option<Vec<f64>>> = vec![None; total];
    for owned in &dense_ranks {
        for o in owned {
            dense_by_index[o.index] = Some(o.segment.0.clone());
        }
    }
    let mut seen = 0usize;
    for owned in &sparse_ranks {
        for o in owned {
            let want = dense_by_index[o.index]
                .as_ref()
                .ok_or_else(|| sparker_testkit::PropError::new("dense path missed a segment"))?;
            assert_close(&o.segment.to_dense(), want)?;
            seen += 1;
        }
    }
    tk_assert_eq!(seen, total, "sparse path must cover every segment");
    Ok(())
}

#[test]
fn ring_over_adaptive_segments_matches_dense_path() {
    check(&cfg(), |src| topology_equivalence(src, false));
}

#[test]
fn halving_over_adaptive_segments_matches_dense_path() {
    check(&cfg(), |src| topology_equivalence(src, true));
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The accumulator as an ordered map: the reference the hashed
/// `SparseAccum` must match bit for bit.
struct OrderedAccum {
    len: usize,
    map: BTreeMap<u32, f64>,
}

impl OrderedAccum {
    fn add(&mut self, index: u32, delta: f64) {
        *self.map.entry(index).or_insert(0.0) += delta;
    }

    fn merge(&mut self, other: &OrderedAccum) {
        for (&i, &v) in &other.map {
            self.add(i, v);
        }
    }

    fn segment(&self, i: usize, n: usize, threshold: f64) -> DenseOrSparse {
        let (lo, hi) = slice_bounds(self.len, i, n);
        let (indices, values) =
            self.map.range(lo as u32..hi as u32).map(|(&idx, &v)| (idx - lo as u32, v)).unzip();
        DenseOrSparse::from_sparse(SparseSegment::new(hi - lo, indices, values), threshold)
    }
}

/// A random add sequence over `len` coordinates, applied to both sides:
/// indices drawn from a small pool so they repeat, non-integral values so
/// the summation order shows in the bits, and `+v, -v` pairs that cancel to
/// an explicit `0.0`. A split midway builds the sorted view the later adds
/// must clear.
fn arb_adds(src: &mut Source, len: usize) -> (SparseAccum, OrderedAccum) {
    let mut acc = SparseAccum::zeros(len);
    let mut reference = OrderedAccum { len, map: BTreeMap::new() };
    let pool: Vec<u32> = (0..src.usize_in(1..len.min(40) + 1))
        .map(|_| src.usize_in(0..len) as u32)
        .collect();
    let adds = src.usize_in(0..120);
    for k in 0..adds {
        let index = src.choose(&pool);
        let v = src.f64_in(-8.0..8.0);
        let deltas: &[f64] = if src.usize_in(0..5) == 0 { &[v, -v] } else { &[v] };
        for &d in deltas {
            acc.add(index, d);
            reference.add(index, d);
        }
        if k == adds / 2 {
            let _ = acc.segment(0, 1, NEVER_DENSIFY);
        }
    }
    (acc, reference)
}

fn same_splits(
    acc: &SparseAccum,
    reference: &OrderedAccum,
    n: usize,
) -> Result<(), sparker_testkit::PropError> {
    for threshold in [DEFAULT_DENSITY_THRESHOLD, NEVER_DENSIFY] {
        for i in 0..n {
            let got = acc.segment(i, n, threshold);
            let want = reference.segment(i, n, threshold);
            tk_assert_eq!(got.is_sparse(), want.is_sparse(), "segment {i} of {n}");
            tk_assert_eq!(got.nnz(), want.nnz(), "segment {i} of {n}");
            tk_assert_eq!(bits(&got.to_dense()), bits(&want.to_dense()), "segment {i} of {n}");
            tk_assert!(got == want, "segment {i} of {n}");
        }
    }
    Ok(())
}

#[test]
fn hashed_accumulator_splits_like_the_ordered_map() {
    check(&Config::with_cases(64), |src| {
        let len = src.usize_in(1..300);
        let (mut a, mut ref_a) = arb_adds(src, len);
        let (b, ref_b) = arb_adds(src, len);
        let n = src.usize_in(1..12);
        same_splits(&a, &ref_a, n)?;
        a.merge(&b);
        ref_a.merge(&ref_b);
        same_splits(&a, &ref_a, n)?;
        same_splits(&a, &ref_a, 1)?;
        tk_assert_eq!(a.nnz(), ref_a.map.len());
        Ok(())
    });
}

/// A segment in the dense arm whatever its density, with `threshold` on
/// it: built through the codec, as a decoded gather frame would be.
fn dense_arm(values: &[f64], threshold: f64) -> DenseOrSparse {
    let mut enc = Encoder::new();
    enc.put_f64(threshold);
    enc.put_u8(0);
    enc.put_f64_slice(values);
    DenseOrSparse::from_frame(enc.finish()).expect("valid dense frame")
}

/// The sparse-arm counterpart of [`dense_arm`].
fn sparse_arm(len: usize, indices: &[u32], values: &[f64], threshold: f64) -> DenseOrSparse {
    let mut enc = Encoder::new();
    enc.put_f64(threshold);
    enc.put_u8(1);
    enc.put_usize(len);
    enc.put_u32_slice(indices);
    enc.put_f64_slice(values);
    DenseOrSparse::from_frame(enc.finish()).expect("valid sparse frame")
}

/// The `concatOp` the sparse one replaces: materialize and concatenate
/// every segment, then re-sparsify the whole.
fn concat_by_dense_round_trip(segments: Vec<DenseOrSparse>) -> DenseOrSparse {
    let threshold = segments.first().map_or(DEFAULT_DENSITY_THRESHOLD, DenseOrSparse::threshold);
    let dense: Vec<f64> = segments.into_iter().flat_map(DenseOrSparse::into_dense).collect();
    DenseOrSparse::from_dense(&dense, threshold)
}

#[test]
fn sparse_concat_equals_the_dense_round_trip() {
    check(&Config::with_cases(128), |src| {
        // Dense images: mostly +0.0, some -0.0, some non-zeros.
        let count = src.usize_in(0..6);
        let images: Vec<Vec<f64>> = (0..count)
            .map(|_| {
                let len = if src.usize_in(0..4) == 0 { 0 } else { src.usize_in(1..24) };
                (0..len).map(|_| src.choose(&[0.0, 0.0, 0.0, -0.0, 1.5, -2.25, 1e-300])).collect()
            })
            .collect();
        let len: usize = images.iter().map(Vec::len).sum();
        let nonzero = images.iter().flatten().filter(|&&v| v != 0.0).count();
        // Density just below, at and just above the threshold, and the
        // stock thresholds.
        let mut thresholds = vec![DEFAULT_DENSITY_THRESHOLD, NEVER_DENSIFY, 0.0];
        if len > 0 {
            thresholds.push(nonzero as f64 / len as f64);
            thresholds.push((nonzero + 1) as f64 / len as f64);
            if nonzero > 0 {
                thresholds.push((nonzero - 1) as f64 / len as f64);
            }
        }
        let threshold = src.choose(&thresholds);
        // Each segment in either arm; sparse arms keep the explicit zeros
        // and -0.0s of their image as stored entries.
        let segments: Vec<DenseOrSparse> = images
            .iter()
            .map(|image| {
                if src.bool_any() {
                    dense_arm(image, threshold)
                } else {
                    let (indices, values): (Vec<u32>, Vec<f64>) = image
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| v.to_bits() != 0 || src.bool_any())
                        .map(|(i, &v)| (i as u32, v))
                        .unzip();
                    sparse_arm(image.len(), &indices, &values, threshold)
                }
            })
            .collect();
        let want = concat_by_dense_round_trip(segments.clone());
        let got = sparker::sparse::concat(segments.into());
        tk_assert_eq!(got.is_sparse(), want.is_sparse(), "threshold {threshold}");
        tk_assert_eq!(got.nnz(), want.nnz(), "threshold {threshold}");
        tk_assert_eq!(bits(&got.to_dense()), bits(&want.to_dense()), "threshold {threshold}");
        tk_assert!(got == want, "threshold {threshold}");
        Ok(())
    });
}
