//! Property suite pinning the `Payload::size_hint` contract: for every
//! impl in the workspace, `size_hint()` equals the exact encoded length
//! (`to_frame().len()`), and the frame decodes back to the same value.
//!
//! This is what lets `Segment::payload_bytes` default to `size_hint` and
//! benches/metrics report one unified wire-bytes number — if any impl
//! drifts from its encoder, this suite fails. Frames whose counts announce
//! more items than they carry decode to a typed error, never a panic or an
//! allocation sized by the count.

use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, Source};

use sparker::collectives::ring::OwnedSegment;
use sparker::collectives::segment::Segment as _;
use sparker::engine::multiproc::{JobSpec, MembershipView};
use sparker::ml::aggregator::{DenseOrSparse, SparseSegment};
use sparker::ml::LabeledPoint;
use sparker::net::{ByteBuf, NetError};
use sparker::prelude::*;

fn cfg() -> Config {
    Config::with_cases(24)
}

/// Asserts the exact-length contract and the round-trip for one value.
fn exact<T: Payload + PartialEq + std::fmt::Debug + Clone>(
    v: &T,
) -> Result<(), sparker_testkit::PropError> {
    let frame = v.to_frame();
    tk_assert_eq!(frame.len(), v.size_hint(), "size_hint must be the exact encoded length");
    let back =
        T::from_frame(frame).map_err(|e| sparker_testkit::PropError::new(e.to_string()))?;
    tk_assert_eq!(&back, v, "frame must decode back to the same value");
    Ok(())
}

/// Finite `f64`s (NaN would break `PartialEq` equality, which is the
/// round-trip oracle here; bit-level NaN round-tripping is covered by
/// `prop_collectives::codec_roundtrips_arbitrary_floats`).
fn finite_f64(src: &mut Source) -> f64 {
    src.f64_in(-1.0e9..1.0e9)
}

/// A valid sparse segment: strictly increasing indices below `len`.
fn arb_sparse(src: &mut Source, max_len: usize) -> SparseSegment {
    let len = src.usize_in(0..max_len);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for i in 0..len {
        if src.bool_any() {
            indices.push(i as u32);
            values.push(finite_f64(src));
        }
    }
    SparseSegment::new(len, indices, values)
}

#[test]
fn primitives_and_containers_have_exact_size_hints() {
    check(&cfg(), |src| {
        exact(&src.u8_any())?;
        exact(&src.bool_any())?;
        exact(&src.u32_any())?;
        exact(&src.u64_any())?;
        exact(&src.i64_any())?;
        exact(&finite_f64(src))?;
        exact(&src.usize_in(0..usize::MAX))?;
        exact(&src.string_of(0..64))?;
        exact(&())?;
        exact(&src.vec_of(0..32, |s| s.u64_any()))?;
        exact(&src.vec_of(0..8, |s| s.string_of(0..16)))?;
        exact(&if src.bool_any() { Some(src.i64_any()) } else { None })?;
        exact(&(src.u32_any(), src.string_of(0..16)))?;
        exact(&(src.u8_any(), src.u64_any(), finite_f64(src)))?;
        exact(&F64Array(src.vec_of(0..64, finite_f64)))?;
        Ok(())
    });
}

#[test]
fn segment_types_have_exact_size_hints() {
    check(&cfg(), |src| {
        let sum = SumSegment(src.vec_of(0..64, finite_f64));
        exact(&sum)?;
        tk_assert_eq!(sum.payload_bytes(), sum.size_hint(), "unified accounting");
        let u64sum = U64SumSegment(src.vec_of(0..64, |s| s.u64_any()));
        exact(&u64sum)?;
        tk_assert_eq!(u64sum.payload_bytes(), u64sum.size_hint(), "unified accounting");
        Ok(())
    });
}

#[test]
fn labeled_point_has_exact_size_hint() {
    check(&cfg(), |src| {
        let nnz = src.usize_in(0..16);
        let indices: Vec<u32> = (0..nnz as u32).collect();
        let values = src.vec_of(nnz..nnz + 1, finite_f64);
        let label = if src.bool_any() { 1.0 } else { -1.0 };
        exact(&LabeledPoint::new(label, indices, values))
    });
}

#[test]
fn sparse_segment_has_exact_size_hint() {
    check(&cfg(), |src| {
        let seg = arb_sparse(src, 80);
        exact(&seg)?;
        tk_assert_eq!(seg.payload_bytes(), seg.size_hint(), "unified accounting");
        Ok(())
    });
}

#[test]
fn adaptive_segment_has_exact_size_hint_in_both_arms() {
    check(&cfg(), |src| {
        let dense: Vec<f64> = src.vec_of(0..80, |s| {
            if s.bool_any() {
                finite_f64(s)
            } else {
                0.0
            }
        });
        // Sweep thresholds that exercise both representations.
        let threshold = src.choose(&[0.0, 0.25, 0.5, 1.0, 2.0]);
        let seg = DenseOrSparse::from_dense(dense, threshold);
        exact(&seg)?;
        tk_assert_eq!(seg.payload_bytes(), seg.size_hint(), "unified accounting");
        Ok(())
    });
}

#[test]
fn owned_segments_have_exact_size_hints() {
    check(&cfg(), |src| {
        let index = src.usize_in(0..1 << 20);
        exact(&OwnedSegment { index, segment: F64Array(src.vec_of(0..64, finite_f64)) })?;
        let dense: Vec<f64> = src.vec_of(0..64, |s| if s.bool_any() { finite_f64(s) } else { 0.0 });
        let segment = DenseOrSparse::from_dense(dense, src.choose(&[0.0, 0.5, 2.0]));
        exact(&OwnedSegment { index, segment })?;
        // The gather frame: count, then (index, segment)*.
        let owned: Vec<OwnedSegment<SumSegment>> = src.vec_of(0..6, |s| OwnedSegment {
            index: s.usize_in(0..64),
            segment: SumSegment(s.vec_of(0..8, finite_f64)),
        });
        exact(&owned)
    });
}

#[test]
fn algos_and_job_specs_have_exact_size_hints() {
    check(&cfg(), |src| {
        for algo in Algo::candidates() {
            exact(&algo)?;
        }
        let mut spec = JobSpec::sparse(src.u64_any(), src.u64_any(), 64, 4, 0.5);
        spec.algo = src.choose(&Algo::candidates());
        spec.nodes = src.usize_in(0..4);
        spec.view = MembershipView { generation: src.u64_any(), members: vec![0, 2, 3] };
        spec.assigned = src.vec_of(0..4, |s| s.vec_of(0..4, |s| s.u64_any()));
        exact(&spec)?;
        // The algorithm tag follows id, sparse, threshold, seed, dim,
        // density, total_parts and parallelism: 57 bytes in.
        let mut raw = spec.to_frame().to_vec();
        raw[57] = 5 + src.u8_any() % 250;
        let decoded = JobSpec::from_frame(ByteBuf::from(raw));
        tk_assert!(matches!(decoded, Err(NetError::Codec(_))), "unknown tag: {decoded:?}");
        Ok(())
    });
}

/// A frame whose leading count announces `count` items but carries one.
fn announcing(count: u64, item: &impl Payload) -> ByteBuf {
    let mut raw = count.to_le_bytes().to_vec();
    raw.extend_from_slice(&item.to_frame());
    ByteBuf::from(raw)
}

#[test]
fn oversized_counts_decode_typed_without_panicking() {
    let owned = OwnedSegment { index: 0, segment: SumSegment(vec![1.0]) };
    for count in [1u64 << 40, u64::MAX] {
        let got = Vec::<OwnedSegment<SumSegment>>::from_frame(announcing(count, &owned));
        assert!(matches!(got, Err(NetError::Codec(_))), "{count}: {got:?}");
    }
}
