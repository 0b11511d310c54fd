//! Sparse aggregation for the Sparker reproduction.
//!
//! Power-law workloads (Zipfian text for LDA, hashed high-dimensional
//! features for classification) produce per-partition aggregator updates
//! that are mostly zeros, yet the dense `SumSegment` path ships every
//! element of every segment. This crate adds the sparse representation
//! layer on top of the existing [`Segment`] abstraction:
//!
//! * [`SparseSegment`] — sorted `(u32 index, f64 value)` pairs with a
//!   validating wire codec; merge is a sorted union.
//! * [`DenseOrSparse`] — picks dense or sparse per segment by a density
//!   threshold and switches to dense mid-reduction when merge fill-in
//!   crosses it (the switch rule of SparCML's SSAR).
//! * [`SparseAccum`] — an executor-side hashed accumulator whose
//!   `splitOp` is a range query over a lazily sorted view, producing
//!   rebased [`DenseOrSparse`] segments.
//!
//! Both segment types implement [`Segment`], so ring reduce-scatter,
//! recursive halving, the tree fallback, and the epoch-fenced fault
//! machinery in `sparker-collectives`/`sparker-engine` run them unchanged.
//! Every encode records actual vs dense-equivalent bytes and the segment
//! density in the `sparker-obs` metrics registry (`sparse.wire_bytes`,
//! `sparse.dense_equiv_bytes`, `sparse.density_permille`).
//!
//! [`Segment`]: sparker_collectives::segment::Segment

pub mod accum;
pub mod segment;

pub use accum::SparseAccum;
pub use segment::{
    dense_wire_bytes, DenseOrSparse, SegmentRepr, SparseSegment, DEFAULT_DENSITY_THRESHOLD,
    NEVER_DENSIFY,
};
