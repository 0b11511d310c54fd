//! Sparse and density-adaptive aggregator segments.
//!
//! Partition-local gradients on power-law data (Zipfian corpora, hashed
//! criteo-style features) are mostly zeros, yet [`SumSegment`] ships every
//! element. [`SparseSegment`] stores only the non-zeros as sorted
//! `(index, value)` pairs, and [`DenseOrSparse`] picks the cheaper wire
//! representation *per segment* by a density threshold — switching to dense
//! mid-reduction when merge fill-in crosses it, the switch rule of SparCML's
//! SSAR (Renggli et al.) and Zhao & Canny's sparse allreduce.
//!
//! Both types implement [`Segment`], so ring reduce-scatter, recursive
//! halving, the gather path and the epoch-fenced fault machinery
//! all work unchanged; nothing in `collectives` or `engine` knows sparsity
//! exists.
//!
//! [`SumSegment`]: sparker_collectives::segment::SumSegment

use std::sync::{Arc, OnceLock};

use sparker_collectives::segment::Segment;
use sparker_net::codec::{Decoder, Encoder, Payload};
use sparker_net::error::{NetError, NetResult};
use sparker_obs::metrics::{Counter, Gauge};

/// Default density above which a segment is cheaper shipped dense.
///
/// The sparse encoding costs 12 bytes per non-zero (`u32` index + `f64`
/// value) against 8 bytes per element dense, so the bytes break-even sits at
/// density 2/3; 0.5 leaves margin for the fill-in one more merge causes.
pub const DEFAULT_DENSITY_THRESHOLD: f64 = 0.5;

/// A threshold that never densifies — the forced-sparse ablation arm.
pub const NEVER_DENSIFY: f64 = 2.0;

fn wire_counters() -> &'static (Arc<Counter>, Arc<Counter>, Arc<Counter>, Arc<Gauge>) {
    static HANDLES: OnceLock<(Arc<Counter>, Arc<Counter>, Arc<Counter>, Arc<Gauge>)> =
        OnceLock::new();
    HANDLES.get_or_init(|| {
        (
            sparker_obs::metrics::counter("sparse.wire_bytes"),
            sparker_obs::metrics::counter("sparse.dense_equiv_bytes"),
            sparker_obs::metrics::counter("sparse.segments"),
            sparker_obs::metrics::gauge("sparse.density_permille"),
        )
    })
}

/// Records one encoded segment in the metrics registry: actual wire bytes,
/// what the dense encoding would have cost, the encode count, and the
/// segment's density.
fn record_wire(actual: usize, dense_equiv: usize, density: f64) {
    let (wire, dense, segments, gauge) = wire_counters();
    wire.add(actual as u64);
    dense.add(dense_equiv as u64);
    segments.inc();
    gauge.set((density * 1000.0) as i64);
}

/// Wire size of a dense [`SumSegment`] of `len` elements (length prefix +
/// packed `f64`s) — the baseline the byte counters compare against.
///
/// [`SumSegment`]: sparker_collectives::segment::SumSegment
pub fn dense_wire_bytes(len: usize) -> usize {
    8 + 8 * len
}

/// A sparse aggregator segment: the non-zeros of a logical `f64` vector of
/// length `len`, as strictly-increasing indices with matching values.
///
/// Invariants (checked on construction and on decode):
/// * `indices.len() == values.len()`,
/// * indices strictly increasing and `< len`.
///
/// Explicit zeros are representable (merges never drop entries that cancel
/// to zero), so `nnz` is an upper bound on the mathematical support.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseSegment {
    len: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseSegment {
    /// Builds a segment from parts, asserting the invariants.
    pub fn new(len: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        assert!(len <= u32::MAX as usize + 1, "segment length exceeds u32 index space");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        if let Some(&last) = indices.last() {
            assert!((last as usize) < len, "index {last} out of bounds for len {len}");
        }
        Self { len, indices, values }
    }

    /// The empty segment over a logical length.
    pub fn zeros(len: usize) -> Self {
        Self { len, indices: Vec::new(), values: Vec::new() }
    }

    /// Collects the non-zeros of a dense slice.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                indices.push(i as u32);
                values.push(v);
            }
        }
        Self { len: dense.len(), indices, values }
    }

    /// Materializes the full dense vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Logical (dense) length.
    pub fn dense_len(&self) -> usize {
        self.len
    }

    /// Stored entries (≥ mathematical non-zeros; see type docs).
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `nnz / len`; 0 for the empty-length segment.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.len as f64
        }
    }

    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sorted-union merge: entries at equal indices sum, others interleave.
    /// O(nnz(self) + nnz(other)); entries summing to zero are kept.
    pub fn merge_sparse(&mut self, other: &SparseSegment) {
        assert_eq!(self.len, other.len, "segment shape mismatch");
        if other.indices.is_empty() {
            return;
        }
        let mut indices = Vec::with_capacity(self.indices.len() + other.indices.len());
        let mut values = Vec::with_capacity(indices.capacity());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => {
                    indices.push(self.indices[a]);
                    values.push(self.values[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    indices.push(other.indices[b]);
                    values.push(other.values[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    indices.push(self.indices[a]);
                    values.push(self.values[a] + other.values[b]);
                    a += 1;
                    b += 1;
                }
            }
        }
        indices.extend_from_slice(&self.indices[a..]);
        values.extend_from_slice(&self.values[a..]);
        indices.extend_from_slice(&other.indices[b..]);
        values.extend_from_slice(&other.values[b..]);
        self.indices = indices;
        self.values = values;
    }

    /// Scatter-adds this segment's entries into a dense slice of equal length.
    pub fn add_into_dense(&self, dense: &mut [f64]) {
        assert_eq!(dense.len(), self.len, "segment shape mismatch");
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            dense[i as usize] += v;
        }
    }
}

impl SparseSegment {
    /// Encodes the fields without touching the wire counters — used by
    /// wrappers ([`DenseOrSparse`]) that record their own totals.
    fn encode_raw(&self, enc: &mut Encoder) {
        enc.put_usize(self.len);
        enc.put_u32_slice(&self.indices);
        enc.put_f64_slice(&self.values);
    }
}

impl Payload for SparseSegment {
    fn encode_into(&self, enc: &mut Encoder) {
        self.encode_raw(enc);
        record_wire(self.size_hint(), dense_wire_bytes(self.len), self.density());
    }

    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        let len = dec.get_usize()?;
        let indices = dec.get_u32_vec()?;
        let values = dec.get_f64_vec()?;
        if indices.len() != values.len() {
            return Err(NetError::Codec(format!(
                "sparse segment: {} indices but {} values",
                indices.len(),
                values.len()
            )));
        }
        if !indices.windows(2).all(|w| w[0] < w[1]) {
            return Err(NetError::Codec("sparse segment: indices not strictly increasing".into()));
        }
        if let Some(&last) = indices.last() {
            if last as usize >= len {
                return Err(NetError::Codec(format!(
                    "sparse segment: index {last} out of bounds for len {len}"
                )));
            }
        }
        Ok(Self { len, indices, values })
    }

    fn size_hint(&self) -> usize {
        // len prefix + (len-prefixed u32 slice) + (len-prefixed f64 slice).
        8 + (8 + 4 * self.indices.len()) + (8 + 8 * self.values.len())
    }
}

impl Segment for SparseSegment {
    fn merge_from(&mut self, other: &Self) {
        self.merge_sparse(other);
    }
}

/// The two wire representations an adaptive segment can be in.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentRepr {
    Dense(Vec<f64>),
    Sparse(SparseSegment),
}

/// A segment that picks dense or sparse per instance by a density threshold
/// and switches to dense mid-reduction once merge fill-in crosses it.
///
/// The representation rule is: sparse iff `density <= threshold`. The switch
/// is one-way (sparse → dense) — fill-in only grows under summation, so
/// re-sparsifying would thrash. The threshold travels on the wire so a
/// decoded segment keeps switching at the same point on every rank.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseOrSparse {
    repr: SegmentRepr,
    threshold: f64,
}

impl DenseOrSparse {
    /// Wraps a dense slice, sparsifying it when below the threshold; the
    /// values are copied whole only when the segment stays dense.
    pub fn from_dense(dense: &[f64], threshold: f64) -> Self {
        let seg = SparseSegment::from_dense(dense);
        if seg.density() <= threshold {
            Self { repr: SegmentRepr::Sparse(seg), threshold }
        } else {
            Self { repr: SegmentRepr::Dense(dense.to_vec()), threshold }
        }
    }

    /// Wraps an already-sparse segment, densifying it when above the
    /// threshold.
    pub fn from_sparse(seg: SparseSegment, threshold: f64) -> Self {
        let mut s = Self { repr: SegmentRepr::Sparse(seg), threshold };
        s.maybe_densify();
        s
    }

    /// The `concatOp`: segments in index order → one segment over their
    /// total length, with the first segment's threshold (the default for
    /// none). Equal, bit for bit, to `from_dense` of the concatenated
    /// `into_dense`s, but touches only the non-zeros: sparse arms are
    /// rebased, dense arms scanned, and the dense vector is built only when
    /// the total density exceeds the threshold.
    pub fn concat(segments: impl Iterator<Item = DenseOrSparse>) -> Self {
        let mut segments = segments.peekable();
        let threshold = segments.peek().map_or(DEFAULT_DENSITY_THRESHOLD, |s| s.threshold);
        // Entries whose dense image is not `+0.0`: the non-zeros, plus the
        // `-0.0`s a dense result must keep. `nonzero` counts the former.
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut nonzero = 0usize;
        let mut len = 0usize;
        let mut keep = |i: usize, v: f64| {
            if v.to_bits() != 0 {
                indices.push(i as u32);
                values.push(v);
                nonzero += usize::from(v != 0.0);
            }
        };
        for seg in segments {
            match &seg.repr {
                SegmentRepr::Sparse(s) => {
                    for (&i, &v) in s.indices.iter().zip(&s.values) {
                        keep(len + i as usize, v);
                    }
                }
                SegmentRepr::Dense(d) => {
                    for (i, &v) in d.iter().enumerate() {
                        keep(len + i, v);
                    }
                }
            }
            len += seg.dense_len();
        }
        assert!(len <= u32::MAX as usize + 1, "segment length exceeds u32 index space");
        let density = if len == 0 { 0.0 } else { nonzero as f64 / len as f64 };
        if density > threshold {
            let dense = SparseSegment { len, indices, values }.to_dense();
            return Self { repr: SegmentRepr::Dense(dense), threshold };
        }
        if nonzero < values.len() {
            (indices, values) =
                indices.into_iter().zip(values).filter(|&(_, v)| v != 0.0).unzip();
        }
        Self { repr: SegmentRepr::Sparse(SparseSegment { len, indices, values }), threshold }
    }

    /// The empty segment over a logical length (always sparse).
    pub fn zeros(len: usize, threshold: f64) -> Self {
        Self { repr: SegmentRepr::Sparse(SparseSegment::zeros(len)), threshold }
    }

    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, SegmentRepr::Sparse(_))
    }

    pub fn dense_len(&self) -> usize {
        match &self.repr {
            SegmentRepr::Dense(d) => d.len(),
            SegmentRepr::Sparse(s) => s.dense_len(),
        }
    }

    /// Stored entries: `len` when dense, `nnz` when sparse.
    pub fn nnz(&self) -> usize {
        match &self.repr {
            SegmentRepr::Dense(d) => d.len(),
            SegmentRepr::Sparse(s) => s.nnz(),
        }
    }

    /// Density of the *values*: stored non-zero fraction regardless of
    /// representation (a dense repr full of zeros has density 0).
    pub fn density(&self) -> f64 {
        match &self.repr {
            SegmentRepr::Dense(d) => {
                if d.is_empty() {
                    0.0
                } else {
                    d.iter().filter(|&&v| v != 0.0).count() as f64 / d.len() as f64
                }
            }
            SegmentRepr::Sparse(s) => s.density(),
        }
    }

    /// Materializes the full dense vector.
    pub fn to_dense(&self) -> Vec<f64> {
        match &self.repr {
            SegmentRepr::Dense(d) => d.clone(),
            SegmentRepr::Sparse(s) => s.to_dense(),
        }
    }

    /// Consumes into the full dense vector without cloning the dense arm.
    pub fn into_dense(self) -> Vec<f64> {
        match self.repr {
            SegmentRepr::Dense(d) => d,
            SegmentRepr::Sparse(s) => s.to_dense(),
        }
    }

    /// What the always-dense encoding of this segment would cost.
    pub fn dense_equiv_bytes(&self) -> usize {
        dense_wire_bytes(self.dense_len())
    }

    /// The SSAR switch: densify when the sparse repr's stored density
    /// crossed the threshold.
    fn maybe_densify(&mut self) {
        if let SegmentRepr::Sparse(s) = &self.repr {
            if s.density() > self.threshold {
                self.repr = SegmentRepr::Dense(s.to_dense());
            }
        }
    }

    /// Merges `other` into `self`, switching representation as needed.
    ///
    /// Value-preserving in every arm: the result equals the element-wise sum
    /// of both dense materializations.
    pub fn merge(&mut self, other: &DenseOrSparse) {
        match (&mut self.repr, &other.repr) {
            (SegmentRepr::Dense(a), SegmentRepr::Dense(b)) => {
                assert_eq!(a.len(), b.len(), "segment shape mismatch");
                for (x, y) in a.iter_mut().zip(b) {
                    *x += *y;
                }
            }
            (SegmentRepr::Dense(a), SegmentRepr::Sparse(b)) => {
                b.add_into_dense(a);
            }
            (SegmentRepr::Sparse(a), SegmentRepr::Dense(b)) => {
                // Incoming dense forces the switch: scatter self into it.
                assert_eq!(a.dense_len(), b.len(), "segment shape mismatch");
                let mut dense = b.clone();
                a.add_into_dense(&mut dense);
                self.repr = SegmentRepr::Dense(dense);
            }
            (SegmentRepr::Sparse(a), SegmentRepr::Sparse(b)) => {
                a.merge_sparse(b);
                self.maybe_densify();
            }
        }
    }
}

impl Payload for DenseOrSparse {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_f64(self.threshold);
        match &self.repr {
            SegmentRepr::Dense(d) => {
                enc.put_u8(0);
                enc.put_f64_slice(d);
            }
            SegmentRepr::Sparse(s) => {
                enc.put_u8(1);
                s.encode_raw(enc);
            }
        }
        record_wire(self.size_hint(), self.dense_equiv_bytes(), self.density());
    }

    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        let threshold = dec.get_f64()?;
        if threshold.is_nan() {
            return Err(NetError::Codec("adaptive segment: NaN threshold".into()));
        }
        match dec.get_u8()? {
            0 => Ok(Self { repr: SegmentRepr::Dense(dec.get_f64_vec()?), threshold }),
            1 => Ok(Self { repr: SegmentRepr::Sparse(SparseSegment::decode_from(dec)?), threshold }),
            tag => Err(NetError::Codec(format!("adaptive segment: invalid tag {tag}"))),
        }
    }

    fn size_hint(&self) -> usize {
        // threshold + tag + payload.
        8 + 1
            + match &self.repr {
                SegmentRepr::Dense(d) => 8 + 8 * d.len(),
                SegmentRepr::Sparse(s) => s.size_hint(),
            }
    }
}

impl Segment for DenseOrSparse {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_roundtrips() {
        let dense = vec![0.0, 1.5, 0.0, -2.0, 0.0];
        let s = SparseSegment::from_dense(&dense);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.to_dense(), dense);
    }

    #[test]
    fn sparse_merge_equals_dense_merge() {
        let a = vec![1.0, 0.0, 2.0, 0.0];
        let b = vec![0.0, 3.0, -2.0, 0.0];
        let mut s = SparseSegment::from_dense(&a);
        s.merge_sparse(&SparseSegment::from_dense(&b));
        let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(s.to_dense(), want);
        // The cancelled entry (index 2) is kept as an explicit zero.
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn codec_roundtrip_and_exact_size_hint() {
        let s = SparseSegment::new(100, vec![3, 17, 99], vec![1.0, -2.5, 7.0]);
        let frame = s.to_frame();
        assert_eq!(frame.len(), s.size_hint());
        assert_eq!(SparseSegment::from_frame(frame).unwrap(), s);
    }

    #[test]
    fn decode_rejects_malformed_segments() {
        // Unsorted indices.
        let mut enc = Encoder::new();
        enc.put_usize(10);
        enc.put_u32_slice(&[5, 3]);
        enc.put_f64_slice(&[1.0, 2.0]);
        assert!(SparseSegment::from_frame(enc.finish()).is_err());
        // Out-of-bounds index.
        let mut enc = Encoder::new();
        enc.put_usize(4);
        enc.put_u32_slice(&[9]);
        enc.put_f64_slice(&[1.0]);
        assert!(SparseSegment::from_frame(enc.finish()).is_err());
        // Arity mismatch.
        let mut enc = Encoder::new();
        enc.put_usize(4);
        enc.put_u32_slice(&[1]);
        enc.put_f64_slice(&[1.0, 2.0]);
        assert!(SparseSegment::from_frame(enc.finish()).is_err());
    }

    #[test]
    fn adaptive_picks_representation_by_threshold() {
        let sparse_vec = vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let dense_vec = vec![1.0; 8];
        assert!(DenseOrSparse::from_dense(&sparse_vec, 0.5).is_sparse());
        assert!(!DenseOrSparse::from_dense(&dense_vec, 0.5).is_sparse());
        // Forced-sparse threshold keeps even a full vector sparse.
        assert!(DenseOrSparse::from_dense(&dense_vec, NEVER_DENSIFY).is_sparse());
    }

    #[test]
    fn merge_fill_in_switches_to_dense_exactly_past_threshold() {
        // len 8, threshold 0.5: 4 entries stays sparse, the 5th densifies.
        let mut a = DenseOrSparse::from_dense(&[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], 0.5);
        assert!(a.is_sparse(), "at the boundary (density == threshold) stays sparse");
        let b = DenseOrSparse::from_dense(&[0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0], 0.5);
        a.merge(&b);
        assert!(!a.is_sparse(), "fill-in past the threshold must densify");
        assert_eq!(a.to_dense(), vec![1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn all_merge_arms_are_value_preserving() {
        let u = vec![1.0, 0.0, 2.0, 0.0, 0.0, -1.0];
        let v = vec![0.5, 0.0, -2.0, 0.0, 3.0, 0.0];
        let want: Vec<f64> = u.iter().zip(&v).map(|(x, y)| x + y).collect();
        for (ta, tb) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            // threshold 0.0 forces dense (density > 0), 1.0 keeps sparse.
            let mut a = DenseOrSparse::from_dense(&u, ta);
            let b = DenseOrSparse::from_dense(&v, tb);
            a.merge(&b);
            assert_eq!(a.to_dense(), want, "arms ({ta}, {tb})");
        }
    }

    #[test]
    fn adaptive_codec_roundtrips_both_arms() {
        for threshold in [0.0, 0.5, NEVER_DENSIFY] {
            let s = DenseOrSparse::from_dense(&[0.0, 4.0, 0.0, 0.0], threshold);
            let frame = s.to_frame();
            assert_eq!(frame.len(), s.size_hint());
            assert_eq!(DenseOrSparse::from_frame(frame).unwrap(), s);
        }
    }

    #[test]
    fn adaptive_dense_overhead_is_nine_bytes() {
        let dense = DenseOrSparse::from_dense(&[1.0; 64], 0.0);
        assert_eq!(dense.size_hint(), dense_wire_bytes(64) + 9);
    }

    #[test]
    fn invalid_adaptive_frames_rejected() {
        let mut enc = Encoder::new();
        enc.put_f64(0.5);
        enc.put_u8(7); // bad tag
        assert!(DenseOrSparse::from_frame(enc.finish()).is_err());
        let mut enc = Encoder::new();
        enc.put_f64(f64::NAN);
        enc.put_u8(0);
        enc.put_f64_slice(&[]);
        assert!(DenseOrSparse::from_frame(enc.finish()).is_err());
    }

    #[test]
    fn zero_length_segments_work() {
        let mut z = DenseOrSparse::zeros(0, 0.5);
        let z2 = DenseOrSparse::zeros(0, 0.5);
        z.merge(&z2);
        assert_eq!(z.to_dense(), Vec::<f64>::new());
        assert_eq!(z.density(), 0.0);
        let back = DenseOrSparse::from_frame(z.to_frame()).unwrap();
        assert_eq!(back, z);
    }

    #[test]
    fn wire_counters_accumulate() {
        let before: u64 = sparker_obs::metrics::counter("sparse.wire_bytes").get();
        let s = SparseSegment::from_dense(&[0.0, 1.0, 0.0, 0.0]);
        let _ = s.to_frame();
        let after = sparker_obs::metrics::counter("sparse.wire_bytes").get();
        assert_eq!(after - before, s.size_hint() as u64);
    }
}
