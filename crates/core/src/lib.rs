//! # Sparker — *Spark* with *E*fficient *R*eduction
//!
//! Rust reproduction of **"Sparker: Efficient Reduction for More Scalable
//! Machine Learning with Spark"** (Yu, Cao, Shan, Wang, Tang, Chen —
//! ICPP 2021), including every substrate the paper depends on: a mini
//! Spark-like engine, a shaped communication layer, scalable reduction
//! collectives, an MLlib-like model zoo, synthetic Table 2 datasets, and a
//! discrete-event cluster simulator for paper-scale experiments.
//!
//! ## The paper in one paragraph
//!
//! MLlib's training loop spends most of its time in `treeAggregate`, whose
//! *reduction* phase gets **slower** as the cluster grows, because Spark's
//! aggregation interface treats aggregators as opaque objects and therefore
//! cannot use bandwidth-optimal reduction algorithms that split the reduced
//! value. Sparker adds a **split aggregation interface** (`splitOp` /
//! `reduceOp`-on-segments / `concatOp`), implements ring reduce-scatter over
//! a parallel directed ring of executors through a purpose-built
//! low-latency communicator, and merges task results **in memory** per
//! executor before any serialization. Result: up to 6.47× faster
//! aggregation and 1.81× geometric-mean end-to-end training speedup.
//!
//! ## Quickstart
//!
//! ```
//! use sparker::prelude::*;
//!
//! // An in-process "cluster": 4 executors x 2 cores.
//! let cluster = LocalCluster::local(4, 2);
//!
//! // A dataset of dense vectors, generated on the executors.
//! let dim = 1024;
//! let data = cluster.generate(8, move |p| {
//!     vec![vec![p as f64; dim]; 4] // 4 vectors per partition
//! });
//!
//! // Spark's treeAggregate (the baseline)...
//! let (tree_sum, _) = data
//!     .tree_aggregate(
//!         F64Array(vec![0.0; dim]),
//!         |mut acc, v| {
//!             for (a, x) in acc.0.iter_mut().zip(v) {
//!                 *a += x;
//!             }
//!             acc
//!         },
//!         |mut a, b| {
//!             for (x, y) in a.0.iter_mut().zip(b.0) {
//!                 *x += y;
//!             }
//!             a
//!         },
//!         TreeAggOpts::default(),
//!     )
//!     .unwrap();
//!
//! // ...and Sparker's splitAggregate (the contribution).
//! let (split_sum, metrics) = data
//!     .split_aggregate(
//!         F64Array(vec![0.0; dim]),
//!         |mut acc, v| {
//!             for (a, x) in acc.0.iter_mut().zip(v) {
//!                 *a += x;
//!             }
//!             acc
//!         },
//!         sparker::dense::merge,
//!         sparker::dense::split,
//!         sparker::dense::merge_segments,
//!         sparker::dense::concat,
//!         SplitAggOpts::default(),
//!     )
//!     .unwrap();
//!
//! assert_eq!(tree_sum.0, sparker::dense::to_vec(split_sum));
//! assert_eq!(metrics.strategy.name(), "split");
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`sparker_obs`] | span tracing, metrics, Chrome-trace + Fig 2 exporters |
//! | [`sparker_net`] | codec, shaped transports, PDR topology |
//! | [`sparker_collectives`] | ring reduce-scatter, tree, halving, allreduce |
//! | [`sparker_sparse`] | sparse & density-adaptive segments (SparCML-style SSAR) |
//! | [`sparker_engine`] | RDDs, driver/executors, tree & split aggregation, IMM |
//! | [`sparker_ml`] | LR / SVM / LDA with the `AggregationMode` switch |
//! | [`sparker_data`] | RNG, libsvm, synthetic Table 2 datasets |
//! | [`sparker_tuner`] | calibrated cost model + collective algorithm selector |
//! | `sparker-sim` | discrete-event simulator for paper-scale figures |

pub use sparker_collectives as collectives;
pub use sparker_data as data;
pub use sparker_engine as engine;
pub use sparker_ml as ml;
pub use sparker_net as net;
pub use sparker_obs as obs;
pub use sparker_tuner as tuner;

/// Ready-made SAI callbacks for dense `f64` aggregators (the shape every
/// paper workload uses — Figure 7's `Array[Double]` pairs).
pub mod dense {
    pub use sparker_ml::aggregator::{
        merge_dense as merge, merge_segments, split_dense as split, zeros,
    };
    use sparker_collectives::segment::SumSegment;
    use sparker_net::codec::F64Array;

    /// `concatOp` returning the segment type (engine signature).
    pub fn concat(segments: Vec<SumSegment>) -> SumSegment {
        SumSegment(sparker_ml::aggregator::concat_dense(segments).0)
    }

    /// Unwraps a concatenated segment into a plain vector.
    pub fn to_vec(seg: SumSegment) -> Vec<f64> {
        seg.0
    }

    /// Unwraps a dense aggregator into a plain vector.
    pub fn agg_to_vec(agg: F64Array) -> Vec<f64> {
        agg.0
    }
}

/// Ready-made SAI callbacks for **sparse** aggregators: the executor-local
/// value is a [`SparseAccum`], segments are density-adaptive
/// [`DenseOrSparse`] (sparse on the wire until merge fill-in crosses the
/// threshold, then dense — SparCML-style SSAR).
///
/// [`SparseAccum`]: sparker_sparse::SparseAccum
/// [`DenseOrSparse`]: sparker_sparse::DenseOrSparse
pub mod sparse {
    pub use sparker_ml::aggregator::{
        concat_adaptive as concat, fold_doc_counts_sparse, fold_logistic_sparse,
        merge_adaptive_segments as merge_segments, merge_sparse as merge,
        split_adaptive as split, split_sparse, zeros_sparse as zeros,
    };
    pub use sparker_sparse::{
        dense_wire_bytes, DenseOrSparse, SparseAccum, SparseSegment,
        DEFAULT_DENSITY_THRESHOLD, NEVER_DENSIFY,
    };
}

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use sparker_collectives::segment::{slice_bounds, SumSegment, U64SumSegment};
    pub use sparker_engine::cluster::LocalCluster;
    pub use sparker_engine::config::ClusterSpec;
    pub use sparker_engine::cost::SerdeCost;
    pub use sparker_engine::dataset::Dataset;
    pub use sparker_engine::metrics::{AggMetrics, AggStrategy};
    pub use sparker_engine::ops::allreduce_aggregate::{
        allreduce_aggregate, executor_copy_slot, AllReduceOutput,
    };
    pub use sparker_engine::ops::split_aggregate::{SelectorOpts, SplitAggOpts};
    pub use sparker_engine::ops::tree_aggregate::TreeAggOpts;
    pub use sparker_ml::glm::AggregationMode;
    pub use sparker_ml::lbfgs::LbfgsConfig;
    pub use sparker_ml::lda::{LdaConfig, LdaModel};
    pub use sparker_ml::logistic::LogisticRegression;
    pub use sparker_ml::point::LabeledPoint;
    pub use sparker_ml::svm::LinearSvm;
    pub use sparker_net::codec::{F64Array, Payload};
    pub use sparker_net::profile::{NetProfile, TransportKind};
    pub use sparker_net::topology::RingOrder;
    pub use sparker_sparse::{DenseOrSparse, SparseAccum, SparseSegment};
    pub use sparker_tuner::Algo;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let cluster = LocalCluster::local(2, 1);
        let ds = cluster.parallelize(vec![1u64, 2, 3, 4], 2);
        let (sum, m) = ds
            .tree_aggregate(0u64, |a, x| a + *x, |a, b| a + b, TreeAggOpts::default())
            .unwrap();
        assert_eq!(sum, 10);
        assert_eq!(m.strategy, AggStrategy::Tree);
    }

    #[test]
    fn sparse_helpers_roundtrip() {
        let mut acc = crate::sparse::zeros(10);
        acc.add(2, 1.5);
        acc.add(7, -3.0);
        let segs: Vec<DenseOrSparse> = (0..3).map(|i| crate::sparse::split(&acc, i, 3)).collect();
        assert!(segs.iter().all(DenseOrSparse::is_sparse));
        let back = crate::sparse::concat(segs);
        assert_eq!(back.to_dense(), acc.to_dense());
    }

    #[test]
    fn dense_helpers_roundtrip() {
        let agg = F64Array(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let segs: Vec<SumSegment> = (0..3).map(|i| crate::dense::split(&agg, i, 3)).collect();
        let back = crate::dense::concat(segs);
        assert_eq!(crate::dense::to_vec(back), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
