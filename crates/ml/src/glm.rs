//! Gradient-descent driver for generalized linear models.
//!
//! Mirrors MLlib's `GradientDescent.runMiniBatchSGD`: each iteration
//! broadcasts the current weights, aggregates `(gradient, loss, count)` over
//! the dataset with `treeAggregate`, and updates the weights on the driver.
//! The single knob the paper adds — which aggregation implementation to use
//! — is [`AggregationMode`].


use sparker_engine::dataset::Dataset;
use sparker_engine::metrics::AggMetrics;
use sparker_engine::ops::split_aggregate::SplitAggOpts;
use sparker_engine::ops::tree_aggregate::TreeAggOpts;
use sparker_engine::rdd::Data;
use sparker_engine::task::EngineResult;
use sparker_net::codec::F64Array;

use crate::aggregator::{concat_segments, merge_dense, merge_segments, split_dense, zeros, DenseAgg};
use crate::linalg::{log1p_exp, norm2, sparse_axpy};
use crate::point::LabeledPoint;

/// Which aggregation path a trainer uses — the paper's configuration switch.
#[derive(Debug, Clone, Copy, Default)]
pub enum AggregationMode {
    /// Vanilla Spark: `treeAggregate`.
    #[default]
    Tree,
    /// `treeAggregate` with In-Memory Merge in the compute stage.
    TreeImm,
    /// Sparker: split aggregation over the PDR.
    Split(SplitAggOpts),
}

impl AggregationMode {
    /// Sparker's default configuration (ring, cluster-default parallelism).
    pub fn split() -> Self {
        AggregationMode::Split(SplitAggOpts::default())
    }

    pub fn name(&self) -> &'static str {
        match self {
            AggregationMode::Tree => "tree",
            AggregationMode::TreeImm => "tree+imm",
            AggregationMode::Split(_) => "split",
        }
    }
}

/// Aggregates a dense-vector statistic over a dataset using the selected
/// aggregation implementation. The work-horse of every trainer here.
pub fn aggregate_dense<T: Data>(
    data: &Dataset<T>,
    dim: usize,
    seq: impl Fn(DenseAgg, &T) -> DenseAgg + Send + Sync + 'static,
    mode: AggregationMode,
) -> EngineResult<(DenseAgg, AggMetrics)> {
    match mode {
        AggregationMode::Tree | AggregationMode::TreeImm => {
            let imm = matches!(mode, AggregationMode::TreeImm);
            data.tree_aggregate(
                zeros(dim),
                seq,
                |mut a, b| {
                    merge_dense(&mut a, b);
                    a
                },
                TreeAggOpts { depth: 2, imm },
            )
        }
        AggregationMode::Split(opts) => {
            let (seg, metrics) = data.split_aggregate(
                zeros(dim),
                seq,
                merge_dense,
                split_dense,
                merge_segments,
                concat_segments,
                opts,
            )?;
            Ok((F64Array(seg.0), metrics))
        }
    }
}

/// Loss/gradient families (MLlib's `Gradient` subclasses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientKind {
    /// Binary logistic loss, labels ±1.
    Logistic,
    /// Hinge loss (linear SVM), labels ±1.
    Hinge,
}

impl GradientKind {
    /// Adds sample `p`'s gradient into `acc[0..dim]` and its loss into
    /// `acc[dim]`; `acc[dim+1]` counts samples.
    pub fn accumulate(&self, w: &[f64], p: &LabeledPoint, acc: &mut [f64]) {
        let dim = w.len();
        let y = p.label;
        let margin = p.margin(w);
        match self {
            GradientKind::Logistic => {
                // d/dw log(1 + e^{-y w·x}) = -y σ(-y w·x) x
                let factor = -y / (1.0 + (y * margin).exp());
                sparse_axpy(factor, &p.indices, &p.values, &mut acc[..dim]);
                acc[dim] += log1p_exp(-y * margin);
            }
            GradientKind::Hinge => {
                if y * margin < 1.0 {
                    sparse_axpy(-y, &p.indices, &p.values, &mut acc[..dim]);
                    acc[dim] += 1.0 - y * margin;
                }
            }
        }
        acc[dim + 1] += 1.0;
    }
}

/// Gradient-descent hyperparameters (MLlib names).
#[derive(Debug, Clone, Copy)]
pub struct GdConfig {
    pub iterations: usize,
    pub step_size: f64,
    /// L2 regularization (paper: 0 for LR, 0.01 for SVM).
    pub reg_param: f64,
    /// Fraction of samples used per iteration (paper: 1.0 for SVM).
    pub mini_batch_fraction: f64,
    pub mode: AggregationMode,
}

impl Default for GdConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            step_size: 1.0,
            reg_param: 0.0,
            mini_batch_fraction: 1.0,
            mode: AggregationMode::Tree,
        }
    }
}

/// Per-iteration training record.
#[derive(Debug, Clone)]
pub struct TrainRecord {
    pub iteration: usize,
    /// Mean regularized loss over the (mini-)batch.
    pub loss: f64,
    /// Samples that contributed this iteration.
    pub count: u64,
    /// Aggregation decomposition for this iteration.
    pub metrics: AggMetrics,
}

/// Cheap deterministic per-sample hash for mini-batch selection (stable
/// across executors/backends; MLlib uses per-partition RNG sampling).
fn sample_hash(p: &LabeledPoint) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(p.label.to_bits());
    for &i in p.indices.iter().take(4) {
        mix(i as u64);
    }
    if let Some(v) = p.values.first() {
        mix(v.to_bits());
    }
    h
}

/// Runs gradient descent; returns final weights and per-iteration records.
pub fn run_gradient_descent(
    data: &Dataset<LabeledPoint>,
    dim: usize,
    kind: GradientKind,
    cfg: GdConfig,
) -> EngineResult<(Vec<f64>, Vec<TrainRecord>)> {
    assert!(dim >= 1 && cfg.iterations >= 1);
    assert!((0.0..=1.0).contains(&cfg.mini_batch_fraction) && cfg.mini_batch_fraction > 0.0);
    let mut w = vec![0.0f64; dim];
    let mut records = Vec::with_capacity(cfg.iterations);

    for it in 0..cfg.iterations {
        let mut iter_span = sparker_obs::trace::span(sparker_obs::Layer::Ml, "ml.iteration");
        iter_span.arg("iteration", it as u64);
        // Broadcast the model like MLlib does every iteration: the driver
        // serializes once, every executor receives and pins a replica, and
        // the fold reads the executor-local copy (see engine::broadcast).
        let bc = data.cluster().broadcast(F64Array(w.clone()))?;
        let weights = bc.clone();
        let frac = cfg.mini_batch_fraction;
        let threshold = (frac * u64::MAX as f64) as u64;
        let iter_seed = (it as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seq = move |mut acc: DenseAgg, p: &LabeledPoint| {
            let selected = frac >= 1.0 || (sample_hash(p) ^ iter_seed) <= threshold;
            if selected {
                kind.accumulate(&weights.value().0, p, &mut acc.0);
            }
            acc
        };
        let (agg, metrics) = aggregate_dense(data, dim + 2, seq, cfg.mode)?;
        bc.destroy();
        let grad = &agg.0[..dim];
        let loss_sum = agg.0[dim];
        let count = agg.0[dim + 1];

        let mut loss = 0.0;
        if count > 0.0 {
            // MLlib's simpleUpdater step size decays as 1/sqrt(iter).
            let step = cfg.step_size / ((it + 1) as f64).sqrt();
            for i in 0..dim {
                w[i] -= step * (grad[i] / count + cfg.reg_param * w[i]);
            }
            let n = norm2(&w);
            loss = loss_sum / count + 0.5 * cfg.reg_param * n * n;
        }
        records.push(TrainRecord { iteration: it, loss, count: count as u64, metrics });
    }
    Ok((w, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_engine::cluster::LocalCluster;

    fn toy_points() -> Vec<LabeledPoint> {
        // y = sign(x0 - x1): linearly separable 2-d data + intercept dim 2.
        let mut pts = Vec::new();
        for i in 0..200 {
            let a = (i % 20) as f64 / 10.0 - 1.0;
            let b = ((i * 7) % 20) as f64 / 10.0 - 1.0;
            let label = if a - b > 0.0 { 1.0 } else { -1.0 };
            pts.push(LabeledPoint::new(label, vec![0, 1, 2], vec![a, b, 1.0]));
        }
        pts
    }

    fn accuracy(w: &[f64], pts: &[LabeledPoint]) -> f64 {
        let ok = pts
            .iter()
            .filter(|p| (p.margin(w) > 0.0) == (p.label > 0.0))
            .count();
        ok as f64 / pts.len() as f64
    }

    #[test]
    fn logistic_gd_learns_separable_data() {
        let cluster = LocalCluster::local(2, 2);
        let pts = toy_points();
        let ds = cluster.parallelize(pts.clone(), 4);
        let cfg = GdConfig { iterations: 30, step_size: 1.0, ..Default::default() };
        let (w, records) = run_gradient_descent(&ds, 3, GradientKind::Logistic, cfg).unwrap();
        assert!(accuracy(&w, &pts) >= 0.95, "accuracy {}", accuracy(&w, &pts));
        assert!(records.last().unwrap().loss < records[0].loss, "loss must fall");
        assert_eq!(records.len(), 30);
        assert_eq!(records[0].count, 200);
    }

    #[test]
    fn all_modes_produce_identical_weights() {
        let cluster = LocalCluster::local(3, 2);
        let pts = toy_points();
        let ds = cluster.parallelize(pts, 6);
        let cfg = |mode| GdConfig { iterations: 5, mode, ..Default::default() };
        let (w_tree, _) =
            run_gradient_descent(&ds, 3, GradientKind::Logistic, cfg(AggregationMode::Tree)).unwrap();
        let (w_imm, _) =
            run_gradient_descent(&ds, 3, GradientKind::Logistic, cfg(AggregationMode::TreeImm))
                .unwrap();
        let (w_split, _) =
            run_gradient_descent(&ds, 3, GradientKind::Logistic, cfg(AggregationMode::split()))
                .unwrap();
        for i in 0..3 {
            assert!((w_tree[i] - w_imm[i]).abs() < 1e-9, "tree vs imm at {i}");
            assert!((w_tree[i] - w_split[i]).abs() < 1e-9, "tree vs split at {i}");
        }
    }

    #[test]
    fn hinge_gd_learns_separable_data() {
        let cluster = LocalCluster::local(2, 2);
        let pts = toy_points();
        let ds = cluster.parallelize(pts.clone(), 4);
        let cfg = GdConfig {
            iterations: 30,
            step_size: 1.0,
            reg_param: 0.01,
            ..Default::default()
        };
        let (w, _) = run_gradient_descent(&ds, 3, GradientKind::Hinge, cfg).unwrap();
        assert!(accuracy(&w, &pts) > 0.9, "accuracy {}", accuracy(&w, &pts));
    }

    #[test]
    fn mini_batch_fraction_reduces_count() {
        let cluster = LocalCluster::local(2, 2);
        let ds = cluster.parallelize(toy_points(), 4);
        let cfg = GdConfig { iterations: 2, mini_batch_fraction: 0.5, ..Default::default() };
        let (_, records) = run_gradient_descent(&ds, 3, GradientKind::Logistic, cfg).unwrap();
        for r in &records {
            assert!(r.count > 40 && r.count < 160, "batch size {} not ~50%", r.count);
        }
        // Different iterations select different subsets.
        assert_ne!(records[0].count, 0);
    }

    #[test]
    fn gradient_kinds_match_finite_differences() {
        let w = vec![0.3, -0.2, 0.1];
        let p = LabeledPoint::new(1.0, vec![0, 1, 2], vec![1.0, 2.0, -0.5]);
        for kind in [GradientKind::Logistic, GradientKind::Hinge] {
            let mut acc = vec![0.0; 5];
            kind.accumulate(&w, &p, &mut acc);
            let base_loss = acc[3];
            let _ = base_loss;
            // Finite-difference check on each coordinate of the gradient.
            let eps = 1e-6;
            for i in 0..3 {
                let mut wp = w.clone();
                wp[i] += eps;
                let mut accp = vec![0.0; 5];
                kind.accumulate(&wp, &p, &mut accp);
                let mut wm = w.clone();
                wm[i] -= eps;
                let mut accm = vec![0.0; 5];
                kind.accumulate(&wm, &p, &mut accm);
                let fd = (accp[3] - accm[3]) / (2.0 * eps);
                assert!(
                    (fd - acc[i]).abs() < 1e-4,
                    "{kind:?} grad[{i}]: analytic {} vs fd {fd}",
                    acc[i]
                );
            }
        }
    }
}
