//! End-to-end sparse split aggregation: real workload folds
//! (classification gradients from `SparseExample`s, LDA word counts from
//! `Document`s) through `split_aggregate` with sparse/adaptive segments,
//! checked against the dense path on every topology — ring, halving, and
//! the forced tree fallback — plus the wire-byte reduction the subsystem
//! exists for.

use std::time::Duration;

use sparker::data::synth::{ClassificationGen, CorpusGen, SparseExample};
use sparker::net::{ExecutorId, NetFaultPlan};
use sparker::prelude::*;
use sparker::sparse::SparseAccum;
use sparker_engine::metrics::AggMetrics;

const FEATURES: usize = 512;
const SAMPLES: u64 = 96;
const PARTITIONS: usize = 8;

fn close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            "index {i}: {x} vs {y}"
        );
    }
}

/// A fixed weight vector so the gradient is non-trivial.
fn weights() -> Vec<f64> {
    (0..FEATURES).map(|i| ((i % 13) as f64 - 6.0) * 0.05).collect()
}

fn classification_data(cluster: &LocalCluster) -> sparker::engine::dataset::Dataset<SparseExample> {
    cluster.generate(PARTITIONS, |p| {
        ClassificationGen::new(42, FEATURES, 6).partition(p, PARTITIONS, SAMPLES)
    })
}

/// Dense-path log-loss gradient: the oracle every sparse variant must match.
fn dense_gradient(cluster: &LocalCluster, opts: SplitAggOpts) -> (Vec<f64>, AggMetrics) {
    let w = weights();
    let (v, m) = classification_data(cluster)
        .split_aggregate(
            F64Array(vec![0.0; FEATURES]),
            move |mut acc: F64Array, ex: &SparseExample| {
                let margin = ex.dot(&w);
                let scale = -ex.label / (1.0 + (ex.label * margin).exp());
                for (&i, &x) in ex.indices.iter().zip(&ex.values) {
                    acc.0[i as usize] += scale * x;
                }
                acc
            },
            sparker::dense::merge,
            sparker::dense::split,
            sparker::dense::merge_segments,
            sparker::dense::concat,
            opts,
        )
        .unwrap();
    (sparker::dense::to_vec(v), m)
}

fn sparse_gradient(
    cluster: &LocalCluster,
    opts: SplitAggOpts,
    adaptive: bool,
) -> (Vec<f64>, AggMetrics) {
    let w = weights();
    let split = if adaptive { sparker::sparse::split } else { sparker::sparse::split_sparse };
    let (v, m) = classification_data(cluster)
        .split_aggregate(
            sparker::sparse::zeros(FEATURES),
            move |acc: SparseAccum, ex: &SparseExample| {
                sparker::sparse::fold_logistic_sparse(acc, ex, &w)
            },
            sparker::sparse::merge,
            split,
            sparker::sparse::merge_segments,
            sparker::sparse::concat,
            opts,
        )
        .unwrap();
    (v.to_dense(), m)
}

#[test]
fn classification_gradients_match_dense_on_ring_and_halving() {
    let cluster = LocalCluster::local(4, 2);
    for algo in [Algo::FlatRing, Algo::Halving] {
        let opts = || SplitAggOpts { selector: SelectorOpts::Forced(algo), ..Default::default() };
        let (dense, _) = dense_gradient(&cluster, opts());
        let (sparse, _) = sparse_gradient(&cluster, opts(), false);
        let (adaptive, _) = sparse_gradient(&cluster, opts(), true);
        close(&dense, &sparse);
        close(&dense, &adaptive);
    }
}

#[test]
fn classification_gradients_match_dense_through_tree_fallback() {
    // A permanently dead link exhausts the gang: the adaptive path must
    // downgrade to the tree fallback and still match the dense oracle
    // computed on an unfaulted cluster.
    let clean = LocalCluster::local(3, 2);
    let (oracle, _) = dense_gradient(&clean, SplitAggOpts::default());

    let spec = ClusterSpec::local(3, 2)
        .with_collective_recv_timeout(Duration::from_millis(200))
        .with_max_collective_attempts(2)
        .with_stage_timeout(Duration::from_secs(60))
        .with_sc_fault(NetFaultPlan::new().partition(&[(ExecutorId(0), ExecutorId(1))]));
    let faulted = LocalCluster::new(spec);
    let (v, m) = sparse_gradient(&faulted, SplitAggOpts::default(), true);
    assert!(m.downgraded, "the dead link must exhaust the gang");
    close(&oracle, &v);
}

#[test]
fn lda_word_counts_match_dense_exactly() {
    // Integer-valued sufficient statistics: any topology and any
    // representation must agree bit-for-bit.
    const VOCAB: usize = 600;
    const DOCS: u64 = 48;
    let cluster = LocalCluster::local(3, 2);
    let corpus = |p: usize| CorpusGen::new(7, VOCAB, 6, 40).partition(p, 6, DOCS);

    let data = cluster.generate(6, move |p| corpus(p));
    let (dense, _) = data
        .split_aggregate(
            F64Array(vec![0.0; VOCAB]),
            |mut acc: F64Array, doc: &sparker::data::synth::Document| {
                for &(w, c) in &doc.words {
                    acc.0[w as usize] += c as f64;
                }
                acc
            },
            sparker::dense::merge,
            sparker::dense::split,
            sparker::dense::merge_segments,
            sparker::dense::concat,
            SplitAggOpts::default(),
        )
        .unwrap();

    let data = cluster.generate(6, move |p| corpus(p));
    let (sparse, _) = data
        .split_aggregate(
            sparker::sparse::zeros(VOCAB),
            sparker::sparse::fold_doc_counts_sparse,
            sparker::sparse::merge,
            sparker::sparse::split,
            sparker::sparse::merge_segments,
            sparker::sparse::concat,
            SplitAggOpts::default(),
        )
        .unwrap();
    assert_eq!(sparker::dense::to_vec(dense), sparse.to_dense());
}

#[test]
fn sparse_wire_bytes_are_at_least_5x_below_dense_at_1_percent_density() {
    // Synthetic 1%-density updates (as in the ablation bench, but sized
    // for a test): the unified wire-bytes accounting must show ≥5× less
    // traffic for sparse and adaptive than dense.
    const DIM: usize = 8192;
    let cluster = LocalCluster::local(3, 2);
    let gen = |p: usize| -> Vec<Vec<(u32, f64)>> {
        let mut g = sparker::data::rng::SplitMix64::for_stream(99, p as u64);
        let zipf = sparker::data::rng::Zipf::new(DIM, 1.05);
        (0..3)
            .map(|_| {
                let mut m = std::collections::BTreeMap::new();
                for _ in 0..DIM / 100 {
                    *m.entry(zipf.sample(&mut g) as u32).or_insert(0.0) += 1.0;
                }
                m.into_iter().collect()
            })
            .collect()
    };

    let data = cluster.generate(6, move |p| gen(p));
    let (dv, dm) = data
        .split_aggregate(
            F64Array(vec![0.0; DIM]),
            |mut acc: F64Array, item: &Vec<(u32, f64)>| {
                for &(i, d) in item {
                    acc.0[i as usize] += d;
                }
                acc
            },
            sparker::dense::merge,
            sparker::dense::split,
            sparker::dense::merge_segments,
            sparker::dense::concat,
            SplitAggOpts::default(),
        )
        .unwrap();

    for adaptive in [false, true] {
        let data = cluster.generate(6, move |p| gen(p));
        let split = if adaptive { sparker::sparse::split } else { sparker::sparse::split_sparse };
        let (sv, sm) = data
            .split_aggregate(
                sparker::sparse::zeros(DIM),
                |mut acc: SparseAccum, item: &Vec<(u32, f64)>| {
                    for &(i, d) in item {
                        acc.add(i, d);
                    }
                    acc
                },
                sparker::sparse::merge,
                split,
                sparker::sparse::merge_segments,
                sparker::sparse::concat,
                SplitAggOpts::default(),
            )
            .unwrap();
        assert_eq!(sv.to_dense(), sparker::dense::to_vec(dv.clone()), "adaptive={adaptive}");
        assert!(
            sm.wire_bytes() * 5 <= dm.wire_bytes(),
            "adaptive={adaptive}: {} vs dense {}",
            sm.wire_bytes(),
            dm.wire_bytes()
        );
    }
}
