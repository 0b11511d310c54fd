//! The three workloads that drive a `LocalCluster` directly: executors are
//! threads, links are the unshaped in-process mesh, costs are free.

use std::sync::{Arc, Mutex};

use sparker::prelude::*;
use sparker_data::profiles::enron;
use sparker_data::rng::SplitMix64;
use sparker_data::synth::{ClassificationGen, CorpusGen, Document, SparseExample};
use sparker_engine::multiproc::part_vector;
use sparker_ml::lda::{self, LdaRecord};
use sparker_net::transport::NetStatsSnapshot;
use sparker_sched::{AggJob, EngineBackend};

use crate::harness::{bits_equal, Ledger, OpError, Phases, Workload};
use crate::stats::median;

pub const EXECUTORS: usize = 4;
pub const PARTITIONS: usize = 8;
const WARMUP_OPS: u64 = 3;

fn failed(e: impl std::fmt::Display) -> OpError {
    OpError::Failed(e.to_string())
}

/// `max |a-b| / max(1, max |b|)` for two equally long vectors.
fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let scale = b.iter().fold(1.0f64, |m, x| m.max(x.abs()));
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
        / scale
}

/// Copies the fields of `AggMetrics` the ledger uses. A run without faults
/// retries nothing, so any op that needed more task attempts than the
/// warm-up ops did is counted as retried.
fn phases_of(m: &AggMetrics, baseline_attempts: u32) -> Phases {
    Phases {
        compute: m.compute,
        reduce: m.reduce,
        driver_merge: m.driver_merge,
        wire_bytes: m.wire_bytes(),
        stages: m.stages,
        task_attempts: m.task_attempts,
        downgraded: m.downgraded,
        retried: baseline_attempts != 0 && m.task_attempts > baseline_attempts,
        multiproc: None,
    }
}

/// Runs the warm-up ops of a freshly set-up workload and returns the task
/// attempts one op takes.
fn warm_up<W: Workload>(w: &W) -> u32 {
    let mut attempts = 0;
    for i in 0..WARMUP_OPS {
        match w.op(0, i) {
            Ok((_, phases)) => attempts = phases.task_attempts,
            Err(OpError::Failed(why) | OpError::Rejected(why)) => {
                panic!("{}: warm-up op failed: {why}", W::NAME)
            }
        }
    }
    attempts
}

// ---------------------------------------------------------------------------
// dense_large
// ---------------------------------------------------------------------------

pub const DENSE_DIM: usize = 524_288;

/// The `dense_large` dataset: 8 cached partitions of one integer-valued
/// vector each, so sums are exact in any order.
pub fn dense_dataset(cluster: &LocalCluster, seed: u64) -> Dataset<Vec<f64>> {
    let data = cluster
        .generate(PARTITIONS, move |p| {
            vec![part_vector(seed, p as u64, DENSE_DIM, 1.0)]
        })
        .cache();
    assert_eq!(data.count().expect("cache preload"), PARTITIONS as u64);
    data
}

pub fn dense_split_aggregate(
    data: &Dataset<Vec<f64>>,
) -> Result<(SumSegment, AggMetrics), sparker_engine::EngineError> {
    data.split_aggregate(
        sparker::dense::zeros(DENSE_DIM),
        |mut acc: F64Array, v: &Vec<f64>| {
            for (a, x) in acc.0.iter_mut().zip(v) {
                *a += x;
            }
            acc
        },
        sparker::dense::merge,
        sparker::dense::split,
        sparker::dense::merge_segments,
        sparker::dense::concat,
        SplitAggOpts::default(),
    )
}

pub struct DenseLarge {
    seed: u64,
    cluster: LocalCluster,
    data: Dataset<Vec<f64>>,
    baseline_attempts: u32,
}

impl Workload for DenseLarge {
    type Output = SumSegment;
    type Oracle = Vec<f64>;
    const NAME: &'static str = "dense_large";

    fn setup(seed: u64) -> Self {
        let cluster = LocalCluster::local(EXECUTORS, 1);
        let data = dense_dataset(&cluster, seed);
        let mut w = Self {
            seed,
            cluster,
            data,
            baseline_attempts: 0,
        };
        w.baseline_attempts = warm_up(&w);
        w
    }

    fn oracle(&self) -> Vec<f64> {
        EngineBackend::oracle(&AggJob {
            seed: self.seed,
            dim: DENSE_DIM,
            parts: PARTITIONS,
        })
    }

    fn op(&self, _client: usize, _i: u64) -> Result<(SumSegment, Phases), OpError> {
        let (sum, m) = dense_split_aggregate(&self.data).map_err(failed)?;
        Ok((sum, phases_of(&m, self.baseline_attempts)))
    }

    fn check(&self, oracle: &Vec<f64>, _client: usize, _i: u64, out: SumSegment) -> bool {
        bits_equal(&out.0, oracle)
    }

    fn sc_stats(&self) -> Option<NetStatsSnapshot> {
        Some(self.cluster.sc_stats())
    }
}

// ---------------------------------------------------------------------------
// sparse_grad
// ---------------------------------------------------------------------------

pub const SPARSE_DIM: usize = 1_000_000;
pub const SPARSE_NNZ: usize = 20;
pub const SPARSE_EXAMPLES: u64 = 4000;

/// The weight vector the gradient is taken at: small seeded values, so
/// `dot` and `exp` see real numbers.
pub fn sparse_weights(seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_BEEF);
    (0..SPARSE_DIM)
        .map(|_| 0.2 * (rng.next_f64() - 0.5))
        .collect()
}

/// Examples `range` of the `sparse_grad` dataset.
///
/// `ClassificationGen` seeds the RNG stream of sample `index` with
/// `seed ^ index·φ`, and SplitMix64 advances its state by the same `φ` per
/// draw: streams of consecutive indices are one another shifted by a draw,
/// more or less exactly depending on the seed's bits, so how many distinct
/// features a partition touches (and with it the wire bytes, 0.75 to 2.2 MB)
/// would change with the seed. Spreading the indices over the `u64` range
/// gives independent streams and the same sparsity at every seed.
pub fn sparse_examples(gen: &ClassificationGen, range: std::ops::Range<u64>) -> Vec<SparseExample> {
    range
        .map(|i| gen.sample(SplitMix64::new(i).next_u64()))
        .collect()
}

pub struct SparseGrad {
    gen: ClassificationGen,
    cluster: LocalCluster,
    data: Dataset<SparseExample>,
    weights: Arc<Vec<f64>>,
    baseline_attempts: u32,
}

impl Workload for SparseGrad {
    type Output = DenseOrSparse;
    type Oracle = Vec<f64>;
    const NAME: &'static str = "sparse_grad";

    fn setup(seed: u64) -> Self {
        let cluster = LocalCluster::local(EXECUTORS, 1);
        let gen = ClassificationGen::new(seed, SPARSE_DIM, SPARSE_NNZ);
        let g = gen.clone();
        let per_partition = SPARSE_EXAMPLES / PARTITIONS as u64;
        let data = cluster
            .generate(PARTITIONS, move |p| {
                sparse_examples(&g, p as u64 * per_partition..(p as u64 + 1) * per_partition)
            })
            .cache();
        assert_eq!(data.count().expect("cache preload"), SPARSE_EXAMPLES);
        let weights = Arc::new(sparse_weights(seed));
        let mut w = Self {
            gen,
            cluster,
            data,
            weights,
            baseline_attempts: 0,
        };
        w.baseline_attempts = warm_up(&w);
        w
    }

    /// The same gradient through the dense path: one serial pass adding
    /// `scale * x` into a dense vector.
    fn oracle(&self) -> Vec<f64> {
        let w = &self.weights;
        let mut grad = vec![0.0f64; SPARSE_DIM];
        for ex in sparse_examples(&self.gen, 0..SPARSE_EXAMPLES) {
            let scale = -ex.label / (1.0 + (ex.label * ex.dot(w)).exp());
            for (&i, &v) in ex.indices.iter().zip(&ex.values) {
                grad[i as usize] += scale * v;
            }
        }
        grad
    }

    fn op(&self, _client: usize, _i: u64) -> Result<(DenseOrSparse, Phases), OpError> {
        let w = self.weights.clone();
        let (grad, m) = self
            .data
            .split_aggregate(
                sparker::sparse::zeros(SPARSE_DIM),
                move |acc, ex: &SparseExample| sparker::sparse::fold_logistic_sparse(acc, ex, &w),
                sparker::sparse::merge,
                sparker::sparse::split,
                sparker::sparse::merge_segments,
                sparker::sparse::concat,
                SplitAggOpts::default(),
            )
            .map_err(failed)?;
        Ok((grad, phases_of(&m, self.baseline_attempts)))
    }

    fn check(&self, oracle: &Vec<f64>, _client: usize, _i: u64, out: DenseOrSparse) -> bool {
        rel_err(&out.into_dense(), oracle) <= 1e-9
    }

    fn sc_stats(&self) -> Option<NetStatsSnapshot> {
        Some(self.cluster.sc_stats())
    }
}

// ---------------------------------------------------------------------------
// lda_train
// ---------------------------------------------------------------------------

pub const LDA_TOPICS: usize = 16;
const LDA_ITERATIONS: usize = 2;

/// The corpus generator and document count of `lda_train`: enron's shape at
/// 5% of the documents and 20% of the vocabulary, seeded by the run.
pub fn lda_corpus(seed: u64) -> (CorpusGen, u64) {
    let profile = enron().scaled(0.05).feature_scaled(0.2);
    let gen = CorpusGen::new(seed, profile.features(), LDA_TOPICS, profile.nnz_per_sample);
    (gen, profile.samples())
}

pub struct LdaTrain {
    cluster: LocalCluster,
    data: Dataset<Document>,
    vocab: usize,
    /// Every iteration record of every op since set-up.
    records: Mutex<Vec<LdaRecord>>,
}

impl LdaTrain {
    fn train(&self, mode: AggregationMode) -> Result<Vec<LdaRecord>, OpError> {
        let cfg = LdaConfig {
            iterations: LDA_ITERATIONS,
            ..LdaConfig::new(LDA_TOPICS, self.vocab)
        }
        .with_mode(mode);
        lda::train(&self.data, cfg)
            .map(|(_, records)| records)
            .map_err(failed)
    }
}

fn final_nll(records: &[LdaRecord]) -> f64 {
    records.last().map_or(f64::NAN, |r| r.neg_loglik_per_word)
}

impl Workload for LdaTrain {
    /// The final iteration's negative log-likelihood per word.
    type Output = f64;
    /// The same after training in `AggregationMode::Tree`.
    type Oracle = f64;
    const NAME: &'static str = "lda_train";

    fn setup(seed: u64) -> Self {
        let cluster = LocalCluster::local(EXECUTORS, 1);
        let (gen, docs) = lda_corpus(seed);
        let vocab = gen.vocab_size;
        let data = cluster
            .generate(PARTITIONS, move |p| gen.partition(p, PARTITIONS, docs))
            .cache();
        assert_eq!(data.count().expect("cache preload"), docs);
        let w = Self {
            cluster,
            data,
            vocab,
            records: Mutex::default(),
        };
        // One warm-up op is already two full EM iterations over the corpus.
        if w.op(0, 0).is_err() {
            panic!("lda_train: warm-up op failed");
        }
        w.records.lock().expect("records lock").clear();
        w
    }

    fn oracle(&self) -> f64 {
        match self.train(AggregationMode::Tree) {
            Ok(reference) => final_nll(&reference),
            Err(_) => panic!("lda_train: tree-mode reference failed"),
        }
    }

    fn op(&self, _client: usize, _i: u64) -> Result<(f64, Phases), OpError> {
        let records = self.train(AggregationMode::split())?;
        let mut phases = Phases::default();
        for r in &records {
            let p = phases_of(&r.metrics, 0);
            phases.compute += p.compute;
            phases.reduce += p.reduce;
            phases.driver_merge += p.driver_merge;
            phases.wire_bytes += p.wire_bytes;
            phases.stages += p.stages;
            phases.task_attempts += p.task_attempts;
            phases.downgraded |= p.downgraded;
        }
        let nll = final_nll(&records);
        self.records.lock().expect("records lock").extend(records);
        Ok((nll, phases))
    }

    fn check(&self, reference: &f64, _client: usize, _i: u64, nll: f64) -> bool {
        // NaN on either side compares false.
        ((nll - reference) / reference).abs() <= 1e-9
    }

    fn sc_stats(&self) -> Option<NetStatsSnapshot> {
        Some(self.cluster.sc_stats())
    }

    fn extra_ledger(&self, ledger: &mut Ledger) {
        let records = self.records.lock().expect("records lock");
        if records.is_empty() {
            return;
        }
        let ms = |f: fn(&AggMetrics) -> std::time::Duration| {
            median(
                &mut records
                    .iter()
                    .map(|r| f(&r.metrics).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let (compute, reduce) = (ms(|m| m.compute), ms(|m| m.reduce));
        ledger.set("ml.lda.compute_ms_p50", compute);
        ledger.set("ml.lda.reduce_ms_p50", reduce);
        ledger.set(
            "ml.lda.reduce_share_pct",
            100.0 * reduce / (compute + reduce),
        );
        ledger.set("ml.lda.nll_per_word", final_nll(&records));
    }
}
