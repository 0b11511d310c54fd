//! Execution backends: where admitted jobs actually run.
//!
//! The scheduler core is generic over a [`Backend`] with one or more
//! *lanes* — independent execution slots the worker threads drive. The two
//! production shapes:
//!
//! * [`EngineBackend`] — each lane owns its own in-process
//!   [`LocalCluster`]; lanes run genuinely concurrently (a cluster's action
//!   lock serializes ops *per cluster*, so one cluster per lane is what
//!   turns job concurrency into wall-clock overlap).
//! * [`MultiProcBackend`] — one lane over the shared
//!   [`MultiProcDriver`] control plane; concurrency here is *interleaving*
//!   many submitters' jobs through the policy queue, with each job fenced
//!   into its own epoch namespace on the real TCP mesh.

use std::sync::Arc;

use sparker_engine::config::ClusterSpec;
use sparker_engine::multiproc::{part_vector, JobOutcome, JobSpec, MultiProcDriver};
use sparker_engine::ops::split_aggregate::{split_aggregate, SelectorOpts, SplitAggOpts};
use sparker_engine::rdd::RddRef;
use sparker_engine::rdds::ParallelCollection;
use sparker_engine::LocalCluster;
use sparker_net::codec::F64Array;
use sparker_net::sync::Mutex;

/// Context the scheduler hands a backend for each dispatch: the identity the
/// job runs under.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// Scheduler-assigned job id (monotonic from 1).
    pub job_id: u64,
    /// The job's live epoch namespace in `1..NS_COUNT`, unique among live
    /// jobs — backends must fence every collective frame with it.
    pub epoch_ns: u32,
}

/// Where jobs run. `run` is called from scheduler worker threads, one call
/// per lane at a time (the scheduler never dispatches two jobs onto the
/// same lane concurrently).
pub trait Backend: Send + Sync + 'static {
    type Job: Send + 'static;
    type Output: Send + 'static;

    /// Number of independent execution slots.
    fn lanes(&self) -> usize;

    /// Runs one job to completion on `lane`. A `Err(reason)` becomes a
    /// typed [`crate::SchedError::TaskFailed`] for the submitter.
    fn run(&self, lane: usize, ctx: JobCtx, job: &Self::Job) -> Result<Self::Output, String>;
}

/// One small dense split-aggregate job for the in-process backend: sums
/// [`part_vector`]`(seed, p, dim, 1.0)` over `parts` partitions. Values are
/// integer-valued `f64`s, so the result is bit-exact in any merge order and
/// [`EngineBackend::oracle`] is an exact-equality oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggJob {
    pub seed: u64,
    pub dim: usize,
    pub parts: usize,
}

/// In-process backend: `lanes` independent [`LocalCluster`]s.
pub struct EngineBackend {
    lanes: Vec<LocalCluster>,
    /// Algorithm selection policy stamped onto every job (the engine's
    /// flat-ring default unless [`EngineBackend::with_selector`] sets one).
    selector: SelectorOpts,
}

impl EngineBackend {
    /// `lanes` clusters of `executors`×`cores` each.
    pub fn new(lanes: usize, executors: usize, cores: usize) -> Self {
        Self::with_spec(lanes, ClusterSpec::local(executors, cores))
    }

    /// `lanes` clusters of an arbitrary shape (multi-node specs give the
    /// selector a real topology to pick hierarchical collectives over).
    pub fn with_spec(lanes: usize, spec: ClusterSpec) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        Self {
            lanes: (0..lanes).map(|_| LocalCluster::new(spec.clone())).collect(),
            selector: SplitAggOpts::default().selector,
        }
    }

    /// Runs every job under this selection policy (e.g.
    /// `SelectorOpts::Auto(model)` for calibrated auto-tuning).
    pub fn with_selector(mut self, selector: SelectorOpts) -> Self {
        self.selector = selector;
        self
    }

    /// The serial oracle: what [`Backend::run`] must produce, bit-for-bit.
    pub fn oracle(job: &AggJob) -> Vec<f64> {
        let mut acc = vec![0.0f64; job.dim];
        for p in 0..job.parts as u64 {
            for (a, x) in acc.iter_mut().zip(part_vector(job.seed, p, job.dim, 1.0)) {
                *a += x;
            }
        }
        acc
    }
}

impl Backend for EngineBackend {
    type Job = AggJob;
    type Output = Vec<f64>;

    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn run(&self, lane: usize, ctx: JobCtx, job: &Self::Job) -> Result<Vec<f64>, String> {
        let cluster = &self.lanes[lane];
        let rdd: RddRef<u64> =
            Arc::new(ParallelCollection::new((0..job.parts as u64).collect(), job.parts));
        let seed = job.seed;
        let dim = job.dim;
        let opts = SplitAggOpts {
            job_id: ctx.job_id,
            epoch_ns: ctx.epoch_ns,
            selector: self.selector,
            hint_bytes: (job.dim * 8) as u64,
            ..Default::default()
        };
        let result = split_aggregate(
            cluster,
            rdd,
            vec![0.0f64; dim],
            move |mut acc: Vec<f64>, p: &u64| {
                for (a, x) in acc.iter_mut().zip(part_vector(seed, *p, dim, 1.0)) {
                    *a += x;
                }
                acc
            },
            |a: &mut Vec<f64>, b: Vec<f64>| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            },
            |u: &Vec<f64>, i: usize, n: usize| {
                let (lo, hi) = sparker_collectives::segment::slice_bounds(u.len(), i, n);
                F64Array(u[lo..hi].to_vec())
            },
            |a: &mut F64Array, b: F64Array| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            |segs: Vec<F64Array>| {
                F64Array(sparker_collectives::segment::concat(segs.iter().map(|s| s.0.as_slice())))
            },
            opts,
        );
        // Nobody reads a lane's history, so with tracing off its always-on
        // stage and driver-phase spans would only accumulate in the global
        // sink, one set per job. With tracing on they stay for the export.
        if !sparker_obs::enabled() {
            cluster.history().clear();
        }
        let (value, _metrics) = result.map_err(|e| e.to_string())?;
        Ok(value.0)
    }
}

/// Real-TCP backend over a shared [`MultiProcDriver`]. One lane: the control
/// plane is sequential, but jobs from many submitters interleave through the
/// policy queue and each runs under its own epoch namespace on the wire.
pub struct MultiProcBackend {
    driver: Arc<Mutex<MultiProcDriver>>,
    tuning: Option<MultiProcTuning>,
}

/// Auto-tuning config for [`MultiProcBackend`]: the calibrated cost model
/// plus the emulated node count stamped into every spec (the TCP mesh has no
/// physical topology, so the node grouping is part of the experiment setup).
#[derive(Debug, Clone, Copy)]
pub struct MultiProcTuning {
    pub model: sparker_tuner::CostModel,
    /// Emulated nodes ([`JobSpec::nodes`]); 0 = every rank its own node.
    pub nodes: usize,
}

impl MultiProcBackend {
    /// Wraps a shared driver; the caller keeps its own `Arc` for shutdown
    /// and metrics collection after the scheduler is done.
    pub fn new(driver: Arc<Mutex<MultiProcDriver>>) -> Self {
        Self { driver, tuning: None }
    }

    /// Picks the algorithm per job from the calibrated model instead of
    /// honoring the spec's own.
    pub fn with_tuning(mut self, tuning: MultiProcTuning) -> Self {
        self.tuning = Some(tuning);
        self
    }

    /// Sets `spec`'s algorithm to a fresh selection over the current
    /// live-executor count: whatever the selector picks is what runs.
    /// Exposed for tests and benches.
    pub fn tune_spec(tuning: &MultiProcTuning, executors: usize, spec: &mut JobSpec) {
        use sparker_tuner::{JobShape, Selector};
        let density_permille = if spec.sparse {
            ((spec.density * 1000.0).round() as u32).clamp(1, 1000)
        } else {
            1000
        };
        let shape = JobShape {
            bytes: (spec.dim * 8) as u64,
            density_permille,
            executors: executors.max(1),
            nodes: if tuning.nodes == 0 { executors.max(1) } else { tuning.nodes.min(executors.max(1)) },
            parallelism: spec.parallelism,
        };
        spec.nodes = tuning.nodes;
        spec.algo = Selector::new(tuning.model).select(&shape).algo;
    }
}

impl Backend for MultiProcBackend {
    type Job = JobSpec;
    type Output = JobOutcome;

    fn lanes(&self) -> usize {
        1
    }

    fn run(&self, _lane: usize, ctx: JobCtx, job: &Self::Job) -> Result<JobOutcome, String> {
        let mut spec = job.clone();
        // The scheduler's identity wins: its job ids are unique across the
        // queue and its namespace is unique among live jobs.
        spec.id = ctx.job_id;
        spec.epoch_ns = ctx.epoch_ns;
        let mut driver = self.driver.lock();
        if let Some(tuning) = &self.tuning {
            Self::tune_spec(tuning, driver.alive().len(), &mut spec);
        }
        driver.run_job(&spec).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_backend_matches_oracle_bit_exact() {
        let backend = EngineBackend::new(2, 2, 1);
        let job = AggJob { seed: 0xBEEF, dim: 33, parts: 3 };
        let want = EngineBackend::oracle(&job);
        for lane in 0..2 {
            let got = backend
                .run(lane, JobCtx { job_id: 7, epoch_ns: 5 }, &job)
                .expect("job runs");
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "lane {lane} bit-exact vs serial oracle"
            );
        }
    }

    #[test]
    fn engine_backend_with_auto_selector_stays_bit_exact() {
        use sparker_tuner::CostModel;
        let mut spec = ClusterSpec::local(4, 1);
        spec.nodes = 2;
        spec.executors_per_node = 2;
        let backend = EngineBackend::with_spec(1, spec)
            .with_selector(SelectorOpts::Auto(CostModel::default_model()));
        let job = AggJob { seed: 0xCAFE, dim: 65, parts: 5 };
        let want = EngineBackend::oracle(&job);
        let got = backend.run(0, JobCtx { job_id: 3, epoch_ns: 2 }, &job).expect("job runs");
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "auto-tuned run bit-exact vs serial oracle"
        );
    }

    #[test]
    fn tune_spec_picks_hierarchical_for_big_dense_multi_node() {
        use sparker_tuner::{Algo, CostModel};
        let tuning = MultiProcTuning { model: CostModel::default_model(), nodes: 2 };
        let mut spec = JobSpec::dense(1, 7, 512 * 1024, 8); // 4 MiB aggregator
        MultiProcBackend::tune_spec(&tuning, 8, &mut spec);
        assert_eq!(spec.algo, Algo::Hierarchical, "4 MiB dense over 2 nodes -> hierarchical");
        assert_eq!(spec.nodes, 2);
        let mut tiny = JobSpec::dense(2, 7, 16, 8); // 128 B aggregator
        MultiProcBackend::tune_spec(&tuning, 8, &mut tiny);
        assert_eq!(tiny.algo.chunks(), 1, "tiny jobs cannot pay per-chunk alphas");
    }

    #[test]
    fn tune_spec_runs_whatever_the_selector_picks() {
        use sparker_tuner::{CostModel, JobShape, Selector};
        let model = CostModel::default_model();
        for nodes in [0, 1, 2, 4] {
            let tuning = MultiProcTuning { model, nodes };
            for (dim, sparse, density) in
                [(16, false, 1.0), (1 << 19, false, 1.0), (1 << 17, true, 0.01)]
            {
                for executors in [2, 3, 8] {
                    let mut spec = JobSpec::dense(1, 7, dim, 8);
                    (spec.sparse, spec.density) = (sparse, density);
                    MultiProcBackend::tune_spec(&tuning, executors, &mut spec);
                    let shape = JobShape {
                        bytes: (dim * 8) as u64,
                        density_permille: (density * 1000.0) as u32,
                        executors,
                        nodes: if nodes == 0 { executors } else { nodes.min(executors) },
                        parallelism: spec.parallelism,
                    };
                    assert_eq!(spec.algo, Selector::new(model).select(&shape).algo, "{shape:?}");
                }
            }
        }
    }

    #[test]
    fn engine_backend_rejects_bad_namespace_typed() {
        let backend = EngineBackend::new(1, 2, 1);
        let job = AggJob { seed: 1, dim: 8, parts: 2 };
        let err = backend
            .run(0, JobCtx { job_id: 1, epoch_ns: sparker_net::epoch::NS_COUNT }, &job)
            .unwrap_err();
        assert!(err.contains("namespace"), "{err}");
    }
}
