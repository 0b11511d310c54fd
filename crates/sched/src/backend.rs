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
//!   many submitters' jobs through the FIFO queue, with each job fenced
//!   into its own epoch namespace on the real TCP mesh.

use std::sync::Arc;

use sparker_collectives::gather::Segments;
use sparker_engine::config::ClusterSpec;
use sparker_engine::multiproc::{part_vector, JobOutcome, JobSpec, MultiProcDriver};
use sparker_engine::ops::split_aggregate::{split_aggregate, SplitAggOpts};
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
}

impl EngineBackend {
    /// `lanes` clusters of `executors`×`cores` each.
    pub fn new(lanes: usize, executors: usize, cores: usize) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        Self {
            lanes: (0..lanes)
                .map(|_| LocalCluster::new(ClusterSpec::local(executors, cores)))
                .collect(),
        }
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
        let opts = SplitAggOpts { job_id: ctx.job_id, epoch_ns: ctx.epoch_ns, ..Default::default() };
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
            |segs: Segments<F64Array>| {
                F64Array(sparker_collectives::segment::concat(segs.map(|s| s.0)))
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
/// FIFO queue and each runs under its own epoch namespace on the wire.
pub struct MultiProcBackend {
    driver: Arc<Mutex<MultiProcDriver>>,
}

impl MultiProcBackend {
    /// Wraps a shared driver; the caller keeps its own `Arc` for shutdown
    /// and metrics collection after the scheduler is done.
    pub fn new(driver: Arc<Mutex<MultiProcDriver>>) -> Self {
        Self { driver }
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
        self.driver.lock().run_job(&spec).map_err(|e| e.to_string())
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
    fn engine_backend_rejects_bad_namespace_typed() {
        let backend = EngineBackend::new(1, 2, 1);
        let job = AggJob { seed: 1, dim: 8, parts: 2 };
        let err = backend
            .run(0, JobCtx { job_id: 1, epoch_ns: sparker_net::epoch::NS_COUNT }, &job)
            .unwrap_err();
        assert!(err.contains("namespace"), "{err}");
    }
}
