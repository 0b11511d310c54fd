//! `small_jobs`: two serving clients, one outstanding job each, through the
//! scheduler onto a two-lane in-process backend.

use sparker_sched::{AggJob, EngineBackend, Fifo, JobRequest, SchedConfig, SchedError, Scheduler};

use crate::harness::{bits_equal, OpError, Phases, Workload};

const LANES: usize = 2;
const JOB_DIM: usize = 64;
const JOB_PARTS: usize = 2;
const WARMUP_JOBS_PER_CLIENT: u64 = 50;

pub struct SmallJobs {
    seed: u64,
    sched: Scheduler<EngineBackend>,
}

impl SmallJobs {
    /// Job `i` of `client`; jobs outside the timed window use indices from `1 << 30` up.
    fn job(&self, client: usize, i: u64) -> AggJob {
        AggJob {
            seed: self.seed ^ ((client as u64) << 32 | i),
            dim: JOB_DIM,
            parts: JOB_PARTS,
        }
    }
}

impl Workload for SmallJobs {
    type Output = Vec<f64>;
    /// Each job's expected sum is cheap enough to recompute per check.
    type Oracle = ();
    const NAME: &'static str = "small_jobs";
    const CLIENTS: usize = 2;

    fn setup(seed: u64) -> Self {
        let sched = Scheduler::new(
            EngineBackend::new(LANES, 2, 1),
            Box::new(Fifo),
            SchedConfig {
                capacity: 64,
                ..SchedConfig::default()
            },
        );
        let w = Self { seed, sched };
        for client in 0..Self::CLIENTS {
            for i in 0..WARMUP_JOBS_PER_CLIENT {
                if w.op(client, 1 << 31 | i).is_err() {
                    panic!("small_jobs: warm-up job failed");
                }
            }
        }
        w
    }

    fn oracle(&self) {}

    fn op(&self, client: usize, i: u64) -> Result<(Vec<f64>, Phases), OpError> {
        let handle = self
            .sched
            .submit(JobRequest::new(client as u32, self.job(client, i)))
            .map_err(|e| match e {
                SchedError::QueueFull { .. } | SchedError::PoolSaturated { .. } => {
                    OpError::Rejected(e.to_string())
                }
                other => OpError::Failed(other.to_string()),
            })?;
        let sum = handle.wait().map_err(|e| OpError::Failed(e.to_string()))?;
        Ok((sum, Phases::default()))
    }

    /// The scheduler's backend keeps `AggMetrics` to itself, and the
    /// `net.send.bytes` registry counter only counts while `sparker_obs`
    /// tracing is on. So after the timed window a few more jobs run with
    /// tracing on, and the counter's growth per job is the answer: every
    /// byte a job puts on an in-process transport.
    fn wire_bytes_per_op(&self) -> Option<f64> {
        const JOBS: u64 = 20;
        let sent = sparker_obs::metrics::counter("net.send.bytes");
        sparker_obs::trace::enable();
        let before = sent.get();
        let ran = (0..JOBS)
            .filter(|i| self.op(0, 1 << 30 | i).is_ok())
            .count();
        let bytes = sent.get() - before;
        sparker_obs::trace::disable();
        sparker_obs::trace::clear();
        (ran as u64 == JOBS).then(|| bytes as f64 / JOBS as f64)
    }

    fn check(&self, _oracle: &(), client: usize, i: u64, out: Vec<f64>) -> bool {
        bits_equal(&out, &EngineBackend::oracle(&self.job(client, i)))
    }
}
