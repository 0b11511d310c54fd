//! The scheduler core: bounded admission, policy-ordered dispatch, per-job
//! epoch namespaces, and frame-pool-aware backpressure.
//!
//! One worker thread per backend lane pulls jobs from the shared pending
//! queue under the policy's ordering and runs them to completion; clients
//! get a [`JobHandle`] at admission and wait on it for the typed result.
//! The normative admission state machine and backpressure law live in
//! DESIGN.md §5i; this module is their implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparker_net::pool;
use sparker_net::sync::{channel, Mutex, Receiver, RecvTimeoutError, Sender};
use sparker_obs::metrics::{self, Counter, Gauge, Histogram};
use sparker_obs::{trace, Layer};

use crate::backend::{Backend, JobCtx};
use crate::error::SchedError;
use crate::policy::{ClientId, JobMeta, Policy, Priority};

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Bounded admission queue: pending (not yet dispatched) jobs beyond
    /// this are rejected with [`SchedError::QueueFull`].
    pub capacity: usize,
    /// Admission backpressure: a [`Priority::Low`] submission is shed with
    /// [`SchedError::PoolSaturated`] while global frame-pool pressure
    /// ([`pool::FramePool::pressure_permille`]) is at or above this. The
    /// default (2000 = 2x one class's retention cap checked out) is above
    /// anything a healthy single job produces.
    pub shed_pressure_permille: u64,
    /// Dispatch backpressure: while pressure is at or above this, pending
    /// [`Priority::Low`] jobs are delayed (re-checked every few ms, never
    /// abandoned) whenever higher-priority work is waiting.
    pub delay_pressure_permille: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self { capacity: 64, shed_pressure_permille: 2000, delay_pressure_permille: 1200 }
    }
}

/// One admission request.
#[derive(Debug, Clone)]
pub struct JobRequest<J> {
    pub client: ClientId,
    pub priority: Priority,
    /// Relative cost for fair-share deficit accounting (1 = uniform).
    pub cost: u64,
    pub job: J,
}

impl<J> JobRequest<J> {
    /// A [`Priority::Normal`], cost-1 request.
    pub fn new(client: ClientId, job: J) -> Self {
        Self { client, priority: Priority::Normal, cost: 1, job }
    }
}

/// The submitter's end of an admitted job.
pub struct JobHandle<O> {
    /// Scheduler-assigned job id (monotonic from 1).
    pub job_id: u64,
    /// The epoch namespace the job runs under (unique among live jobs).
    pub epoch_ns: u32,
    rx: Receiver<Result<O, SchedError>>,
}

impl<O> std::fmt::Debug for JobHandle<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("job_id", &self.job_id)
            .field("epoch_ns", &self.epoch_ns)
            .finish_non_exhaustive()
    }
}

impl<O> JobHandle<O> {
    /// Blocks until the job completes (or the scheduler shuts down).
    pub fn wait(self) -> Result<O, SchedError> {
        self.rx.recv().map_err(|_| SchedError::Shutdown)?
    }

    /// Bounded wait; `None` means still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<O, SchedError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(SchedError::Shutdown)),
        }
    }
}

struct PendingJob<J, O> {
    meta: JobMeta,
    /// The job's live epoch namespace (released on completion).
    epoch_ns: u32,
    job: J,
    enqueued: Instant,
    tx: Sender<Result<O, SchedError>>,
}

struct State<B: Backend> {
    pending: Vec<PendingJob<B::Job, B::Output>>,
    policy: Box<dyn Policy>,
    /// Namespaces of live (admitted, not yet completed) jobs.
    live_ns: std::collections::HashSet<u32>,
    ns_cursor: u32,
    inflight: usize,
    shutdown: bool,
}

struct Shared<B: Backend> {
    backend: B,
    state: Mutex<State<B>>,
    cv: Condvar,
    cfg: SchedConfig,
    job_counter: AtomicU64,
    seq_counter: AtomicU64,
}

/// A running scheduler over backend `B`. Dropping it shuts down: pending
/// jobs fail with [`SchedError::Shutdown`], in-flight jobs finish, workers
/// join.
pub struct Scheduler<B: Backend> {
    shared: Arc<Shared<B>>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: Backend> Scheduler<B> {
    /// Spawns one worker per backend lane.
    ///
    /// Panics if `capacity + lanes + 1 >= NS_COUNT` — live jobs (pending +
    /// in-flight) must always fit in the namespace space with room to
    /// allocate, so admission can never fail on namespaces.
    pub fn new(backend: B, policy: Box<dyn Policy>, cfg: SchedConfig) -> Self {
        let lanes = backend.lanes();
        assert!(lanes >= 1, "backend must expose at least one lane");
        assert!(
            cfg.capacity + lanes + 1 < sparker_net::epoch::NS_COUNT as usize,
            "capacity {} + lanes {lanes} must leave free epoch namespaces (< {})",
            cfg.capacity,
            sparker_net::epoch::NS_COUNT
        );
        let shared = Arc::new(Shared {
            backend,
            state: Mutex::new(State {
                pending: Vec::new(),
                policy,
                live_ns: Default::default(),
                ns_cursor: 1,
                inflight: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg,
            job_counter: AtomicU64::new(0),
            seq_counter: AtomicU64::new(0),
        });
        let workers = (0..lanes)
            .map(|lane| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sched-worker-{lane}"))
                    .spawn(move || worker(shared, lane))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Admits a job or rejects it typed; never blocks on execution.
    ///
    /// Admission order (DESIGN.md §5i): shutdown check → queue bound
    /// ([`SchedError::QueueFull`]) → backpressure shed
    /// ([`SchedError::PoolSaturated`], low priority only) → namespace
    /// allocation (infallible by construction) → enqueue.
    pub fn submit(&self, req: JobRequest<B::Job>) -> Result<JobHandle<B::Output>, SchedError> {
        let pressure = pool::global().pressure_permille();
        let mut st = self.shared.state.lock();
        if st.shutdown {
            return Err(SchedError::Shutdown);
        }
        if st.pending.len() >= self.shared.cfg.capacity {
            obs().rejected_full.add(1);
            return Err(SchedError::QueueFull { capacity: self.shared.cfg.capacity });
        }
        if req.priority == Priority::Low && pressure >= self.shared.cfg.shed_pressure_permille {
            obs().rejected_pool.add(1);
            return Err(SchedError::PoolSaturated {
                pressure_permille: pressure,
                limit_permille: self.shared.cfg.shed_pressure_permille,
            });
        }
        let job_id = self.shared.job_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let seq = self.shared.seq_counter.fetch_add(1, Ordering::Relaxed);
        let epoch_ns = alloc_ns(&mut st);
        let (tx, rx) = channel();
        st.pending.push(PendingJob {
            meta: JobMeta { seq, job_id, client: req.client, priority: req.priority, cost: req.cost.max(1) },
            epoch_ns,
            job: req.job,
            enqueued: Instant::now(),
            tx,
        });
        obs().admitted.add(1);
        obs().queue_depth.set(st.pending.len() as i64);
        drop(st);
        self.shared.cv.notify_one();
        Ok(JobHandle { job_id, epoch_ns, rx })
    }

    /// Jobs currently executing on lanes.
    pub fn inflight(&self) -> usize {
        self.shared.state.lock().inflight
    }

    /// Epoch namespaces of live jobs, ascending — the property suite
    /// asserts these never collide and never contain the default 0.
    pub fn active_namespaces(&self) -> Vec<u32> {
        let mut ns: Vec<u32> = self.shared.state.lock().live_ns.iter().copied().collect();
        ns.sort_unstable();
        ns
    }

    /// The policy's name (for bench labels).
    pub fn policy_name(&self) -> &'static str {
        self.shared.state.lock().policy.name()
    }

    /// Stops admission, fails every pending job with
    /// [`SchedError::Shutdown`], and wakes the workers (they finish their
    /// in-flight job and exit). Idempotent; `Drop` calls it too.
    pub fn shutdown(&self) {
        let mut st = self.shared.state.lock();
        st.shutdown = true;
        for p in st.pending.drain(..) {
            let _ = p.tx.send(Err(SchedError::Shutdown));
        }
        // Pending namespaces stay in live_ns until process end; harmless
        // (shutdown is terminal for this scheduler).
        obs().queue_depth.set(0);
        drop(st);
        self.shared.cv.notify_all();
    }
}

impl<B: Backend> Drop for Scheduler<B> {
    fn drop(&mut self) {
        self.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Allocates a free namespace in `1..NS_COUNT`, rotating a cursor so
/// recently-freed namespaces are not immediately reused (stale frames from a
/// finished job age out of the mesh before its namespace comes around
/// again). Infallible: `Scheduler::new` caps live jobs below `NS_COUNT - 1`.
fn alloc_ns<B: Backend>(st: &mut State<B>) -> u32 {
    let span = sparker_net::epoch::NS_COUNT - 1; // namespaces 1..NS_COUNT
    for _ in 0..span {
        let ns = st.ns_cursor;
        st.ns_cursor = if st.ns_cursor >= sparker_net::epoch::NS_COUNT - 1 { 1 } else { st.ns_cursor + 1 };
        if st.live_ns.insert(ns) {
            return ns;
        }
    }
    unreachable!("live jobs are bounded below the namespace count")
}

fn worker<B: Backend>(shared: Arc<Shared<B>>, lane: usize) {
    loop {
        // --- pick one job under the lock ---------------------------------
        let picked = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if !st.pending.is_empty() {
                    let pressure = pool::global().pressure_permille();
                    let delay_low = pressure >= shared.cfg.delay_pressure_permille;
                    let any_non_low =
                        st.pending.iter().any(|p| p.meta.priority > Priority::Low);
                    if delay_low && !any_non_low {
                        // Only low-priority work while the pool is hot:
                        // delay (bounded tick, then re-check pressure) —
                        // delayed, never abandoned.
                        let (g, _) = shared
                            .cv
                            .wait_timeout(st, Duration::from_millis(2))
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        st = g;
                        continue;
                    }
                    // Eligible view: everything, or non-Low under pressure.
                    let eligible: Vec<usize> = if delay_low {
                        (0..st.pending.len())
                            .filter(|&i| st.pending[i].meta.priority > Priority::Low)
                            .collect()
                    } else {
                        (0..st.pending.len()).collect()
                    };
                    let metas: Vec<JobMeta> =
                        eligible.iter().map(|&i| st.pending[i].meta).collect();
                    let choice = st.policy.select(&metas);
                    debug_assert!(choice < metas.len(), "policy index in range");
                    let idx = eligible[choice.min(metas.len() - 1)];
                    let p = st.pending.remove(idx);
                    st.inflight += 1;
                    obs().queue_depth.set(st.pending.len() as i64);
                    obs().inflight.set(st.inflight as i64);
                    break p;
                }
                let (g, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = g;
            }
        };
        let p = picked;

        // --- run it outside the lock -------------------------------------
        obs().queue_wait_us.observe(p.enqueued.elapsed().as_micros() as u64);
        let mut span = trace::span(Layer::Driver, "sched.job");
        span.arg("job", p.meta.job_id)
            .arg("client", p.meta.client as u64)
            .arg("ns", p.epoch_ns as u64);
        let started = Instant::now();
        let out = shared
            .backend
            .run(lane, JobCtx { job_id: p.meta.job_id, epoch_ns: p.epoch_ns }, &p.job);
        obs().service_us.observe(started.elapsed().as_micros() as u64);
        obs().latency_us.observe(p.enqueued.elapsed().as_micros() as u64);
        drop(span);

        // --- release the namespace, report -------------------------------
        {
            let mut st = shared.state.lock();
            st.live_ns.remove(&p.epoch_ns);
            st.inflight -= 1;
            obs().inflight.set(st.inflight as i64);
        }
        match out {
            Ok(v) => {
                obs().completed.add(1);
                let _ = p.tx.send(Ok(v));
            }
            Err(reason) => {
                obs().failed.add(1);
                let _ = p.tx.send(Err(SchedError::TaskFailed { job: p.meta.job_id, reason }));
            }
        }
    }
}

/// Cached `sched.*` metric handles (one registry lookup per process).
struct Obs {
    admitted: Arc<Counter>,
    rejected_full: Arc<Counter>,
    rejected_pool: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
    service_us: Arc<Histogram>,
    latency_us: Arc<Histogram>,
}

fn obs() -> &'static Obs {
    static OBS: OnceLock<Obs> = OnceLock::new();
    OBS.get_or_init(|| Obs {
        admitted: metrics::counter("sched.admitted"),
        rejected_full: metrics::counter("sched.rejected.queue_full"),
        rejected_pool: metrics::counter("sched.rejected.backpressure"),
        completed: metrics::counter("sched.completed"),
        failed: metrics::counter("sched.failed"),
        queue_depth: metrics::gauge("sched.queue_depth"),
        inflight: metrics::gauge("sched.inflight"),
        queue_wait_us: metrics::histogram("sched.queue_wait_us"),
        service_us: metrics::histogram("sched.service_us"),
        latency_us: metrics::histogram("sched.latency_us"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FairShare, Fifo, StrictPriority};

    /// Doubles the input; errors on odd jobs when `fail_odd` is set.
    struct TestBackend {
        lanes: usize,
        fail_odd: bool,
    }

    impl Backend for TestBackend {
        type Job = u64;
        type Output = u64;

        fn lanes(&self) -> usize {
            self.lanes
        }

        fn run(&self, _lane: usize, _ctx: JobCtx, job: &u64) -> Result<u64, String> {
            if self.fail_odd && job % 2 == 1 {
                Err(format!("odd job {job}"))
            } else {
                Ok(job * 2)
            }
        }
    }

    /// Holds every dispatched job until the gate opens, so tests can pin
    /// jobs in the in-flight/pending states deterministically. Records the
    /// order in which jobs reach the (single) lane.
    struct GateBackend {
        gate: std::sync::Mutex<bool>,
        cv: Condvar,
        dispatched: std::sync::Mutex<Vec<u64>>,
    }

    impl GateBackend {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                gate: std::sync::Mutex::new(false),
                cv: Condvar::new(),
                dispatched: std::sync::Mutex::new(Vec::new()),
            })
        }

        fn open(&self) {
            *self.gate.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }

    impl Backend for Arc<GateBackend> {
        type Job = u64;
        type Output = u64;

        fn lanes(&self) -> usize {
            1
        }

        fn run(&self, _lane: usize, _ctx: JobCtx, job: &u64) -> Result<u64, String> {
            self.dispatched.lock().unwrap().push(*job);
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            Ok(*job)
        }
    }

    fn wait_until<F: Fn() -> bool>(what: &str, f: F) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !f() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn jobs_complete_with_results() {
        let sched = Scheduler::new(
            TestBackend { lanes: 2, fail_odd: false },
            Box::new(Fifo),
            SchedConfig::default(),
        );
        let handles: Vec<_> = (0..16)
            .map(|j| sched.submit(JobRequest::new(0, j)).expect("admitted"))
            .collect();
        for (j, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait().expect("job runs"), j as u64 * 2);
        }
    }

    #[test]
    fn backend_error_becomes_typed_task_failed() {
        let sched = Scheduler::new(
            TestBackend { lanes: 1, fail_odd: true },
            Box::new(Fifo),
            SchedConfig::default(),
        );
        let h = sched.submit(JobRequest::new(0, 7)).expect("admitted");
        let job_id = h.job_id;
        match h.wait() {
            Err(SchedError::TaskFailed { job, reason }) => {
                assert_eq!(job, job_id);
                assert!(reason.contains("odd job 7"), "{reason}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        let ok = sched.submit(JobRequest::new(0, 8)).expect("admitted");
        assert_eq!(ok.wait().expect("even job runs"), 16);
    }

    #[test]
    fn queue_full_rejects_typed_and_recovers() {
        let gate = GateBackend::new();
        let cfg = SchedConfig { capacity: 2, ..SchedConfig::default() };
        let sched = Scheduler::new(gate.clone(), Box::new(Fifo), cfg);
        // First job dispatches (blocks on the gate); two more fill the queue.
        let h0 = sched.submit(JobRequest::new(0, 10)).expect("dispatched");
        wait_until("first job in flight", || sched.inflight() == 1);
        let h1 = sched.submit(JobRequest::new(0, 11)).expect("queued");
        let h2 = sched.submit(JobRequest::new(0, 12)).expect("queued");
        match sched.submit(JobRequest::new(0, 13)) {
            Err(SchedError::QueueFull { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        gate.open();
        // Rejection is not sticky: the queue drains and admits again.
        assert_eq!(h0.wait().expect("runs"), 10);
        assert_eq!(h1.wait().expect("runs"), 11);
        assert_eq!(h2.wait().expect("runs"), 12);
        let h3 = sched.submit(JobRequest::new(0, 13)).expect("space again");
        assert_eq!(h3.wait().expect("runs"), 13);
    }

    /// How many of a bursty adversary's 12 queued expensive jobs reach the
    /// lane before a victim's single cheap job submitted behind them.
    fn adversary_jobs_ahead_of_victim(policy: Box<dyn Policy>, victim: Priority) -> usize {
        const VICTIM: u64 = 999;
        let gate = GateBackend::new();
        let sched = Scheduler::new(gate.clone(), policy, SchedConfig::default());
        // One adversary job occupies the lane while the queue builds up.
        let plug = sched.submit(JobRequest::new(0, 0)).expect("dispatched");
        wait_until("plug in flight", || sched.inflight() == 1);
        let mut handles: Vec<_> = (1..=12)
            .map(|job| {
                let req = JobRequest { client: 0, priority: Priority::Normal, cost: 8, job };
                sched.submit(req).expect("adversary queued")
            })
            .collect();
        let req = JobRequest { client: 1, priority: victim, cost: 1, job: VICTIM };
        handles.push(sched.submit(req).expect("victim queued"));
        gate.open();
        plug.wait().expect("runs");
        for h in handles {
            h.wait().expect("runs");
        }
        let order = gate.dispatched.lock().unwrap();
        order.iter().position(|j| *j == VICTIM).expect("victim ran") - 1
    }

    #[test]
    fn fair_share_and_strict_priority_bound_the_victim_fifo_does_not() {
        assert_eq!(
            adversary_jobs_ahead_of_victim(Box::new(Fifo), Priority::Normal),
            12,
            "FIFO leaves the victim behind the whole burst"
        );
        let fair = adversary_jobs_ahead_of_victim(Box::new(FairShare::new(8)), Priority::Normal);
        assert!(fair <= 1, "fair-share lets at most one adversary job ahead, got {fair}");
        assert_eq!(
            adversary_jobs_ahead_of_victim(Box::new(StrictPriority), Priority::High),
            0,
            "a High victim overtakes every queued Normal job"
        );
    }

    #[test]
    fn low_priority_is_shed_while_the_pool_is_saturated_and_admits_after_release() {
        // 2x one class's retention cap checked out of the global pool is the
        // default shed threshold. No other test in this binary submits Low.
        let g = pool::global();
        let held: Vec<Vec<u8>> = (0..64).map(|_| g.acquire(64)).collect();
        let sched = Scheduler::new(
            TestBackend { lanes: 1, fail_odd: false },
            Box::new(Fifo),
            SchedConfig::default(),
        );
        let low = JobRequest { client: 0, priority: Priority::Low, cost: 1, job: 4 };
        match sched.submit(low.clone()) {
            Err(SchedError::PoolSaturated { pressure_permille, limit_permille }) => {
                assert!(pressure_permille >= limit_permille);
            }
            other => panic!("expected PoolSaturated, got {other:?}"),
        }
        // Shedding is by priority: the same job at Normal is admitted.
        assert_eq!(sched.submit(JobRequest::new(0, 4)).expect("admitted").wait(), Ok(8));
        for buf in held {
            g.recycle_vec(buf);
        }
        assert_eq!(sched.submit(low).expect("admits after release").wait(), Ok(8));
    }

    #[test]
    fn live_jobs_hold_distinct_nonzero_namespaces() {
        let gate = GateBackend::new();
        let cfg = SchedConfig { capacity: 8, ..SchedConfig::default() };
        let sched = Scheduler::new(gate.clone(), Box::new(Fifo), cfg);
        let handles: Vec<_> = (0..6)
            .map(|j| sched.submit(JobRequest::new(j as u32, j)).expect("admitted"))
            .collect();
        let ns = sched.active_namespaces();
        assert_eq!(ns.len(), 6, "every live job holds a namespace");
        for w in ns.windows(2) {
            assert_ne!(w[0], w[1], "namespaces are distinct");
        }
        for (h, n) in handles.iter().zip(&ns) {
            assert!(h.epoch_ns >= 1 && h.epoch_ns < sparker_net::epoch::NS_COUNT);
            assert!(*n >= 1 && *n < sparker_net::epoch::NS_COUNT);
            let _ = h;
        }
        gate.open();
        for h in handles {
            h.wait().expect("runs");
        }
        wait_until("namespaces released", || sched.active_namespaces().is_empty());
    }

    #[test]
    fn shutdown_fails_pending_jobs_typed() {
        let gate = GateBackend::new();
        let sched = Scheduler::new(gate.clone(), Box::new(Fifo), SchedConfig::default());
        let h0 = sched.submit(JobRequest::new(0, 1)).expect("dispatched");
        wait_until("first job in flight", || sched.inflight() == 1);
        let h1 = sched.submit(JobRequest::new(0, 2)).expect("queued");
        sched.shutdown();
        assert_eq!(h1.wait(), Err(SchedError::Shutdown), "pending job fails typed");
        match sched.submit(JobRequest::new(0, 3)) {
            Err(SchedError::Shutdown) => {}
            Ok(_) => panic!("admission after shutdown must fail"),
            Err(other) => panic!("expected Shutdown, got {other}"),
        }
        gate.open();
        assert_eq!(h0.wait().expect("in-flight job still finishes"), 1);
    }
}
