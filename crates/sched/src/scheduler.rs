//! The scheduler core: bounded admission, FIFO dispatch and per-job epoch
//! namespaces.
//!
//! One worker thread per backend lane pops jobs from the shared pending
//! queue in admission order and runs them to completion; clients get a
//! [`JobHandle`] at admission and wait on it for the typed result. The
//! normative admission state machine lives in DESIGN.md §5i; this module is
//! its implementation.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use sparker_net::sync::{channel, Mutex, Receiver, Sender};
use sparker_obs::metrics::{self, Counter, Gauge, Histogram};
use sparker_obs::{trace, Layer};

use crate::backend::{Backend, JobCtx};
use crate::error::SchedError;

/// Opaque client identity; it labels the `sched.job` span.
pub type ClientId = u32;

/// The one dispatch order: first in, first out. A unit type so the
/// constructor's `Box<Fifo>` argument names it.
#[derive(Debug, Default)]
pub struct Fifo;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Bounded admission queue: pending (not yet dispatched) jobs beyond
    /// this are rejected with [`SchedError::QueueFull`].
    pub capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self { capacity: 64 }
    }
}

/// One admission request.
#[derive(Debug, Clone)]
pub struct JobRequest<J> {
    pub client: ClientId,
    pub job: J,
}

impl<J> JobRequest<J> {
    pub fn new(client: ClientId, job: J) -> Self {
        Self { client, job }
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
}

struct PendingJob<J, O> {
    job_id: u64,
    client: ClientId,
    /// The job's live epoch namespace (released on completion).
    epoch_ns: u32,
    job: J,
    enqueued: Instant,
    tx: Sender<Result<O, SchedError>>,
}

struct State<B: Backend> {
    pending: VecDeque<PendingJob<B::Job, B::Output>>,
    /// Namespaces of live (admitted, not yet completed) jobs.
    live_ns: HashSet<u32>,
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
}

/// A running scheduler over backend `B`. Dropping it shuts down: pending
/// jobs fail with [`SchedError::Shutdown`], in-flight jobs finish, workers
/// join.
pub struct Scheduler<B: Backend> {
    shared: Arc<Shared<B>>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: Backend> Scheduler<B> {
    /// Spawns one worker per backend lane. Jobs dispatch in admission
    /// order; `_order` only names that.
    ///
    /// Panics if `capacity + lanes + 1 >= NS_COUNT` — live jobs (pending +
    /// in-flight) must always fit in the namespace space with room to
    /// allocate, so admission can never fail on namespaces.
    #[allow(
        clippy::boxed_local,
        reason = "the frozen benchmark calls `Scheduler::new(backend, Box::new(Fifo), cfg)`"
    )]
    pub fn new(backend: B, _order: Box<Fifo>, cfg: SchedConfig) -> Self {
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
                pending: VecDeque::new(),
                live_ns: HashSet::new(),
                ns_cursor: 1,
                inflight: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg,
            job_counter: AtomicU64::new(0),
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
    /// ([`SchedError::QueueFull`]) → namespace allocation (infallible by
    /// construction) → enqueue.
    pub fn submit(&self, req: JobRequest<B::Job>) -> Result<JobHandle<B::Output>, SchedError> {
        let mut st = self.shared.state.lock();
        if st.shutdown {
            return Err(SchedError::Shutdown);
        }
        if st.pending.len() >= self.shared.cfg.capacity {
            obs().rejected_full.add(1);
            return Err(SchedError::QueueFull { capacity: self.shared.cfg.capacity });
        }
        let job_id = self.shared.job_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let epoch_ns = alloc_ns(&mut st);
        let (tx, rx) = channel();
        st.pending.push_back(PendingJob {
            job_id,
            client: req.client,
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
        // --- take the oldest pending job under the lock ------------------
        // `submit` notifies after every push and `shutdown` notifies all,
        // and both predicates are checked under the lock, so an untimed
        // wait misses no wake-up.
        let p = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(p) = st.pending.pop_front() {
                    st.inflight += 1;
                    obs().queue_depth.set(st.pending.len() as i64);
                    obs().inflight.set(st.inflight as i64);
                    break p;
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };

        // --- run it outside the lock -------------------------------------
        obs().queue_wait_us.observe(p.enqueued.elapsed().as_micros() as u64);
        let mut span = trace::span(Layer::Driver, "sched.job");
        span.arg("job", p.job_id).arg("client", p.client as u64).arg("ns", p.epoch_ns as u64);
        let started = Instant::now();
        let ctx = JobCtx { job_id: p.job_id, epoch_ns: p.epoch_ns };
        let out = shared.backend.run(lane, ctx, &p.job);
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
                let _ = p.tx.send(Err(SchedError::TaskFailed { job: p.job_id, reason }));
            }
        }
    }
}

/// Cached `sched.*` metric handles (one registry lookup per process).
struct Obs {
    admitted: Arc<Counter>,
    rejected_full: Arc<Counter>,
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
    use std::time::Duration;

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
        /// The one job that fails once the gate opens, if any.
        failing: Option<u64>,
    }

    impl GateBackend {
        fn new() -> Arc<Self> {
            Self::with_failing(None)
        }

        fn with_failing(failing: Option<u64>) -> Arc<Self> {
            Arc::new(Self {
                gate: std::sync::Mutex::new(false),
                cv: Condvar::new(),
                dispatched: std::sync::Mutex::new(Vec::new()),
                failing,
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
            if self.failing == Some(*job) {
                return Err(format!("job {job} failed"));
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

    /// DESIGN.md §5i invariant 3: a failing job fails alone and typed, and
    /// the jobs queued behind it complete, in admission order.
    #[test]
    fn failing_job_fails_alone_and_the_jobs_queued_behind_it_complete() {
        let gate = GateBackend::with_failing(Some(20));
        let sched = Scheduler::new(gate.clone(), Box::new(Fifo), SchedConfig::default());
        let doomed = sched.submit(JobRequest::new(0, 20)).expect("dispatched");
        wait_until("failing job in flight", || sched.inflight() == 1);
        let h1 = sched.submit(JobRequest::new(1, 21)).expect("queued");
        let h2 = sched.submit(JobRequest::new(2, 22)).expect("queued");
        let doomed_id = doomed.job_id;
        gate.open();
        match doomed.wait() {
            Err(SchedError::TaskFailed { job, reason }) => {
                assert_eq!(job, doomed_id, "the failure names the failing job");
                assert!(reason.contains("job 20 failed"), "{reason}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        assert_eq!(h1.wait().expect("first queued job completes"), 21);
        assert_eq!(h2.wait().expect("second queued job completes"), 22);
        assert_eq!(*gate.dispatched.lock().unwrap(), vec![20, 21, 22], "admission order");
    }

    #[test]
    fn queue_full_rejects_typed_and_recovers() {
        let gate = GateBackend::new();
        let sched = Scheduler::new(gate.clone(), Box::new(Fifo), SchedConfig { capacity: 2 });
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

    #[test]
    fn dispatch_follows_admission_order_across_clients() {
        let gate = GateBackend::new();
        let sched = Scheduler::new(gate.clone(), Box::new(Fifo), SchedConfig::default());
        // A plug job holds the one lane while three clients queue 12 jobs.
        let plug = sched.submit(JobRequest::new(0, 0)).expect("dispatched");
        wait_until("plug in flight", || sched.inflight() == 1);
        let handles: Vec<_> = (1..=12u64)
            .map(|job| sched.submit(JobRequest::new((job % 3) as u32, job)).expect("queued"))
            .collect();
        gate.open();
        plug.wait().expect("runs");
        for h in handles {
            h.wait().expect("runs");
        }
        let admitted: Vec<u64> = (0..=12).collect();
        assert_eq!(*gate.dispatched.lock().unwrap(), admitted, "dispatch order is admission order");
    }

    #[test]
    fn live_jobs_hold_distinct_nonzero_namespaces() {
        let gate = GateBackend::new();
        let sched = Scheduler::new(gate.clone(), Box::new(Fifo), SchedConfig { capacity: 8 });
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
