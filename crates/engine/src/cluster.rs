//! The local cluster: driver + thread-backed executors.
//!
//! [`LocalCluster`] stands in for a Spark deployment. Each executor is a
//! pool of `cores_per_executor` worker threads consuming a FIFO task queue;
//! the driver (the thread calling into the engine) turns actions into
//! stages, schedules tasks onto executors, and recovers from failures. Two
//! transports connect everything, mirroring Figure 9:
//!
//! * the **BlockManager-class** (BM) mesh carries what stock Spark carries —
//!   serialized task results to the driver, tree-aggregation shuffle blocks
//!   and broadcast copies;
//! * the **scalable communicator** (the paper's JeroMQ-based addition)
//!   carries ring reduce-scatter traffic over the parallel directed ring.
//!
//! Both are in-process [`MeshTransport`]s labelled by their
//! [`TransportKind`], so a trace tells `bm.*` hops from `sc.*` hops. The
//! driver occupies its own node, so driver-bound traffic counts as
//! inter-node in the mesh statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sparker_net::ByteBuf;
use sparker_net::sync::{channel, Mutex, Receiver, Sender};

use sparker_net::error::NetError;
use sparker_net::fault::FaultyTransport;
use sparker_net::profile::TransportKind;
use sparker_net::topology::{round_robin_layout, ExecutorId, ExecutorInfo, RingTopology};
use sparker_net::transport::{MeshTransport, NetStatsSnapshot, Transport};

use sparker_collectives::comm::RingComm;

use crate::blockstore::BlockStore;
use crate::config::ClusterSpec;
use crate::history::History;
use crate::objects::MutableObjectManager;
use crate::rdd::TaskContext;
use crate::task::{EngineError, EngineResult, FaultPlan, TaskFailure};

/// Channels provisioned on the scalable-communicator mesh; PDR parallelism
/// sweeps (Figure 14) go up to 8.
pub const SC_CHANNELS: usize = 8;

type Job = Box<dyn FnOnce(&TaskContext) + Send>;

struct ExecutorHandle {
    /// Behind a mutex so [`LocalCluster::kill_executor`] can swap in a
    /// closed sender, simulating a lost executor.
    queue: Mutex<Sender<Job>>,
    ctx: TaskContext,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Failure recovery policy of a stage (see [`crate::task`]).
pub enum RecoveryPolicy {
    /// Tasks are independent: re-run just the failed task.
    RetryTask,
    /// Tasks share per-executor state under operation `op`: clear that
    /// state everywhere and resubmit the whole stage.
    ResubmitStage { op: u64 },
    /// Tasks are a gang coupled through in-flight collective traffic (ring
    /// reduce-scatter): any failure cancels the peers via the op's shared
    /// token, drains both transports once every task has stopped, bumps the
    /// epoch, and resubmits the whole stage. Unlike [`ResubmitStage`] the
    /// per-executor inputs are *not* cleared — gang stages read them
    /// non-destructively, and the poison lives only in in-flight frames.
    ResubmitGang { op: u64 },
}

/// Shared cluster state; `LocalCluster` is a cheap handle around it.
pub struct ClusterInner {
    spec: ClusterSpec,
    infos: Vec<ExecutorInfo>,
    driver: ExecutorId,
    sc: Arc<MeshTransport>,
    /// The scalable communicator as collectives see it: the raw mesh, or the
    /// mesh behind a [`FaultyTransport`] when the spec injects faults.
    sc_dyn: Arc<dyn Transport>,
    /// The BM mesh: task results, tree shuffle and broadcast.
    bm: Arc<MeshTransport>,
    executors: Vec<ExecutorHandle>,
    fault_plan: Arc<FaultPlan>,
    op_counter: AtomicU64,
    /// Shared cancel token per collective op: set on gang failure so peers
    /// abort their fenced receives instead of waiting out the deadline.
    gang_cancel: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    /// Serializes driver-side actions: result frames from different
    /// operations share the per-executor→driver streams, so interleaved
    /// actions would steal each other's frames. Spark's driver similarly
    /// serializes result handling per job.
    action_guard: Mutex<()>,
    /// Per-stage event log (the engine's Spark history log).
    history: History,
}

/// A local, in-process cluster. Clone-cheap handle.
#[derive(Clone)]
pub struct LocalCluster {
    inner: Arc<ClusterInner>,
}

impl LocalCluster {
    /// Boots a cluster per `spec`: spawns all executor worker threads and
    /// wires up both transports.
    pub fn new(spec: ClusterSpec) -> Self {
        let n = spec.num_executors();
        assert!(n >= 1);
        assert!(
            spec.ring_parallelism <= SC_CHANNELS,
            "ring parallelism capped at {SC_CHANNELS}"
        );
        let infos = round_robin_layout(spec.nodes, spec.executors_per_node, spec.cores_per_executor);
        // The driver lives on its own node, like a dedicated master host.
        let driver = ExecutorId(n as u32);
        let mut all = infos.clone();
        all.push(ExecutorInfo {
            id: driver,
            host: "zz-driver".to_string(),
            node: spec.nodes,
            cores: 1,
        });
        let sc = MeshTransport::new(&all, SC_CHANNELS, TransportKind::ScalableComm);
        let bm = MeshTransport::new(&all, 1, TransportKind::BlockManager);
        let sc_dyn: Arc<dyn Transport> = match &spec.sc_fault {
            Some(plan) => FaultyTransport::new(sc.clone(), (**plan).clone()),
            None => sc.clone(),
        };

        let executors = infos.iter().map(spawn_executor).collect();

        LocalCluster {
            inner: Arc::new(ClusterInner {
                spec,
                infos,
                driver,
                sc,
                sc_dyn,
                bm,
                executors,
                fault_plan: Arc::new(FaultPlan::new()),
                op_counter: AtomicU64::new(1),
                gang_cancel: Mutex::new(HashMap::new()),
                action_guard: Mutex::new(()),
                history: History::new(),
            }),
        }
    }

    pub(crate) fn inner(&self) -> &Arc<ClusterInner> {
        &self.inner
    }

    /// The cluster's configuration.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// Number of executors.
    pub fn num_executors(&self) -> usize {
        self.inner.infos.len()
    }

    /// Deterministic fault injection hooks (tests).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.inner.fault_plan
    }

    /// Traffic counters of the scalable communicator.
    pub fn sc_stats(&self) -> NetStatsSnapshot {
        self.inner.sc.stats()
    }

    /// Direct access to an executor's mutable object manager (diagnostics
    /// and tests; tasks reach it through their [`TaskContext`]).
    pub fn executor_objects(&self, id: ExecutorId) -> Arc<MutableObjectManager> {
        self.inner.executor_ctx(id).objects.clone()
    }

    /// The cluster's stage history log (the paper's analysis substrate).
    pub fn history(&self) -> &History {
        &self.inner.history
    }

    /// Simulates losing an executor: its task queue is closed, so queued
    /// jobs drain, worker threads exit, and every later submission to it
    /// fails through the normal recovery path (never a driver panic).
    pub fn kill_executor(&self, id: ExecutorId) {
        let (closed, _) = channel();
        *self.inner.executors[id.index()].queue.lock() = closed;
    }
}

fn spawn_executor(info: &ExecutorInfo) -> ExecutorHandle {
    let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
    let ctx = TaskContext {
        executor: info.id,
        blocks: Arc::new(BlockStore::new()),
        objects: Arc::new(MutableObjectManager::new()),
    };
    let workers = (0..info.cores)
        .map(|w| {
            let rx = rx.clone();
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name(format!("{}-core{}", info.id, w))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        crate::rdd::with_task_context(&ctx, || job(&ctx));
                    }
                })
                .expect("spawn executor worker")
        })
        .collect();
    ExecutorHandle { queue: Mutex::new(tx), ctx, workers }
}

impl Drop for ClusterInner {
    fn drop(&mut self) {
        // Close queues, then join workers so no threads outlive the cluster.
        for h in &mut self.executors {
            let (closed, _) = channel();
            *h.queue.lock() = closed; // drop the live sender
        }
        // Task closures may hold cluster refs, so the last `Arc<ClusterInner>`
        // can drop on an executor worker itself; joining that thread from its
        // own drop would self-deadlock (EDEADLK). Detach it instead — with
        // its queue closed it exits as soon as this drop returns.
        let me = std::thread::current().id();
        for h in &mut self.executors {
            for w in h.workers.drain(..) {
                if w.thread().id() != me {
                    let _ = w.join();
                }
            }
        }
    }
}

impl ClusterInner {
    /// Allocates a fresh operation id (namespaces shared objects).
    pub fn next_op(&self) -> u64 {
        self.op_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Takes the driver action lock. Every op (collect, aggregate, ...)
    /// holds this across its stages and result fetches; no op takes it
    /// while holding it.
    pub fn lock_action(&self) -> std::sync::MutexGuard<'_, ()> {
        self.action_guard.lock()
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn num_executors(&self) -> usize {
        self.infos.len()
    }

    pub fn driver_id(&self) -> ExecutorId {
        self.driver
    }

    pub fn executor_infos(&self) -> &[ExecutorInfo] {
        &self.infos
    }

    /// The executor-local context (driver-side access for cleanup/tests).
    pub fn executor_ctx(&self, id: ExecutorId) -> &TaskContext {
        &self.executors[id.index()].ctx
    }

    /// The cluster's stage history (ops record op-phase spans under its
    /// trace scope so driver phases and stages share one timeline).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Builds the PDR ring over the executors with `parallelism` channels.
    pub fn build_ring(&self, parallelism: usize) -> Arc<RingTopology> {
        assert!((1..=SC_CHANNELS).contains(&parallelism));
        Arc::new(RingTopology::new(
            self.infos.clone(),
            self.spec.ring_order,
            parallelism,
        ))
    }

    /// Binds the scalable communicator to `executor`'s rank in `ring`
    /// (epoch `(0, 0)`, no cancellation — diagnostics and tests).
    pub fn ring_comm(&self, ring: &Arc<RingTopology>, executor: ExecutorId) -> RingComm {
        let rank = ring.rank_of(executor);
        RingComm::new(self.sc_dyn.clone(), ring.clone(), rank)
    }

    /// Binds the scalable communicator for one gang task of collective
    /// `(op, attempt)`: frames are fenced to that epoch, receives abort on
    /// the op's shared cancel token, and every receive is bounded by the
    /// spec's collective deadline.
    pub fn collective_comm(
        &self,
        ring: &Arc<RingTopology>,
        executor: ExecutorId,
        op: u64,
        attempt: u32,
    ) -> RingComm {
        let rank = ring.rank_of(executor);
        RingComm::new(self.sc_dyn.clone(), ring.clone(), rank)
            .with_epoch(op, attempt)
            .with_cancel(self.gang_token(op))
            .with_recv_deadline(self.spec.collective_recv_timeout)
    }

    /// The shared cancel token of collective `op` (created on first use).
    fn gang_token(&self, op: u64) -> Arc<AtomicBool> {
        self.gang_cancel
            .lock()
            .entry(op)
            .or_insert_with(|| Arc::new(AtomicBool::new(false)))
            .clone()
    }

    /// Sends a serialized payload from an executor to another executor over
    /// the BM mesh.
    pub fn bm_send(
        &self,
        from: ExecutorId,
        to: ExecutorId,
        frame: ByteBuf,
    ) -> Result<(), TaskFailure> {
        self.bm.send(from, to, 0, frame).map_err(TaskFailure::from)
    }

    /// Sends a serialized task result to the driver (BlockManager path).
    pub fn bm_send_to_driver(&self, from: ExecutorId, frame: ByteBuf) -> Result<(), TaskFailure> {
        self.bm_send(from, self.driver, frame)
    }

    /// Ships an already-serialized frame from the driver to an executor
    /// (broadcast replicates one encoded copy).
    pub fn bm_send_raw_from_driver(&self, to: ExecutorId, frame: ByteBuf) -> EngineResult<()> {
        self.bm.send(self.driver, to, 0, frame).map_err(EngineError::from)
    }

    /// Executor-side receive on the BM mesh.
    pub fn bm_recv(&self, at: ExecutorId, from: ExecutorId) -> Result<ByteBuf, TaskFailure> {
        self.bm.recv(at, from, 0).map_err(TaskFailure::from)
    }

    /// Driver-side receive of a task result frame sent by `from`.
    pub fn driver_recv(&self, from: ExecutorId) -> EngineResult<ByteBuf> {
        self.bm
            .recv_timeout(self.driver, from, 0, self.spec.stage_timeout)
            .map_err(EngineError::from)
    }

    /// Runs one stage: `assignments[i]` is the executor of task `i`, `make`
    /// produces each task's body from `(task index, attempt, context)`.
    /// Returns per-task results in task order.
    ///
    /// `make` may be invoked multiple times per task (retries /
    /// resubmissions); the attempt number is what fault injection keys on,
    /// and what gang tasks stamp on their collective frames.
    pub fn run_stage<R, F>(
        self: &Arc<Self>,
        label: &str,
        assignments: &[ExecutorId],
        make: F,
        policy: RecoveryPolicy,
    ) -> EngineResult<(Vec<R>, u32)>
    where
        R: Send + 'static,
        F: Fn(usize, u32, &TaskContext) -> Result<R, TaskFailure> + Send + Sync + 'static,
    {
        let n = assignments.len();
        if n == 0 {
            return Ok((Vec::new(), 0));
        }
        // The stage span doubles as the stage stopwatch and the History
        // record: finishing it writes the Stage-layer span the history view
        // (and the Fig 2 exporters) derive from. An error return drops it
        // unfinished — failed stages are not logged, as before.
        let stage_span = sparker_obs::trace::ScopedSpan::begin(
            self.history.scope(),
            sparker_obs::Layer::Stage,
            label,
        );
        let stage_span_id = stage_span.id();
        let make = Arc::new(make);
        let (tx, rx) = channel::<(usize, Result<R, TaskFailure>)>();

        let fail_tx = tx.clone();
        let submit = |idx: usize, attempt: u32| {
            let make = make.clone();
            let tx = tx.clone();
            let label = label.to_string();
            let armed = self.fault_plan.is_armed();
            // Jobs must never capture the cluster itself: an executor thread
            // dropping the last `Arc<ClusterInner>` would make `drop` join
            // the very thread it is running on (EDEADLK). The fault plan is
            // the only cluster state a task consults, so capture just that.
            let fault_plan = self.fault_plan.clone();
            let job: Job = Box::new(move |ctx| {
                // Gated per-attempt task span, parented to the driver's
                // stage span across the executor-thread boundary.
                let mut task_span = sparker_obs::trace::span_with_parent(
                    sparker_obs::Layer::Task,
                    label.as_str(),
                    stage_span_id,
                );
                task_span
                    .arg("task", idx as u64)
                    .arg("attempt", attempt as u64)
                    .arg("executor", ctx.executor.0 as u64);
                let result = if armed && fault_plan.should_fail(&label, idx, attempt) {
                    Err(TaskFailure { reason: format!("injected fault (attempt {attempt})") })
                } else {
                    make(idx, attempt, ctx)
                };
                drop(task_span);
                let _ = tx.send((idx, result));
            });
            let executor = assignments[idx];
            // A dead executor (closed queue) is a lost task, not a driver
            // panic: report it through the result channel so the stage's
            // recovery policy decides what happens next.
            if self.executors[executor.index()].queue.lock().send(job).is_err() {
                let _ = fail_tx.send((
                    idx,
                    Err(TaskFailure { reason: format!("executor {executor} is dead (queue closed)") }),
                ));
            }
        };

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut task_attempts: Vec<u32> = vec![0; n];
        let mut total_attempts: u32 = n as u32;
        let mut stage_attempt: u32 = 0;

        for idx in 0..n {
            submit(idx, 0);
        }
        let mut inflight = n;
        let mut completed = 0usize;

        while completed < n {
            let (idx, res) = rx
                .recv_timeout(self.spec.stage_timeout)
                .map_err(|_| EngineError::Net(NetError::Timeout))?;
            inflight -= 1;
            match res {
                Ok(r) => {
                    if results[idx].is_none() {
                        results[idx] = Some(r);
                        completed += 1;
                    }
                }
                Err(fail) => match &policy {
                    RecoveryPolicy::RetryTask => {
                        task_attempts[idx] += 1;
                        if task_attempts[idx] >= self.spec.max_task_attempts {
                            return Err(EngineError::TaskFailed {
                                stage: label.to_string(),
                                task: idx,
                                attempts: task_attempts[idx],
                                reason: fail.reason,
                            });
                        }
                        total_attempts += 1;
                        inflight += 1;
                        submit(idx, task_attempts[idx]);
                    }
                    RecoveryPolicy::ResubmitStage { op } => {
                        stage_attempt += 1;
                        if stage_attempt >= self.spec.max_task_attempts {
                            return Err(EngineError::TaskFailed {
                                stage: label.to_string(),
                                task: idx,
                                attempts: stage_attempt,
                                reason: fail.reason,
                            });
                        }
                        // Drain in-flight tasks of the poisoned attempt so
                        // no stale merge lands after cleanup.
                        while inflight > 0 {
                            let _ = rx
                                .recv_timeout(self.spec.stage_timeout)
                                .map_err(|_| EngineError::Net(NetError::Timeout))?;
                            inflight -= 1;
                        }
                        // Paper §3.2: clean up the failed stage's shared
                        // in-memory value, then resubmit the stage.
                        for h in &self.executors {
                            h.ctx.objects.clear_op(*op);
                        }
                        for r in results.iter_mut() {
                            *r = None;
                        }
                        completed = 0;
                        total_attempts += n as u32;
                        for idx in 0..n {
                            submit(idx, stage_attempt);
                        }
                        inflight = n;
                    }
                    RecoveryPolicy::ResubmitGang { op } => {
                        stage_attempt += 1;
                        // Cancel the gang: peers blocked in fenced receives
                        // abort within one poll quantum instead of waiting
                        // out their deadline.
                        self.gang_token(*op).store(true, Ordering::Relaxed);
                        while inflight > 0 {
                            let _ = rx
                                .recv_timeout(self.spec.stage_timeout)
                                .map_err(|_| EngineError::Net(NetError::Timeout))?;
                            inflight -= 1;
                        }
                        // Every gang task has now returned, so anything
                        // still queued on either transport belongs to the
                        // failed attempt: discard it all. (The epoch fence
                        // would reject the sc frames anyway; gather frames
                        // on the bm path carry no epoch, so the drain is
                        // their only protection.)
                        self.sc_dyn.drain_all();
                        self.bm.drain_all();
                        if stage_attempt >= self.spec.max_collective_attempts {
                            self.gang_cancel.lock().remove(op);
                            return Err(EngineError::TaskFailed {
                                stage: label.to_string(),
                                task: idx,
                                attempts: stage_attempt,
                                reason: fail.reason,
                            });
                        }
                        // Fresh token: the next attempt starts uncancelled.
                        // Unlike ResubmitStage there is no clear_op — gang
                        // stages read their inputs non-destructively, so
                        // executor state is intact for the retry (and for
                        // the tree fallback if the gang exhausts).
                        self.gang_cancel
                            .lock()
                            .insert(*op, Arc::new(AtomicBool::new(false)));
                        for r in results.iter_mut() {
                            *r = None;
                        }
                        completed = 0;
                        total_attempts += n as u32;
                        for idx in 0..n {
                            submit(idx, stage_attempt);
                        }
                        inflight = n;
                    }
                },
            }
        }

        if let RecoveryPolicy::ResubmitGang { op } = &policy {
            self.gang_cancel.lock().remove(op);
        }
        let out = results.into_iter().map(|r| r.expect("completed")).collect();
        let mut stage_span = stage_span;
        stage_span
            .arg("tasks", n as u64)
            .arg("attempts", total_attempts as u64)
            .arg("job", self.history.current_job());
        stage_span.finish();
        Ok((out, total_attempts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::partition_owner;

    fn tiny() -> LocalCluster {
        LocalCluster::new(ClusterSpec::local(3, 2))
    }

    #[test]
    fn stage_runs_every_task_on_its_executor() {
        let cluster = tiny();
        let assignments: Vec<ExecutorId> = (0..6).map(|p| partition_owner(p, 3)).collect();
        let (got, attempts) = cluster
            .inner()
            .run_stage(
                "where-am-i",
                &assignments,
                |idx, _attempt, ctx| Ok((idx, ctx.executor)),
                RecoveryPolicy::RetryTask,
            )
            .unwrap();
        assert_eq!(attempts, 6);
        for (idx, (i, exec)) in got.iter().enumerate() {
            assert_eq!(*i, idx);
            assert_eq!(*exec, partition_owner(idx, 3));
        }
    }

    #[test]
    fn retry_task_recovers_from_single_fault() {
        let cluster = tiny();
        cluster.fault_plan().fail_once("flaky", 1);
        let assignments = vec![ExecutorId(0), ExecutorId(1), ExecutorId(2)];
        let (got, attempts) = cluster
            .inner()
            .run_stage(
                "flaky",
                &assignments,
                |idx, _attempt, _ctx| Ok(idx * 10),
                RecoveryPolicy::RetryTask,
            )
            .unwrap();
        assert_eq!(got, vec![0, 10, 20]);
        assert_eq!(attempts, 4, "three tasks + one retry");
    }

    #[test]
    fn retry_task_gives_up_after_max_attempts() {
        let cluster = tiny();
        for attempt in 0..10 {
            cluster.fault_plan().fail_attempt("doomed", 0, attempt);
        }
        let err = cluster
            .inner()
            .run_stage(
                "doomed",
                &[ExecutorId(0)],
                |_idx, _attempt, _ctx| Ok(()),
                RecoveryPolicy::RetryTask,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::TaskFailed { attempts: 4, .. }), "{err}");
    }

    #[test]
    fn resubmit_stage_clears_shared_state_and_reruns_all() {
        use crate::objects::ObjectId;
        let cluster = tiny();
        let op = cluster.inner().next_op();
        cluster.fault_plan().fail_once("imm-stage", 2);
        let assignments = vec![ExecutorId(0), ExecutorId(1), ExecutorId(2)];
        let (_, attempts) = cluster
            .inner()
            .run_stage(
                "imm-stage",
                &assignments,
                move |idx, _attempt, ctx| {
                    ctx.objects
                        .merge_in(ObjectId { op, slot: 0 }, 1u64, |a, b| *a += b);
                    Ok(idx)
                },
                RecoveryPolicy::ResubmitStage { op },
            )
            .unwrap();
        // First submission: tasks 0,1 merged then task 2 failed -> cleanup +
        // full resubmission. Each executor's object must hold exactly one
        // merge (from the clean rerun).
        assert_eq!(attempts, 6, "3 first attempt + 3 resubmitted");
        for e in 0..3 {
            let v = cluster
                .inner()
                .executor_ctx(ExecutorId(e))
                .objects
                .take::<u64>(ObjectId { op, slot: 0 });
            assert_eq!(v, Some(1), "executor {e} state not cleanly rebuilt");
        }
    }

    #[test]
    fn bm_roundtrip_executor_to_driver() {
        let cluster = tiny();
        let inner = cluster.inner().clone();
        let (results, _) = inner
            .run_stage(
                "report",
                &[ExecutorId(1)],
                {
                    let inner = inner.clone();
                    move |_idx, _attempt, ctx| {
                        inner.bm_send_to_driver(ctx.executor, ByteBuf::from_static(b"result"))?;
                        Ok(())
                    }
                },
                RecoveryPolicy::RetryTask,
            )
            .unwrap();
        assert_eq!(results.len(), 1);
        let frame = inner.driver_recv(ExecutorId(1)).unwrap();
        assert_eq!(&frame[..], b"result");
    }

    #[test]
    fn ring_comm_reaches_all_executors() {
        let cluster = tiny();
        let inner = cluster.inner().clone();
        let ring = inner.build_ring(2);
        let inner2 = inner.clone();
        let ring2 = ring.clone();
        let (ranks, _) = inner
            .run_stage(
                "ring-hello",
                &[ExecutorId(0), ExecutorId(1), ExecutorId(2)],
                move |_idx, _attempt, ctx| {
                    let comm = inner2.ring_comm(&ring2, ctx.executor);
                    comm.send_next(0, ByteBuf::from(vec![comm.rank() as u8]))
                        .map_err(TaskFailure::from)?;
                    let got = comm.recv_prev(0).map_err(TaskFailure::from)?;
                    Ok((comm.rank(), got[0] as usize))
                },
                RecoveryPolicy::RetryTask,
            )
            .unwrap();
        for (rank, prev) in ranks {
            assert_eq!(prev, (rank + 2) % 3);
        }
    }

    #[test]
    fn cluster_shuts_down_cleanly() {
        let cluster = tiny();
        drop(cluster); // must not hang or leak panics
    }

    #[test]
    fn dead_executor_fails_tasks_instead_of_panicking_the_driver() {
        let cluster = tiny();
        cluster.kill_executor(ExecutorId(1));
        let err = cluster
            .inner()
            .run_stage(
                "lost-exec",
                &[ExecutorId(0), ExecutorId(1), ExecutorId(2)],
                |idx, _attempt, _ctx| Ok(idx),
                RecoveryPolicy::RetryTask,
            )
            .unwrap_err();
        match err {
            EngineError::TaskFailed { stage, task, reason, .. } => {
                assert_eq!(stage, "lost-exec");
                assert_eq!(task, 1);
                assert!(reason.contains("dead"), "{reason}");
            }
            other => panic!("expected TaskFailed, got {other}"),
        }
    }

    #[test]
    fn resubmit_gang_reruns_all_without_clearing_state() {
        use crate::objects::ObjectId;
        let cluster = tiny();
        let op = cluster.inner().next_op();
        cluster.fault_plan().fail_once("gang-stage", 1);
        let assignments = vec![ExecutorId(0), ExecutorId(1), ExecutorId(2)];
        let (_, attempts) = cluster
            .inner()
            .run_stage(
                "gang-stage",
                &assignments,
                move |_idx, _attempt, ctx| {
                    ctx.objects
                        .merge_in(ObjectId { op, slot: 0 }, 1u64, |a, b| *a += b);
                    Ok(())
                },
                RecoveryPolicy::ResubmitGang { op },
            )
            .unwrap();
        assert_eq!(attempts, 6, "3 first attempt + 3 gang resubmits");
        // Gang resubmission must NOT clear op state: executors 0 and 2 ran
        // twice (two merges), executor 1's first attempt failed before its
        // merge so it holds one.
        for (e, want) in [(0u32, 2u64), (1, 1), (2, 2)] {
            let v = cluster
                .inner()
                .executor_ctx(ExecutorId(e))
                .objects
                .take::<u64>(ObjectId { op, slot: 0 });
            assert_eq!(v, Some(want), "executor {e}");
        }
    }

    #[test]
    fn resubmit_gang_gives_up_after_collective_budget() {
        let spec = ClusterSpec::local(3, 2).with_max_collective_attempts(2);
        let cluster = LocalCluster::new(spec);
        let op = cluster.inner().next_op();
        for attempt in 0..10 {
            cluster.fault_plan().fail_attempt("gang-doomed", 0, attempt);
        }
        let err = cluster
            .inner()
            .run_stage(
                "gang-doomed",
                &[ExecutorId(0), ExecutorId(1), ExecutorId(2)],
                |_idx, _attempt, _ctx| Ok(()),
                RecoveryPolicy::ResubmitGang { op },
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::TaskFailed { attempts: 2, .. }), "{err}");
    }

    #[test]
    fn gang_failure_cancels_a_peer_blocked_in_recv() {
        use std::time::{Duration, Instant};
        // Executor 0's task waits on a neighbour that dies before sending:
        // the gang cancel token must abort the wait well before the 10s
        // receive deadline.
        let spec = ClusterSpec::local(3, 2)
            .with_collective_recv_timeout(Duration::from_secs(10))
            .with_max_collective_attempts(1);
        let cluster = LocalCluster::new(spec);
        let inner = cluster.inner().clone();
        let op = inner.next_op();
        let ring = inner.build_ring(1);
        let inner2 = inner.clone();
        let start = Instant::now();
        let err = inner
            .run_stage(
                "gang-cancel",
                &[ExecutorId(0), ExecutorId(1), ExecutorId(2)],
                move |idx, attempt, ctx| {
                    if idx == 1 {
                        // Fail fast without sending anything.
                        return Err(TaskFailure { reason: "peer died".into() });
                    }
                    let comm = inner2.collective_comm(&ring, ctx.executor, op, attempt);
                    comm.recv_prev(0).map_err(TaskFailure::from)?;
                    Ok(())
                },
                RecoveryPolicy::ResubmitGang { op },
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::TaskFailed { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancel token did not abort blocked peers: {:?}",
            start.elapsed()
        );
    }
}
