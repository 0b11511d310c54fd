//! Split aggregation — the Sparker contribution (paper §3.1, §4).
//!
//! The pipeline exactly follows the paper:
//!
//! 1. **Reduced-result stage (IMM)** — one task per partition folds its
//!    partition with `seqOp` and merges the result into the executor's
//!    shared aggregator in the mutable object manager. After the stage there
//!    is exactly one aggregator `U` per executor (executors with no
//!    partitions hold the zero value). Nothing has been serialized yet.
//! 2. **Statically-scheduled ring stage (the paper's `SpawnRDD`)** — one
//!    task pinned to every executor. Each task splits its aggregator into
//!    `P·N` segments by calling the user's `splitOp(u, i, n)` from `P`
//!    parallel threads, then runs ring reduce-scatter over the parallel
//!    directed ring through the scalable communicator, merging segments with
//!    the user's `reduceOp`. Each executor finishes owning `P` fully-reduced
//!    segments. (The selected algorithm is run by [`crate::ops::reduce`],
//!    the same dispatch the multi-process executor uses.)
//! 3. **Gather + concat** — owned segments are serialized and collected to
//!    the driver over Spark's normal result path, where the user's
//!    `concatOp` reassembles the final value `V`.
//!
//! Compared to tree aggregation, per-executor traffic drops from
//! `O(log N)` whole aggregators to `(N−1)/N`-th of one aggregator, and the
//! driver receives exactly one aggregator's worth of bytes regardless of
//! cluster size.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sparker_obs::trace::ScopedSpan;
use sparker_obs::Layer;

use sparker_net::codec::Payload;
use sparker_net::topology::ExecutorId;

use sparker_collectives::gather::in_index_order;
use sparker_collectives::ring::OwnedSegment;

use sparker_tuner::{Algo, CostModel, Decision, JobShape, Selector};

use crate::cluster::{ClusterInner, LocalCluster, RecoveryPolicy};
use crate::metrics::AggMetrics;
use crate::objects::ObjectId;
use crate::ops::basic::{fold_partition, partition_assignments};
use crate::ops::reduce::{reduce_scatter, segment_count, strategy_of};
use crate::ops::tree_aggregate::{shuffle_round, tree_scale};
use crate::rdd::{Data, RddRef, TaskContext};
use crate::task::{EngineError, EngineResult, TaskFailure};

/// Slot base of the fallback path's per-executor segment vectors. Disjoint
/// from the IMM slots (`0..nexec`), the allreduce resident copy (`1 << 48`)
/// and the shuffle-round slots (`level << 32 | j`, small `level`).
const FALLBACK_SLOT_BASE: u64 = 2 << 48;

/// How `split_aggregate` picks its reduction algorithm (DESIGN.md §5j).
///
/// Both variants are `Copy` (the cost model is five scalars), so
/// `SplitAggOpts` stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectorOpts {
    /// Run this tuner-menu entry. `Algo::Tree` runs the shuffle-tree path
    /// as the *primary* (no downgrade accounting).
    Forced(Algo),
    /// Rank the full menu under this calibrated cost model using the
    /// cluster's node topology and the `hint_*` fields, and run the
    /// predicted-fastest algorithm.
    Auto(CostModel),
}

/// Options for [`split_aggregate`].
#[derive(Debug, Clone, Copy)]
pub struct SplitAggOpts {
    /// PDR channel parallelism; defaults to the cluster spec's value.
    pub parallelism: Option<usize>,
    /// Scheduler job this op runs under; stamped onto stage history records
    /// and [`AggMetrics::job_id`]. 0 (the default) means "no job" and keeps
    /// single-job runs byte-identical to before.
    pub job_id: u64,
    /// Epoch namespace for the ring's collective frames (see
    /// [`sparker_net::epoch::namespaced`]): concurrent jobs get distinct
    /// namespaces so their rings can never accept each other's frames. Must
    /// be `< epoch::NS_COUNT`; 0 is the single-job default.
    pub epoch_ns: u32,
    /// Algorithm selection policy; the default forces the paper's flat
    /// unpipelined ring.
    pub selector: SelectorOpts,
    /// Dense wire size of one aggregator in bytes, for [`SelectorOpts::Auto`]
    /// cost prediction. 0 (unknown) is treated as 1 byte, which makes the
    /// prediction latency-dominated.
    pub hint_bytes: u64,
    /// Expected non-zero fraction of the aggregator in permille for
    /// [`SelectorOpts::Auto`]; 1000 (the default) means fully dense.
    pub hint_density_permille: u32,
}

impl Default for SplitAggOpts {
    fn default() -> Self {
        Self {
            parallelism: None,
            job_id: 0,
            epoch_ns: 0,
            selector: SelectorOpts::Forced(Algo::FlatRing),
            hint_bytes: 0,
            hint_density_permille: 1000,
        }
    }
}

/// Runs split aggregation; returns the concatenated segment value `V` and
/// the compute/reduce decomposition.
///
/// Closure roles mirror the paper's Figure 6 (`merge_op` is the additional
/// executor-local merge IMM needs — see DESIGN.md §5a):
/// * `seq_op(acc, item) -> acc` — folds one sample into an aggregator.
/// * `merge_op(&mut a, b)` — merges two aggregators inside one executor.
/// * `split_op(&u, i, n) -> V` — extracts segment `i` of `n`.
/// * `reduce_op(&mut a, b)` — merges two aggregator-segments.
/// * `concat_op(segments) -> V` — reassembles the final value.
#[allow(clippy::too_many_arguments)]
pub fn split_aggregate<T, U, V, S, M, Sp, R, C>(
    cluster: &LocalCluster,
    rdd: RddRef<T>,
    zero: U,
    seq_op: S,
    merge_op: M,
    split_op: Sp,
    reduce_op: R,
    concat_op: C,
    opts: SplitAggOpts,
) -> EngineResult<(V, AggMetrics)>
where
    T: Data,
    U: Clone + Send + Sync + 'static,
    V: Payload + Clone + Send + Sync + 'static,
    S: Fn(U, &T) -> U + Send + Sync + 'static,
    M: Fn(&mut U, U) + Send + Sync + 'static,
    Sp: Fn(&U, usize, usize) -> V + Send + Sync + 'static,
    R: Fn(&mut V, V) + Send + Sync + 'static,
    C: FnOnce(Vec<V>) -> V,
{
    let inner = cluster.inner().clone();
    let _action = inner.lock_action();
    let op = inner.next_op();
    let parts = rdd.num_partitions();
    if parts == 0 {
        return Err(EngineError::Invalid("split_aggregate over zero partitions".into()));
    }
    let nexec = inner.num_executors();
    let parallelism = opts.parallelism.unwrap_or(inner.spec().ring_parallelism);
    if opts.epoch_ns >= sparker_net::epoch::NS_COUNT {
        return Err(EngineError::Invalid(format!(
            "epoch namespace {} out of range (< {})",
            opts.epoch_ns,
            sparker_net::epoch::NS_COUNT
        )));
    }

    // --- Algorithm selection (DESIGN.md §5j) -----------------------------
    // `tuning` keeps the selector + decision around so the measured reduce
    // time can be fed back as the `tuner.predict_vs_actual_permille` gauge.
    let mut tuning: Option<(Selector, Decision)> = None;
    let algo = match opts.selector {
        SelectorOpts::Forced(algo) => algo,
        SelectorOpts::Auto(model) => {
            let topo = sparker_net::NodeTopology::group(inner.executor_infos());
            let shape = JobShape {
                bytes: opts.hint_bytes.max(1),
                density_permille: opts.hint_density_permille.min(1000),
                executors: nexec,
                nodes: topo.num_nodes(),
                parallelism,
            };
            let selector = Selector::new(model);
            let decision = selector.select(&shape);
            tuning = Some((selector, decision));
            decision.algo
        }
    };
    if algo.chunks() == 0 {
        return Err(EngineError::Invalid("split_aggregate needs chunks >= 1".into()));
    }
    // Tree-as-primary reuses the fallback machinery below, entered
    // deliberately rather than after gang exhaustion.
    let tree_primary = algo == Algo::Tree;

    // Stamp every stage record of this op with the job id; the guard resets
    // the stamp on every exit path (the action lock is held throughout, so
    // no other op can observe the stamp).
    inner.history().set_current_job(opts.job_id);
    struct JobStamp<'a>(&'a crate::history::History);
    impl Drop for JobStamp<'_> {
        fn drop(&mut self) {
            self.0.set_current_job(0);
        }
    }
    let _job_stamp = JobStamp(inner.history());

    let strategy = strategy_of(algo);
    let mut metrics = AggMetrics::new(strategy);
    metrics.job_id = opts.job_id;
    let ser_bytes = Arc::new(AtomicU64::new(0));
    // Op phases are Driver-layer scoped spans; AggMetrics durations are read
    // back from them, so the metrics view and the exported trace agree.
    let scope = inner.history().scope();

    // --- Stage 1: reduced-result stage (IMM) ----------------------------
    let compute_span =
        ScopedSpan::begin(scope, Layer::Driver, format!("{}-compute-op{op}", strategy.name()));
    metrics.task_attempts +=
        imm_stage(&inner, &rdd, op, &format!("split-imm-op{op}"), &zero, seq_op, merge_op)?;
    metrics.stages += 1;
    metrics.compute = compute_span.finish();

    // --- Stage 2: SpawnRDD ring stage ------------------------------------
    let reduce_span =
        ScopedSpan::begin(scope, Layer::Driver, format!("{}-reduce-op{op}", strategy.name()));
    let sc_before = cluster.sc_stats();
    let ring = inner.build_ring(parallelism);
    let total_segments = segment_count(algo, &ring);

    let ring_label = format!("split-ring-op{op}");
    let all_execs: Vec<ExecutorId> = (0..nexec).map(|e| ExecutorId(e as u32)).collect();
    let split = Arc::new(split_op);
    let reduce = Arc::new(reduce_op);
    let ring_outcome = if tree_primary {
        // The selector decided the collective path loses to the shuffle
        // tree for this shape; enter the tree arm below directly, with the
        // per-executor aggregators intact (only the IMM stage has run).
        Err(EngineError::TaskFailed {
            stage: ring_label.clone(),
            task: 0,
            attempts: 0,
            reason: "selector chose tree aggregation as the primary path".into(),
        })
    } else {
        let inner2 = inner.clone();
        let ring = ring.clone();
        let split = split.clone();
        let reduce = reduce.clone();
        let zero = zero.clone();
        let ser_bytes = ser_bytes.clone();
        let epoch_ns = opts.epoch_ns;
        inner.run_stage(
            &ring_label,
            &all_execs,
            move |_idx, attempt, ctx| {
                // Fence frames to this job's epoch namespace: a concurrent
                // job's ring (different namespace) can never match, whatever
                // its attempt counter.
                let comm = inner2.collective_comm(
                    &ring,
                    ctx.executor,
                    op,
                    sparker_net::epoch::namespaced(epoch_ns, attempt),
                );
                let merge = |a: &mut V, b: V| reduce(a, b);
                // The collective runs inside the borrow of the executor's
                // aggregator: peeked, never taken and never cloned, so a
                // gang resubmission re-reads the same input and the tree
                // fallback finds it intact if the gang exhausts. (A tree
                // primary never launches this stage.)
                let owned: Vec<OwnedSegment<V>> = with_aggregator(ctx, op, &zero, |u| {
                    reduce_scatter(&comm, algo, &|g| split(u, g, total_segments), &merge)
                })
                .map_err(TaskFailure::from)?;

                // Gather: the owned segments are this task's result over the
                // normal (BlockManager) result path.
                let frame = owned.to_frame();
                ser_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
                inner2.bm_send_to_driver(ctx.executor, frame)?;
                Ok(owned.len())
            },
            RecoveryPolicy::ResubmitGang { op },
        )
    };

    // Aggregator-carrying messages beyond the sc counters (gather frames and
    // fallback shuffle frames travel the BM path).
    let extra_messages: u64;
    let result = match ring_outcome {
        Ok((_, attempts)) => {
            metrics.task_attempts += attempts;
            metrics.stages += 1;

            // --- Driver: gather + concat --------------------------------
            let merge_span = ScopedSpan::begin(
                scope,
                Layer::Driver,
                format!("{}-driver-merge-op{op}", strategy.name()),
            );
            let mut gathered = Vec::with_capacity(total_segments);
            for exec in &all_execs {
                let frame = inner.driver_recv(*exec)?;
                metrics.bytes_to_driver += frame.len() as u64;
                gathered.extend(Vec::<OwnedSegment<V>>::from_frame(frame)?);
            }
            let segments = in_index_order(total_segments, gathered)?;
            let result = concat_op(segments);
            metrics.driver_merge = merge_span.finish();
            extra_messages = nexec as u64;
            result
        }
        Err(EngineError::TaskFailed { stage, .. }) if stage == ring_label => {
            // --- Graceful degradation: tree fallback --------------------
            // The gang exhausted `max_collective_attempts`. The collective
            // path is unusable, but the per-executor aggregators are intact
            // (the ring stage only peeked), so finish the op over the
            // BlockManager path with a tree of whole segment vectors —
            // slower, but recoverable one task at a time. When the selector
            // chose the tree *as the primary* this is not a downgrade: no
            // gang ever ran, so nothing is recorded as degraded.
            if !tree_primary {
                cluster.history().record(
                    &format!("split-downgrade-op{op}"),
                    0,
                    0,
                    std::time::Duration::ZERO,
                );
                metrics.downgraded = true;
            }
            let messages = Arc::new(AtomicU64::new(0));

            // Seed: each executor splits its aggregator into the full
            // segment vector (same indexing as the ring path) for the
            // shuffle tree. Replace-merge keeps retries idempotent.
            let seed_label = format!("split-fallback-op{op}");
            {
                let split = split.clone();
                let zero = zero.clone();
                let (_, attempts) = inner.run_stage(
                    &seed_label,
                    &all_execs,
                    move |_idx, _attempt, ctx| {
                        let segs: Vec<V> = with_aggregator(ctx, op, &zero, |u| {
                            (0..total_segments).map(|g| split(u, g, total_segments)).collect()
                        });
                        ctx.objects.merge_in(
                            ObjectId { op, slot: FALLBACK_SLOT_BASE | ctx.executor.0 as u64 },
                            segs,
                            |a, b| *a = b,
                        );
                        Ok(())
                    },
                    RecoveryPolicy::RetryTask,
                )?;
                metrics.task_attempts += attempts;
                metrics.stages += 1;
            }

            // Shuffle the segment vectors down a tree (reusing the
            // tree-aggregate machinery) with an element-wise merge.
            let comb = {
                let reduce = reduce.clone();
                Arc::new(move |mut a: Vec<V>, b: Vec<V>| {
                    if a.is_empty() {
                        return b;
                    }
                    for (x, y) in a.iter_mut().zip(b) {
                        reduce(x, y);
                    }
                    a
                })
            };
            let fb_zero: Vec<V> = Vec::new();
            let mut holders: Vec<(ExecutorId, u64)> = all_execs
                .iter()
                .map(|e| (*e, FALLBACK_SLOT_BASE | e.0 as u64))
                .collect();
            let scale = tree_scale(nexec, inner.spec().tree_depth);
            let mut level: u64 = 1;
            while holders.len() > scale + holders.len() / scale {
                let m = (holders.len() / scale).max(1);
                holders = shuffle_round(
                    cluster, op, level, &holders, m, nexec, &comb, &fb_zero, &ser_bytes,
                    &messages, &mut metrics,
                )?;
                level += 1;
            }

            // Final: surviving holders ship their vectors to the driver.
            let final_label = format!("split-fallback-final-op{op}");
            let final_assignments: Vec<ExecutorId> = holders.iter().map(|(e, _)| *e).collect();
            {
                let slots: Vec<u64> = holders.iter().map(|(_, s)| *s).collect();
                let send_inner = inner.clone();
                let ser_bytes = ser_bytes.clone();
                let (_, attempts) = inner.run_stage(
                    &final_label,
                    &final_assignments,
                    move |idx, _attempt, ctx| {
                        // Peek so a retried send still finds its vector.
                        let segs: Vec<V> = ctx
                            .objects
                            .with(ObjectId { op, slot: slots[idx] }, |v: &Vec<V>| v.clone())
                            .ok_or_else(|| TaskFailure {
                                reason: format!("missing fallback slot {}", slots[idx]),
                            })?;
                        let frame = segs.to_frame();
                        ser_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
                        send_inner.bm_send_to_driver(ctx.executor, frame)?;
                        Ok(())
                    },
                    RecoveryPolicy::RetryTask,
                )?;
                metrics.task_attempts += attempts;
                metrics.stages += 1;
            }

            let merge_span = ScopedSpan::begin(
                scope,
                Layer::Driver,
                format!("{}-driver-merge-op{op}", strategy.name()),
            );
            let mut acc: Vec<V> = Vec::new();
            for exec in &final_assignments {
                let frame = inner.driver_recv(*exec)?;
                metrics.bytes_to_driver += frame.len() as u64;
                let segs = Vec::<V>::from_frame(frame)?;
                if acc.is_empty() {
                    acc = segs;
                } else {
                    for (x, y) in acc.iter_mut().zip(segs) {
                        reduce(x, y);
                    }
                }
            }
            if acc.len() != total_segments {
                return Err(EngineError::Invalid(format!(
                    "fallback produced {} segments, expected {total_segments}",
                    acc.len()
                )));
            }
            let result = concat_op(acc);
            metrics.driver_merge = merge_span.finish();
            extra_messages = messages.load(Ordering::Relaxed) + final_assignments.len() as u64;
            result
        }
        Err(e) => return Err(e),
    };

    // Everything the op parked in executor object managers — peeked inputs,
    // fallback vectors, shuffle slots — is dead now.
    for e in &all_execs {
        inner.executor_ctx(*e).objects.clear_op(op);
    }
    metrics.reduce = reduce_span.finish();
    if let Some((selector, decision)) = &tuning {
        // Feed the measured reduce time back: exported traces now carry
        // predicted/actual permille next to the spans they predicted.
        selector.observe(decision, metrics.reduce.as_secs_f64());
    }

    let sc_after = cluster.sc_stats();
    metrics.ser_bytes =
        ser_bytes.load(Ordering::Relaxed) + (sc_after.bytes - sc_before.bytes);
    metrics.messages = (sc_after.messages - sc_before.messages) + extra_messages;
    Ok((result, metrics))
}

/// Runs `f` on the aggregator the IMM stage of `op` left on this executor,
/// borrowed in place from the object manager (see
/// [`crate::objects::MutableObjectManager::with_or`]), or on `zero` when the
/// executor owns no partition.
pub(crate) fn with_aggregator<U: Send + 'static, R>(
    ctx: &TaskContext,
    op: u64,
    zero: &U,
    f: impl FnOnce(&U) -> R,
) -> R {
    ctx.objects.with_or(ObjectId { op, slot: ctx.executor.0 as u64 }, zero, f)
}

/// Stage 1 of split and allreduce aggregation, the reduced-result stage
/// (IMM): one task per partition folds it with `seq_op` and merges the
/// result into its executor's aggregator of `op`, so after the stage there
/// is exactly one aggregator per executor and nothing has been serialized.
/// Returns the stage's task attempts.
pub(crate) fn imm_stage<T, U, S, M>(
    inner: &Arc<ClusterInner>,
    rdd: &RddRef<T>,
    op: u64,
    label: &str,
    zero: &U,
    seq_op: S,
    merge_op: M,
) -> EngineResult<u32>
where
    T: Data,
    U: Clone + Send + Sync + 'static,
    S: Fn(U, &T) -> U + Send + Sync + 'static,
    M: Fn(&mut U, U) + Send + Sync + 'static,
{
    let rdd = rdd.clone();
    let zero = zero.clone();
    let merge = Arc::new(merge_op);
    let (_, attempts) = inner.run_stage(
        label,
        &partition_assignments(inner, &rdd),
        move |idx, _attempt, ctx| {
            let acc = fold_partition(&rdd, idx, ctx, zero.clone(), &seq_op);
            let merge = merge.clone();
            let id = ObjectId { op, slot: ctx.executor.0 as u64 };
            ctx.objects.merge_in(id, acc, move |a, b| merge(a, b));
            Ok(())
        },
        RecoveryPolicy::ResubmitStage { op },
    )?;
    Ok(attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use crate::metrics::AggStrategy;
    use crate::rdds::ParallelCollection;
    use sparker_collectives::segment::slice_bounds;
    use sparker_net::codec::F64Array;

    /// Sums vectors of f64 across partitions via split aggregation.
    fn run_split(
        executors: usize,
        cores: usize,
        parts: usize,
        dim: usize,
        opts: SplitAggOpts,
    ) -> (Vec<f64>, AggMetrics) {
        run_split_on(ClusterSpec::local(executors, cores), parts, dim, opts)
    }

    /// Like [`run_split`] but over an arbitrary cluster shape (hierarchical
    /// paths need `spec.nodes > 1` so executors land on distinct hosts).
    fn run_split_on(
        spec: ClusterSpec,
        parts: usize,
        dim: usize,
        opts: SplitAggOpts,
    ) -> (Vec<f64>, AggMetrics) {
        let cluster = LocalCluster::new(spec);
        let data: Vec<u64> = (1..=64).collect();
        let expected_count = data.len() as f64;
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(data, parts));
        let (v, m) = split_aggregate(
            &cluster,
            rdd,
            vec![0.0f64; dim],
            move |mut acc: Vec<f64>, x: &u64| {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a += (*x as f64) * (i + 1) as f64;
                }
                acc
            },
            |a: &mut Vec<f64>, b: Vec<f64>| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            },
            |u: &Vec<f64>, i: usize, n: usize| {
                let (lo, hi) = slice_bounds(u.len(), i, n);
                F64Array(u[lo..hi].to_vec())
            },
            |a: &mut F64Array, b: F64Array| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            |segs: Vec<F64Array>| {
                F64Array(segs.into_iter().flat_map(|s| s.0).collect())
            },
            opts,
        )
        .unwrap();
        let _ = expected_count;
        (v.0, m)
    }

    fn expected(dim: usize) -> Vec<f64> {
        let total: f64 = (1..=64u64).map(|x| x as f64).sum();
        (0..dim).map(|i| total * (i + 1) as f64).collect()
    }

    #[test]
    fn split_aggregate_matches_sequential_sum() {
        let (v, m) = run_split(4, 2, 8, 37, SplitAggOpts::default());
        assert_eq!(v, expected(37));
        assert_eq!(m.strategy, AggStrategy::Split);
        assert_eq!(m.stages, 2);
    }

    #[test]
    fn split_aggregate_under_epoch_namespace_is_bit_exact() {
        let opts = SplitAggOpts { epoch_ns: 17, job_id: 9, ..Default::default() };
        let (v, m) = run_split(4, 2, 8, 37, opts);
        assert_eq!(v, expected(37));
        assert_eq!(m.job_id, 9, "metrics carry the job id");
    }

    #[test]
    fn split_aggregate_rejects_out_of_range_namespace() {
        use crate::config::ClusterSpec;
        use crate::rdds::ParallelCollection;
        let cluster = LocalCluster::new(ClusterSpec::local(2, 2));
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(vec![1, 2, 3, 4], 2));
        let opts =
            SplitAggOpts { epoch_ns: sparker_net::epoch::NS_COUNT, ..Default::default() };
        let got = split_aggregate(
            &cluster,
            rdd,
            0u64,
            |a: u64, x: &u64| a + x,
            |a: &mut u64, b: u64| *a += b,
            |u: &u64, i: usize, _n: usize| if i == 0 { *u } else { 0 },
            |a: &mut u64, b: u64| *a += b,
            |segs: Vec<u64>| segs.into_iter().sum::<u64>(),
            opts,
        );
        assert!(matches!(got, Err(EngineError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn split_aggregate_stamps_history_with_job_id() {
        use crate::config::ClusterSpec;
        use crate::rdds::ParallelCollection;
        let cluster = LocalCluster::new(ClusterSpec::local(2, 2));
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(vec![1, 2, 3, 4], 2));
        let opts = SplitAggOpts { job_id: 5, ..Default::default() };
        let (_, _) = split_aggregate(
            &cluster,
            rdd,
            0u64,
            |a: u64, x: &u64| a + x,
            |a: &mut u64, b: u64| *a += b,
            |u: &u64, i: usize, _n: usize| if i == 0 { *u } else { 0 },
            |a: &mut u64, b: u64| *a += b,
            |segs: Vec<u64>| segs.into_iter().sum::<u64>(),
            opts,
        )
        .unwrap();
        let events = cluster.history().snapshot();
        assert!(!events.is_empty());
        assert!(
            events.iter().all(|e| e.job_id == 5),
            "every stage of the op carries the job id: {events:?}"
        );
        assert_eq!(cluster.history().current_job(), 0, "stamp reset after the op");
    }

    #[test]
    fn split_aggregate_single_executor() {
        let (v, _) = run_split(1, 2, 4, 10, SplitAggOpts::default());
        assert_eq!(v, expected(10));
    }

    #[test]
    fn split_aggregate_more_executors_than_partitions() {
        // Executors without partitions contribute the zero aggregator.
        let (v, _) = run_split(6, 1, 2, 12, SplitAggOpts::default());
        assert_eq!(v, expected(12));
    }

    #[test]
    fn split_aggregate_parallelism_sweep() {
        for p in [1, 2, 4, 8] {
            let (v, _) = run_split(
                3,
                2,
                6,
                29,
                SplitAggOpts { parallelism: Some(p), ..Default::default() },
            );
            assert_eq!(v, expected(29), "parallelism {p}");
        }
    }

    #[test]
    fn split_aggregate_halving_algorithm() {
        for execs in [2, 3, 4, 5] {
            let (v, m) = run_split(
                execs,
                2,
                8,
                31,
                SplitAggOpts {
                    parallelism: Some(2),
                    selector: SelectorOpts::Forced(Algo::Halving),
                    ..Default::default()
                },
            );
            assert_eq!(v, expected(31), "executors {execs}");
            assert_eq!(m.strategy, AggStrategy::SplitHalving);
        }
    }

    #[test]
    fn dimension_smaller_than_segments() {
        // 37-dim vector split into P*N = 16 segments: some segments are
        // empty slices; concat must still reassemble exactly.
        let (v, _) = run_split(8, 1, 8, 7, SplitAggOpts { parallelism: Some(2), ..Default::default() });
        assert_eq!(v, expected(7));
    }

    #[test]
    fn imm_stage_fault_resubmits_and_result_stays_correct() {
        let cluster = LocalCluster::new(ClusterSpec::local(2, 2));
        cluster.fault_plan().fail_once("split-imm-op1", 1);
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=10).collect(), 4));
        let (v, m) = split_aggregate(
            &cluster,
            rdd,
            0.0f64,
            |acc, x| acc + *x as f64,
            |a, b| *a += b,
            |u, i, _n| if i == 0 { *u } else { 0.0 },
            |a, b| *a += b,
            |segs| segs.into_iter().sum::<f64>(),
            SplitAggOpts { parallelism: Some(1), ..Default::default() },
        )
        .unwrap();
        assert_eq!(v, 55.0);
        assert!(m.task_attempts > 4 + 2, "stage must have been resubmitted");
    }

    #[test]
    fn chunk_pipelining_matches_unpipelined() {
        // Integer-valued data (sums of whole u64s scaled by integer factors):
        // every merge association is exact, so all chunk counts must agree
        // bitwise with the unpipelined result and the sequential expectation.
        let want = expected(37);
        for algo in [Algo::FlatRing, Algo::ChunkedRing(2), Algo::ChunkedRing(4)] {
            let (v, m) = run_split(
                4,
                2,
                8,
                37,
                SplitAggOpts {
                    parallelism: Some(2),
                    selector: SelectorOpts::Forced(algo),
                    ..Default::default()
                },
            );
            assert_eq!(v, want, "{algo:?}");
            assert_eq!(m.stages, 2, "{algo:?}");
        }
    }

    #[test]
    fn zero_chunks_is_rejected() {
        let cluster = LocalCluster::new(ClusterSpec::local(2, 1));
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=4).collect(), 2));
        let err = split_aggregate(
            &cluster,
            rdd,
            0.0f64,
            |acc, x| acc + *x as f64,
            |a, b| *a += b,
            |u, i, _n| if i == 0 { *u } else { 0.0 },
            |a, b| *a += b,
            |segs: Vec<f64>| segs.into_iter().sum::<f64>(),
            SplitAggOpts {
                selector: SelectorOpts::Forced(Algo::ChunkedRing(0)),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Invalid(_)), "{err:?}");
    }

    /// A 2-node × 3-executor spec: hosts "node-000"/"node-001" interleave
    /// round-robin, so the hierarchical path has real intra/inter structure.
    fn two_node_spec() -> ClusterSpec {
        let mut spec = ClusterSpec::local(6, 2);
        spec.nodes = 2;
        spec.executors_per_node = 3;
        spec
    }

    #[test]
    fn hierarchical_algorithm_matches_sequential_sum() {
        let (v, m) = run_split_on(
            two_node_spec(),
            8,
            37,
            SplitAggOpts {
                parallelism: Some(2),
                selector: SelectorOpts::Forced(Algo::Hierarchical),
                ..Default::default()
            },
        );
        assert_eq!(v, expected(37));
        assert_eq!(m.strategy, AggStrategy::SplitHier);
        assert_eq!(m.stages, 2);
        assert!(!m.downgraded);
    }

    #[test]
    fn hierarchical_single_node_degenerates_cleanly() {
        // One host: every executor folds to a single leader, the leader
        // sub-ring has size 1, and the result must still be exact.
        let (v, m) = run_split(
            4,
            2,
            8,
            31,
            SplitAggOpts {
                parallelism: Some(2),
                selector: SelectorOpts::Forced(Algo::Hierarchical),
                ..Default::default()
            },
        );
        assert_eq!(v, expected(31));
        assert_eq!(m.strategy, AggStrategy::SplitHier);
    }

    #[test]
    fn forced_tree_is_primary_not_a_downgrade() {
        let cluster = LocalCluster::new(two_node_spec());
        let data: Vec<u64> = (1..=64).collect();
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(data, 8));
        let (v, m) = split_aggregate(
            &cluster,
            rdd,
            0.0f64,
            |acc, x| acc + *x as f64,
            |a, b| *a += b,
            |u, i, _n| if i == 0 { *u } else { 0.0 },
            |a, b| *a += b,
            |segs: Vec<f64>| segs.into_iter().sum::<f64>(),
            SplitAggOpts {
                parallelism: Some(2),
                selector: SelectorOpts::Forced(Algo::Tree),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(v, 2080.0);
        assert!(!m.downgraded, "a selected tree primary is not a downgrade");
        assert!(
            !cluster.history().snapshot().iter().any(|e| e.label.contains("downgrade")),
            "no downgrade event for a tree primary"
        );
    }

    #[test]
    fn auto_selector_is_exact_and_records_its_decision() {
        use sparker_tuner::CostModel;
        sparker_obs::metrics::reset();
        // 4 MiB dense aggregator on a 2-node cluster: the calibrated-default
        // model must pick a collective (not tree) and the result stays exact.
        let (v, m) = run_split_on(
            two_node_spec(),
            8,
            37,
            SplitAggOpts {
                parallelism: Some(2),
                selector: SelectorOpts::Auto(CostModel::default_model()),
                hint_bytes: 4 << 20,
                ..Default::default()
            },
        );
        assert_eq!(v, expected(37));
        assert!(!m.downgraded);
        let snap = sparker_obs::metrics::snapshot();
        assert!(
            snap.iter().any(|s| s.name.starts_with("tuner.selected.")),
            "selector decision must be exported: {snap:?}"
        );
        assert!(
            snap.iter().any(|s| s.name == "tuner.predict_vs_actual_permille"),
            "observe() must publish the feedback gauge: {snap:?}"
        );
    }

    #[test]
    fn driver_gets_exactly_one_aggregator_of_bytes() {
        let dim = 1000;
        let (_, m) = run_split(4, 2, 8, dim, SplitAggOpts::default());
        let payload = (dim * 8) as u64;
        // Headers add a little; the point is it is ~1x the aggregator, not N x.
        assert!(m.bytes_to_driver >= payload);
        assert!(m.bytes_to_driver < payload * 2, "driver got {} bytes", m.bytes_to_driver);
    }
}
