//! `treeAggregate` — Spark's multi-level aggregation (the paper's baseline).
//!
//! Mirrors `RDD.treeAggregate` in Spark:
//!
//! 1. **Compute stage** — one task per partition folds the partition into an
//!    aggregator with `seqOp`. Stock Spark keeps one aggregator per
//!    partition; with In-Memory Merge (`imm: true`) tasks merge into a
//!    single shared aggregator per executor instead (paper §3.2), shrinking
//!    the number of objects that must ever be serialized.
//! 2. **Shuffle rounds** — while more than `scale + n/scale` aggregators
//!    remain (`scale = ⌈n^(1/depth)⌉`, Spark's formula), aggregators are
//!    hashed down to `n/scale` reducers: each is serialized on its source
//!    executor, shipped over the BlockManager-class transport, deserialized
//!    and merged with `combOp` at its target.
//! 3. **Final reduce** — remaining aggregators ship to the driver, which
//!    merges them **sequentially**. This driver fan-in is the non-scalable
//!    step the paper measures as "Agg-reduce".
//!
//! Every aggregator crossing an executor boundary is whole — no splitting —
//! which is precisely the interface restriction §2.4 identifies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sparker_obs::trace::ScopedSpan;
use sparker_obs::Layer;

use sparker_net::codec::{Decoder, Encoder, Payload};
use sparker_net::topology::ExecutorId;

use crate::cluster::{LocalCluster, RecoveryPolicy};
use crate::metrics::{AggMetrics, AggStrategy};
use crate::objects::ObjectId;
use crate::ops::basic::{fold_partition, partition_assignments};
use crate::rdd::{Data, RddRef};
use crate::task::{EngineError, EngineResult, TaskFailure};

/// Options for [`tree_aggregate`].
#[derive(Debug, Clone, Copy)]
pub struct TreeAggOpts {
    /// Tree depth (Spark default 2).
    pub depth: usize,
    /// Merge task results in-memory per executor before any serialization.
    pub imm: bool,
}

impl Default for TreeAggOpts {
    fn default() -> Self {
        Self { depth: 2, imm: false }
    }
}

/// Spark's scale factor: `max(⌈n^(1/depth)⌉, 2)`.
pub(crate) fn tree_scale(partitions: usize, depth: usize) -> usize {
    ((partitions as f64).powf(1.0 / depth.max(1) as f64).ceil() as usize).max(2)
}

/// Runs tree aggregation and reports the paper's compute/reduce split.
pub fn tree_aggregate<T, U, S, C>(
    cluster: &LocalCluster,
    rdd: RddRef<T>,
    zero: U,
    seq: S,
    comb: C,
    opts: TreeAggOpts,
) -> EngineResult<(U, AggMetrics)>
where
    T: Data,
    U: Payload + Clone + Send + Sync,
    S: Fn(U, &T) -> U + Send + Sync + 'static,
    C: Fn(U, U) -> U + Send + Sync + 'static,
{
    let inner = cluster.inner().clone();
    let _action = inner.lock_action();
    let op = inner.next_op();
    let parts = rdd.num_partitions();
    if parts == 0 {
        return Err(EngineError::Invalid("tree_aggregate over zero partitions".into()));
    }
    let nexec = inner.num_executors();
    let assignments = partition_assignments(&inner, &rdd);
    let seq = Arc::new(seq);
    let comb = Arc::new(comb);
    let zero_shared = zero.clone();

    let mut metrics = AggMetrics::new(if opts.imm { AggStrategy::TreeImm } else { AggStrategy::Tree });
    let ser_bytes = Arc::new(AtomicU64::new(0));
    let messages = Arc::new(AtomicU64::new(0));
    // Op phases are Driver-layer scoped spans; AggMetrics durations are read
    // back from them, so the metrics view and the exported trace agree.
    let scope = inner.history().scope();

    // --- Stage 1: compute partition aggregators -------------------------
    let compute_span = ScopedSpan::begin(
        scope,
        Layer::Driver,
        format!("{}-compute-op{op}", metrics.strategy.name()),
    );
    let stage_label = format!("tree-compute-op{op}");
    let (policy, imm) = if opts.imm {
        (RecoveryPolicy::ResubmitStage { op }, true)
    } else {
        (RecoveryPolicy::RetryTask, false)
    };
    {
        let rdd = rdd.clone();
        let seq = seq.clone();
        let comb = comb.clone();
        let zero = zero_shared.clone();
        let (_, attempts) = inner.run_stage(
            &stage_label,
            &assignments,
            move |idx, _attempt, ctx| {
                let acc = fold_partition(&rdd, idx, ctx, zero.clone(), seq.as_ref());
                let slot = if imm { ctx.executor.0 as u64 } else { idx as u64 };
                let comb = comb.clone();
                let zero = zero.clone();
                ctx.objects.merge_in(ObjectId { op, slot }, acc, move |a, b| {
                    let old = std::mem::replace(a, zero.clone());
                    *a = comb(old, b);
                });
                Ok(())
            },
            policy,
        )?;
        metrics.task_attempts += attempts;
        metrics.stages += 1;
    }
    metrics.compute = compute_span.finish();

    // Holders of live aggregators after the compute stage.
    let mut holders: Vec<(ExecutorId, u64)> = if opts.imm {
        let mut execs: Vec<ExecutorId> = assignments.clone();
        execs.sort();
        execs.dedup();
        execs.into_iter().map(|e| (e, e.0 as u64)).collect()
    } else {
        (0..parts).map(|p| (assignments[p], p as u64)).collect()
    };

    // --- Shuffle rounds --------------------------------------------------
    let reduce_span = ScopedSpan::begin(
        scope,
        Layer::Driver,
        format!("{}-reduce-op{op}", metrics.strategy.name()),
    );
    let scale = tree_scale(parts, opts.depth);
    let mut level: u64 = 1;
    while holders.len() > scale + holders.len() / scale {
        let m = (holders.len() / scale).max(1);
        holders = shuffle_round(
            cluster, op, level, &holders, m, nexec, &comb, &zero_shared, &ser_bytes, &messages,
            &mut metrics,
        )?;
        level += 1;
    }

    // --- Final reduce at the driver --------------------------------------
    let final_label = format!("tree-final-op{op}");
    let final_assignments: Vec<ExecutorId> = holders.iter().map(|(e, _)| *e).collect();
    {
        let slots: Vec<u64> = holders.iter().map(|(_, s)| *s).collect();
        let send_inner = inner.clone();
        let ser_bytes = ser_bytes.clone();
        let messages = messages.clone();
        let (_, attempts) = inner.run_stage(
            &final_label,
            &final_assignments,
            move |idx, _attempt, ctx| {
                let u: U = ctx
                    .objects
                    .take(ObjectId { op, slot: slots[idx] })
                    .ok_or_else(|| TaskFailure { reason: format!("missing aggregator slot {}", slots[idx]) })?;
                let frame = u.to_frame();
                ser_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
                messages.fetch_add(1, Ordering::Relaxed);
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
        format!("{}-driver-merge-op{op}", metrics.strategy.name()),
    );
    let mut acc = zero;
    for exec in &final_assignments {
        let frame = inner.driver_recv(*exec)?;
        metrics.bytes_to_driver += frame.len() as u64;
        let u = U::from_frame(frame)?;
        acc = comb(acc, u);
    }
    metrics.driver_merge = merge_span.finish();
    metrics.reduce = reduce_span.finish();
    // Final-stage frames were already counted by the task-side atomics.
    metrics.ser_bytes = ser_bytes.load(Ordering::Relaxed);
    metrics.messages = messages.load(Ordering::Relaxed);
    Ok((acc, metrics))
}

/// One shuffle round: routes `holders` into `m` reducer slots.
///
/// `pub(crate)` because `split_aggregate`'s degraded fallback path reuses it
/// at the segment level (over `Vec<V>` aggregators) when the collective gang
/// exhausts its attempts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shuffle_round<U, C>(
    cluster: &LocalCluster,
    op: u64,
    level: u64,
    holders: &[(ExecutorId, u64)],
    m: usize,
    nexec: usize,
    comb: &Arc<C>,
    zero: &U,
    ser_bytes: &Arc<AtomicU64>,
    messages: &Arc<AtomicU64>,
    metrics: &mut AggMetrics,
) -> EngineResult<Vec<(ExecutorId, u64)>>
where
    U: Payload + Clone + Send + Sync,
    C: Fn(U, U) -> U + Send + Sync + 'static,
{
    let inner = cluster.inner().clone();
    let target_exec = |j: usize| crate::task::partition_owner(j, nexec);
    let slot_of = move |j: usize| (level << 32) | j as u64;

    // Routing tables, computed on the driver like Spark's DAGScheduler.
    // send_plan[src executor] = [(source slot, target j, target executor)].
    let mut send_plan: std::collections::BTreeMap<ExecutorId, Vec<(u64, usize, ExecutorId)>> =
        Default::default();
    // recv_plan[dst executor] = ordered list of source executors (one entry
    // per incoming aggregator, grouped by source to respect stream FIFO).
    let mut recv_count: std::collections::BTreeMap<ExecutorId, std::collections::BTreeMap<ExecutorId, usize>> =
        Default::default();
    for (i, (src, slot)) in holders.iter().enumerate() {
        let j = i % m;
        let dst = target_exec(j);
        send_plan.entry(*src).or_default().push((*slot, j, dst));
        *recv_count.entry(dst).or_default().entry(*src).or_default() += 1;
    }

    let senders: Vec<ExecutorId> = send_plan.keys().copied().collect();
    let receivers: Vec<ExecutorId> = recv_count.keys().copied().collect();
    // Sends enqueue before receives so single-core executors cannot wedge.
    let mut stage_assignments = senders.clone();
    stage_assignments.extend(receivers.iter().copied());
    let n_send = senders.len();

    let send_plan = Arc::new(send_plan);
    let recv_count = Arc::new(recv_count);
    let label = format!("tree-shuffle-op{op}-l{level}");
    {
        let inner2 = inner.clone();
        let senders = senders.clone();
        let receivers = receivers.clone();
        let comb = comb.clone();
        let zero = zero.clone();
        let ser_bytes = ser_bytes.clone();
        let messages = messages.clone();
        let (_, attempts) = inner.run_stage(
            &label,
            &stage_assignments,
            move |idx, _attempt, ctx| {
                if idx < n_send {
                    let plan = &send_plan[&senders[idx]];
                    for (slot, j, dst) in plan {
                        let u: U = ctx
                            .objects
                            .take(ObjectId { op, slot: *slot })
                            .ok_or_else(|| TaskFailure { reason: format!("missing aggregator slot {slot}") })?;
                        let mut enc = Encoder::with_capacity(u.size_hint() + 8);
                        enc.put_usize(*j);
                        u.encode_into(&mut enc);
                        let frame = enc.finish();
                        ser_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
                        messages.fetch_add(1, Ordering::Relaxed);
                        inner2.bm_send(ctx.executor, *dst, frame)?;
                    }
                } else {
                    let me = receivers[idx - n_send];
                    for (src, count) in &recv_count[&me] {
                        for _ in 0..*count {
                            let frame = inner2.bm_recv(ctx.executor, *src)?;
                            let mut dec = Decoder::new(frame);
                            let j = dec.get_usize().map_err(TaskFailure::from)?;
                            let u = U::decode_from(&mut dec).map_err(TaskFailure::from)?;
                            let comb = comb.clone();
                            let zero = zero.clone();
                            ctx.objects.merge_in(ObjectId { op, slot: slot_of(j) }, u, move |a, b| {
                                let old = std::mem::replace(a, zero.clone());
                                *a = comb(old, b);
                            });
                        }
                    }
                }
                Ok(())
            },
            RecoveryPolicy::RetryTask,
        )?;
        metrics.task_attempts += attempts;
        metrics.stages += 1;
    }

    Ok((0..m).map(|j| (target_exec(j), slot_of(j))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use crate::rdds::ParallelCollection;

    fn run_tree(parts: usize, imm: bool, executors: usize) -> (u64, AggMetrics) {
        let cluster = LocalCluster::new(ClusterSpec::local(executors, 2));
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=100u64).collect(), parts));
        tree_aggregate(
            &cluster,
            rdd,
            0u64,
            |acc, x| acc + *x,
            |a, b| a + b,
            TreeAggOpts { depth: 2, imm },
        )
        .unwrap()
    }

    #[test]
    fn tree_scale_matches_spark_formula() {
        assert_eq!(tree_scale(4, 2), 2);
        assert_eq!(tree_scale(48, 2), 7);
        assert_eq!(tree_scale(100, 2), 10);
        assert_eq!(tree_scale(1000, 3), 10);
        assert_eq!(tree_scale(1, 2), 2);
    }

    #[test]
    fn tree_aggregate_sums_correctly() {
        for parts in [1, 2, 7, 16, 48] {
            let (sum, m) = run_tree(parts, false, 4);
            assert_eq!(sum, 5050, "parts={parts}");
            assert_eq!(m.strategy, AggStrategy::Tree);
            assert!(m.stages >= 2);
        }
    }

    #[test]
    fn tree_aggregate_with_imm_matches() {
        for parts in [1, 5, 16] {
            let (sum, m) = run_tree(parts, true, 4);
            assert_eq!(sum, 5050, "parts={parts}");
            assert_eq!(m.strategy, AggStrategy::TreeImm);
        }
    }

    #[test]
    fn imm_reduces_messages_and_bytes() {
        let (_, plain) = run_tree(32, false, 4);
        let (_, imm) = run_tree(32, true, 4);
        assert!(
            imm.messages < plain.messages,
            "IMM should shrink message count: {} vs {}",
            imm.messages,
            plain.messages
        );
        assert!(imm.ser_bytes < plain.ser_bytes);
    }

    #[test]
    fn shuffle_rounds_trigger_for_many_partitions() {
        let (_, m) = run_tree(48, false, 4);
        // 48 partitions, scale 7: one shuffle round (48 -> 6) + compute + final.
        assert_eq!(m.stages, 3);
    }

    #[test]
    fn single_executor_tree_works() {
        let (sum, _) = run_tree(8, false, 1);
        assert_eq!(sum, 5050);
    }

    #[test]
    fn compute_stage_fault_is_retried() {
        let cluster = LocalCluster::new(ClusterSpec::local(2, 2));
        // The op id is deterministic per cluster: first op is 1.
        cluster.fault_plan().fail_once("tree-compute-op1", 0);
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=10u64).collect(), 4));
        let (sum, m) = tree_aggregate(
            &cluster,
            rdd,
            0u64,
            |acc, x| acc + *x,
            |a, b| a + b,
            TreeAggOpts::default(),
        )
        .unwrap();
        assert_eq!(sum, 55);
        // 4 partitions, scale 2: no shuffle round (4 <= 2 + 4/2), so all 4
        // partition aggregators go straight to the final stage.
        assert_eq!(m.task_attempts, 4 + 1 + 4, "4 compute + 1 retry + 4 final");
    }

    #[test]
    fn imm_stage_fault_resubmits_whole_stage_and_stays_correct() {
        let cluster = LocalCluster::new(ClusterSpec::local(2, 2));
        cluster.fault_plan().fail_once("tree-compute-op1", 1);
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=10u64).collect(), 4));
        let (sum, m) = tree_aggregate(
            &cluster,
            rdd,
            0u64,
            |acc, x| acc + *x,
            |a, b| a + b,
            TreeAggOpts { depth: 2, imm: true },
        )
        .unwrap();
        assert_eq!(sum, 55, "resubmission must not double-count");
        assert!(m.task_attempts >= 8, "whole stage resubmitted");
    }
}
