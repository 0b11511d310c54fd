//! Split aggregation — the Sparker contribution (paper §3.1, §4).
//!
//! The pipeline exactly follows the paper:
//!
//! 1. **Reduced-result stage (IMM)** — the paper's SpawnRDD fold: every
//!    executor runs one lane task per core, each folding a contiguous block
//!    of the executor's partitions, in index order, into one accumulator with
//!    `seqOp`, then merging it into the executor's shared aggregator in the
//!    mutable object manager (`imm_stage`). After the stage there is
//!    exactly one aggregator `U` per executor (executors with no partitions
//!    hold the zero value). Nothing has been serialized yet.
//! 2. **Statically-scheduled ring stage (the paper's `SpawnRDD`)** — one
//!    task pinned to every executor. Each task splits its aggregator into
//!    `P·N` segments by calling the user's `splitOp(u, i, n)` from `P`
//!    parallel threads, then runs ring reduce-scatter over the parallel
//!    directed ring through the scalable communicator, merging segments with
//!    the user's `reduceOp`. Each executor finishes owning `P` fully-reduced
//!    segments. (The selected algorithm is run by [`crate::ops::reduce`],
//!    the same dispatch the multi-process executor uses.)
//! 3. **Gather + concat** — owned segments are serialized, in index order,
//!    and collected to the driver over Spark's normal result path, where the
//!    user's `concatOp` reassembles the final value `V`. Concat receives the
//!    paper's `Seq[V]` as [`Segments`]: each segment is decoded from its
//!    executor's frame when concat asks for it, so next to the frames and
//!    concat's output the driver holds at most one decoded segment, not a
//!    second, decoded copy of the aggregator. A malformed gather is an
//!    error and concat's value is dropped.
//!
//! Compared to tree aggregation, per-executor traffic drops from
//! `O(log N)` whole aggregators to `(N−1)/N`-th of one aggregator, and the
//! driver receives exactly one aggregator's worth of bytes regardless of
//! cluster size.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sparker_obs::trace::ScopedSpan;
use sparker_obs::Layer;

use sparker_net::codec::{F64Array, Payload};
use sparker_net::error::NetResult;
use sparker_net::topology::ExecutorId;

use sparker_collectives::gather::{Gather, Segments};
use sparker_collectives::ring::OwnedSegment;
use sparker_collectives::segment::{merge_segments, slice_bounds, split_dense};
use sparker_collectives::RingComm;

use sparker_tuner::Algo;

use crate::cluster::{ClusterInner, LocalCluster, RecoveryPolicy};
use crate::metrics::AggMetrics;
use crate::objects::ObjectId;
use crate::ops::basic::{fold_partition, partition_assignments};
use crate::ops::reduce::{reduce_scatter, reduce_scatter_dense, segment_count, strategy_of};
use crate::ops::tree_aggregate::{reduce_to_driver, tree_scale};
use crate::rdd::{Data, RddRef, TaskContext};
use crate::task::{EngineError, EngineResult, TaskFailure};

/// Slot base of the fallback path's per-executor segment vectors. Disjoint
/// from the IMM slots (`0..nexec`) and the shuffle-round slots
/// (`level << 32 | j`, small `level`).
const FALLBACK_SLOT_BASE: u64 = 2 << 48;

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
    /// The reduction algorithm to run; the default is the paper's flat
    /// unpipelined ring. `Algo::Tree` runs the shuffle tree as the primary
    /// path (no downgrade accounting). A caller that wants the cost model's
    /// pick passes `sparker_tuner::Selector::select(&shape).algo`.
    pub algo: Algo,
}

impl Default for SplitAggOpts {
    fn default() -> Self {
        Self { parallelism: None, job_id: 0, epoch_ns: 0, algo: Algo::FlatRing }
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
/// * `concat_op(segments) -> V` — reassembles the final value from the
///   segments in index order, decoded one at a time ([`Segments`]).
///
/// When `split_op` and `reduce_op` are the library's own [`split_dense`]
/// and [`merge_segments`] (the same function items, not closures over the
/// same types), the ring stage reduces the executor's aggregator in place
/// instead of splitting copies of it ([`reduce_scatter_dense`]); the result
/// is bit-identical.
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
    C: FnOnce(Segments<'_, V>) -> V,
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

    let algo = opts.algo;
    if algo.chunks() == 0 {
        return Err(EngineError::Invalid("split_aggregate needs chunks >= 1".into()));
    }

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

    // One zero per op: every stage closure borrows it.
    let zero = Arc::new(zero);

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
    let mut sc_before = cluster.sc_stats();
    let ring = inner.build_ring(parallelism);
    let total_segments = segment_count(algo, &ring);

    let ring_label = format!("split-ring-op{op}");
    let all_execs: Vec<ExecutorId> = (0..nexec).map(|e| ExecutorId(e as u32)).collect();
    let dense_sum = is_fn_item::<Sp, _>(split_dense) && is_fn_item::<R, _>(merge_segments);
    let split = Arc::new(split_op);
    let reduce = Arc::new(reduce_op);
    // `Some(attempts)` once the ring stage ran; `None` sends the op down the
    // shuffle tree: deliberately for `Algo::Tree`, or after the gang
    // exhausted `max_collective_attempts`.
    let ring_attempts = if algo == Algo::Tree {
        None
    } else {
        let inner2 = inner.clone();
        let split = split.clone();
        let reduce = reduce.clone();
        let zero = zero.clone();
        let task_ser_bytes = ser_bytes.clone();
        let epoch_ns = opts.epoch_ns;
        let outcome = inner.run_stage(
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
                // fallback finds it intact if the gang exhausts.
                let owned: Vec<OwnedSegment<V>> = with_aggregator(ctx, op, &zero, |u| {
                    if dense_sum {
                        reduce_dense(&comm, algo, u, total_segments)
                    } else {
                        reduce_scatter(&comm, algo, &|g| split(u, g, total_segments), &merge)
                    }
                })
                .map_err(TaskFailure::from)?;

                // Gather: the owned segments, in the ascending index order
                // the driver's lazy decode reads them in, are this task's
                // result over the normal (BlockManager) result path.
                let frame = owned.to_frame();
                task_ser_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
                inner2.bm_send_to_driver(ctx.executor, frame)?;
                Ok(owned.len())
            },
            RecoveryPolicy::ResubmitGang { op },
        );
        match outcome {
            Ok((_, attempts)) => Some(attempts),
            Err(EngineError::TaskFailed { stage, .. }) if stage == ring_label => {
                // --- Graceful degradation ---------------------------------
                // The collective path is unusable, but the per-executor
                // aggregators are intact (the ring stage only peeked).
                cluster.history().record(
                    &format!("split-downgrade-op{op}"),
                    0,
                    0,
                    std::time::Duration::ZERO,
                );
                metrics.downgraded = true;
                // The op counts its tree alone: how far the failed gang
                // attempts got before they gave up is a matter of timing.
                sc_before = cluster.sc_stats();
                ser_bytes.store(0, Ordering::Relaxed);
                None
            }
            Err(e) => return Err(e),
        }
    };

    let result = match ring_attempts {
        Some(attempts) => {
            metrics.task_attempts += attempts;
            metrics.stages += 1;

            // --- Driver: gather + concat --------------------------------
            let merge_span = ScopedSpan::begin(
                scope,
                Layer::Driver,
                format!("{}-driver-merge-op{op}", strategy.name()),
            );
            let mut frames = Vec::with_capacity(nexec);
            for exec in &all_execs {
                let frame = inner.driver_recv(*exec)?;
                metrics.bytes_to_driver += frame.len() as u64;
                frames.push(frame);
            }
            let mut gather = Gather::new(total_segments, frames)?;
            let result = concat_op(gather.segments());
            gather.finish()?;
            metrics.driver_merge = merge_span.finish();
            metrics.messages += nexec as u64;
            result
        }
        None => {
            // --- Tree path ----------------------------------------------
            // Finish the op over the BlockManager path with a tree of whole
            // segment vectors: slower, but recoverable one task at a time.
            // Seed: each executor splits its aggregator into the full
            // segment vector (same indexing as the ring path). Replace-merge
            // keeps retries idempotent.
            let (_, attempts) = inner.run_stage(
                &format!("split-fallback-op{op}"),
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

            // Shuffle the segment vectors down `tree_aggregate`'s tree with
            // an element-wise merge; the empty vector is the zero.
            let comb = Arc::new(move |mut a: Vec<V>, b: Vec<V>| {
                if a.is_empty() {
                    return b;
                }
                for (x, y) in a.iter_mut().zip(b) {
                    reduce(x, y);
                }
                a
            });
            let holders: Vec<(ExecutorId, u64)> = all_execs
                .iter()
                .map(|e| (*e, FALLBACK_SLOT_BASE | e.0 as u64))
                .collect();
            reduce_to_driver(
                cluster,
                op,
                holders,
                tree_scale(nexec, inner.spec().tree_depth),
                &format!("split-fallback-final-op{op}"),
                &comb,
                Arc::new(Vec::new()),
                |segs: Vec<V>| {
                    if segs.len() != total_segments {
                        return Err(EngineError::Invalid(format!(
                            "fallback produced {} segments, expected {total_segments}",
                            segs.len()
                        )));
                    }
                    Ok(concat_op(Segments::from(segs)))
                },
                &mut metrics,
            )?
        }
    };

    // Everything the op parked in executor object managers — peeked inputs,
    // fallback vectors, shuffle slots — is dead now.
    for e in &all_execs {
        inner.executor_ctx(*e).objects.clear_op(op);
    }
    metrics.reduce = reduce_span.finish();

    // Frames on the ring and the gather, beside what the tree path counted.
    let sc_after = cluster.sc_stats();
    metrics.ser_bytes += ser_bytes.load(Ordering::Relaxed) + (sc_after.bytes - sc_before.bytes);
    metrics.messages += sc_after.messages - sc_before.messages;
    Ok((result, metrics))
}

/// Whether `F` is the type of the function item `f`. Every function item
/// has its own type, so this names one function exactly.
fn is_fn_item<F: 'static, G: 'static>(_f: G) -> bool {
    TypeId::of::<F>() == TypeId::of::<G>()
}

/// The ring stage of an op whose `splitOp`/`reduceOp` are [`split_dense`]
/// and [`merge_segments`]: those function items fix `U = F64Array` and
/// `V = SumSegment`, so both casts hold.
fn reduce_dense<U: 'static, V: 'static>(
    comm: &RingComm,
    algo: Algo,
    u: &U,
    total: usize,
) -> NetResult<Vec<OwnedSegment<V>>> {
    let data = &(u as &dyn Any).downcast_ref::<F64Array>().expect("split_dense takes an F64Array").0;
    let bounds = |g| {
        let (lo, hi) = slice_bounds(data.len(), g, total);
        lo..hi
    };
    let mut owned = Some(reduce_scatter_dense(comm, algo, data, &bounds)?);
    Ok((&mut owned as &mut dyn Any)
        .downcast_mut::<Option<Vec<OwnedSegment<V>>>>()
        .and_then(Option::take)
        .expect("merge_segments reduces SumSegments"))
}

/// Runs `f` on the aggregator the IMM stage of `op` left on this executor,
/// borrowed in place from the object manager (see
/// [`crate::objects::MutableObjectManager::with_or`]), or on the op's shared
/// `zero` when the executor owns no partition.
pub(crate) fn with_aggregator<U: Send + Sync + 'static, R>(
    ctx: &TaskContext,
    op: u64,
    zero: &Arc<U>,
    f: impl FnOnce(&U) -> R,
) -> R {
    ctx.objects.with_or(ObjectId { op, slot: ctx.executor.0 as u64 }, zero.as_ref(), f)
}

/// The reduced-result stage (IMM) of split and IMM tree
/// aggregation, in the shape of the paper's SpawnRDD fold (§4).
///
/// Every executor runs `min(cores_per_executor, its partitions)` lane
/// tasks. A lane owns a contiguous block of that executor's partitions, in
/// index order: it clones `zero` once, folds every partition of its block
/// into that one accumulator with `seq_op`, and merges it into the
/// executor's aggregator of `op` once. With one core per executor `merge_op`
/// never runs; with more, lanes merge in completion order. After the stage
/// there is exactly one aggregator per executor and nothing has been
/// serialized. A failed lane resubmits the whole stage. Returns the stage's
/// task attempts.
pub(crate) fn imm_stage<T, U, S, M>(
    inner: &Arc<ClusterInner>,
    rdd: &RddRef<T>,
    op: u64,
    label: &str,
    zero: &Arc<U>,
    seq_op: S,
    merge_op: M,
) -> EngineResult<u32>
where
    T: Data,
    U: Clone + Send + Sync + 'static,
    S: Fn(U, &T) -> U + Send + Sync + 'static,
    M: Fn(&mut U, U) + Send + Sync + 'static,
{
    let lanes = imm_lanes(&partition_assignments(inner, rdd), inner.spec().cores_per_executor);
    let executors: Vec<ExecutorId> = lanes.iter().map(|(e, _)| *e).collect();
    let rdd = rdd.clone();
    let zero = zero.clone();
    let (_, attempts) = inner.run_stage(
        label,
        &executors,
        move |lane, _attempt, ctx| {
            let acc = lanes[lane].1.iter().fold(U::clone(&zero), |acc, &part| {
                fold_partition(&rdd, part, ctx, acc, &seq_op)
            });
            ctx.objects.merge_in(ObjectId { op, slot: ctx.executor.0 as u64 }, acc, &merge_op);
            Ok(())
        },
        RecoveryPolicy::ResubmitStage { op },
    )?;
    Ok(attempts)
}

/// Splits each executor's partitions, in index order, into
/// `min(cores, partitions)` contiguous blocks: one `(executor, block)` per
/// lane, executors in id order.
fn imm_lanes(assignments: &[ExecutorId], cores: usize) -> Vec<(ExecutorId, Vec<usize>)> {
    let mut by_executor: BTreeMap<ExecutorId, Vec<usize>> = BTreeMap::new();
    for (part, exec) in assignments.iter().enumerate() {
        by_executor.entry(*exec).or_default().push(part);
    }
    let mut lanes = Vec::new();
    for (exec, parts) in by_executor {
        let n = cores.clamp(1, parts.len());
        for lane in 0..n {
            let (lo, hi) = slice_bounds(parts.len(), lane, n);
            lanes.push((exec, parts[lo..hi].to_vec()));
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use crate::metrics::AggStrategy;
    use crate::rdds::ParallelCollection;
    use sparker_collectives::segment::SumSegment;
    use sparker_net::codec::{Decoder, Encoder, F64Array};
    use sparker_net::error::{NetError, NetResult};
    use std::sync::atomic::{AtomicBool, AtomicIsize};

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
            |segs: Segments<F64Array>| {
                F64Array(segs.into_iter().flat_map(|s| s.0).collect())
            },
            opts,
        )
        .unwrap();
        (v.0, m)
    }

    /// Split aggregation of non-integer dense data with the library's
    /// `split_dense` and the given `reduceOp`, on 3 executors and 2 channels.
    fn run_dense_with<R>(reduce: R) -> Vec<f64>
    where
        R: Fn(&mut SumSegment, SumSegment) + Send + Sync + 'static,
    {
        let cluster = LocalCluster::new(ClusterSpec::local(3, 1));
        let data: Vec<u64> = (1..=24).collect();
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(data, 6));
        let (v, _) = split_aggregate(
            &cluster,
            rdd,
            F64Array(vec![0.0; 29]),
            |mut acc: F64Array, x: &u64| {
                for (i, a) in acc.0.iter_mut().enumerate() {
                    *a += (*x as f64).sqrt() / (i + 3) as f64;
                }
                acc
            },
            |a: &mut F64Array, b: F64Array| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            split_dense,
            reduce,
            |segs: Segments<SumSegment>| SumSegment(segs.flat_map(|s| s.0).collect()),
            SplitAggOpts { parallelism: Some(2), algo: Algo::ChunkedRing(2), ..Default::default() },
        )
        .unwrap();
        v.0
    }

    #[test]
    fn only_the_library_callbacks_take_the_dense_kernel() {
        fn is_split_dense<F: 'static>(_: &F) -> bool {
            is_fn_item::<F, _>(split_dense)
        }
        assert!(is_split_dense(&split_dense));
        assert!(!is_split_dense(&|u: &F64Array, i, n| split_dense(u, i, n)));
        assert!(!is_split_dense(&merge_segments));

        // The kernel (the library's merge_segments) and the owned path (a
        // closure doing the same add) agree bit for bit.
        let kernel = run_dense_with(merge_segments);
        let owned = run_dense_with(|a: &mut SumSegment, b| merge_segments(a, b));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&kernel), bits(&owned));
        // A closure over the same types keeps its own semantics: the max of
        // the executors' aggregators, not their sum.
        let max = run_dense_with(|a: &mut SumSegment, b: SumSegment| {
            for (x, y) in a.0.iter_mut().zip(b.0) {
                *x = x.max(y);
            }
        });
        assert!(max.iter().zip(&kernel).all(|(m, s)| m < s), "{max:?} vs {kernel:?}");
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
            |segs: Segments<u64>| segs.into_iter().sum::<u64>(),
            opts,
        );
        assert!(matches!(got, Err(EngineError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn split_aggregate_stamps_history_with_job_id() {
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
            |segs: Segments<u64>| segs.into_iter().sum::<u64>(),
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
    fn imm_lane_folds_its_block_in_partition_order() {
        // One lane folds both partitions into one accumulator: the serial
        // left fold. Folding each partition from zero and merging the two
        // rounds differently: 1e16 + 4 rather than 1e16.
        use crate::rdds::GeneratedRdd;
        let items = [1e16, 1.0, 1.0, 1.0, 1.0];
        let serial = items.iter().fold(0.0f64, |a, x| a + x);
        assert_ne!(serial, items[0] + items[1..].iter().sum::<f64>());
        let cluster = LocalCluster::new(ClusterSpec::local(1, 1));
        let rdd: RddRef<f64> = Arc::new(GeneratedRdd::new(2, move |p| {
            if p == 0 {
                items[..1].to_vec()
            } else {
                items[1..].to_vec()
            }
        }));
        let (v, _) = split_aggregate(
            &cluster,
            rdd,
            0.0f64,
            |a: f64, x: &f64| a + x,
            |a: &mut f64, b: f64| *a += b,
            |u: &f64, i: usize, _n: usize| if i == 0 { *u } else { 0.0 },
            |a: &mut f64, b: f64| *a += b,
            |segs: Segments<f64>| segs.into_iter().sum::<f64>(),
            SplitAggOpts::default(),
        )
        .unwrap();
        assert_eq!(v.to_bits(), serial.to_bits(), "{v} vs the serial fold's {serial}");
    }

    #[test]
    fn imm_runs_one_task_per_lane() {
        // (executors, cores, partitions) -> IMM tasks: min(cores, its
        // partitions) lanes per executor, none on an executor without any.
        for (executors, cores, parts, lanes) in [(2, 2, 6, 4), (3, 1, 2, 2), (4, 1, 8, 4)] {
            let cluster = LocalCluster::new(ClusterSpec::local(executors, cores));
            let data: Vec<u64> = (1..=64).collect();
            let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(data, parts));
            let (v, _) = split_aggregate(
                &cluster,
                rdd,
                0.0f64,
                |acc, x| acc + *x as f64,
                |a, b| *a += b,
                |u, i, _n| if i == 0 { *u } else { 0.0 },
                |a, b| *a += b,
                |segs: Segments<f64>| segs.into_iter().sum::<f64>(),
                SplitAggOpts::default(),
            )
            .unwrap();
            assert_eq!(v, 2080.0, "{executors}x{cores}, {parts} partitions");
            let imm = cluster
                .history()
                .snapshot()
                .into_iter()
                .find(|e| e.label == "split-imm-op1")
                .expect("IMM stage recorded");
            assert_eq!(imm.tasks, lanes, "{executors}x{cores}, {parts} partitions");
        }
    }

    #[test]
    fn imm_lanes_are_contiguous_blocks_in_partition_order() {
        let (e0, e1) = (ExecutorId(0), ExecutorId(1));
        // Round-robin placement: executor 0 owns 0, 2, 4; executor 1 owns 1, 3.
        let lanes = imm_lanes(&[e0, e1, e0, e1, e0], 2);
        assert_eq!(lanes, vec![(e0, vec![0, 2]), (e0, vec![4]), (e1, vec![1]), (e1, vec![3])]);
        assert_eq!(imm_lanes(&[e1, e1], 4), vec![(e1, vec![0]), (e1, vec![1])]);
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
                    algo: Algo::Halving,
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
                    algo,
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
            |segs: Segments<f64>| segs.into_iter().sum::<f64>(),
            SplitAggOpts {
                algo: Algo::ChunkedRing(0),
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
                algo: Algo::Hierarchical,
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
                algo: Algo::Hierarchical,
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
            |segs: Segments<f64>| segs.into_iter().sum::<f64>(),
            SplitAggOpts {
                parallelism: Some(2),
                algo: Algo::Tree,
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

    /// Decoded `Tracked` values alive right now.
    static LIVE_DECODED: AtomicIsize = AtomicIsize::new(0);

    /// A `u64` sum segment that counts its decoded instances while they live.
    #[derive(Debug)]
    struct Tracked {
        values: Vec<u64>,
        decoded: bool,
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Self { values: self.values.clone(), decoded: false }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            if self.decoded {
                LIVE_DECODED.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    impl Payload for Tracked {
        fn encode_into(&self, enc: &mut Encoder) {
            enc.put_u64_slice(&self.values);
        }
        fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
            let values = dec.get_u64_vec()?;
            LIVE_DECODED.fetch_add(1, Ordering::SeqCst);
            Ok(Self { values, decoded: true })
        }
        fn size_hint(&self) -> usize {
            8 + 8 * self.values.len()
        }
    }

    #[test]
    fn driver_holds_at_most_one_gathered_segment_during_concat() {
        let dim = 37;
        let cluster = LocalCluster::local(4, 1);
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=64).collect(), 8));
        let most_alive = Arc::new(AtomicIsize::new(0));
        let seen = most_alive.clone();
        let (v, _) = split_aggregate(
            &cluster,
            rdd,
            vec![0u64; dim],
            |mut acc: Vec<u64>, x: &u64| {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += x * (j as u64 + 1);
                }
                acc
            },
            |a: &mut Vec<u64>, b: Vec<u64>| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            },
            |u: &Vec<u64>, i: usize, n: usize| {
                let (lo, hi) = slice_bounds(u.len(), i, n);
                Tracked { values: u[lo..hi].to_vec(), decoded: false }
            },
            |a: &mut Tracked, b: Tracked| {
                for (x, y) in a.values.iter_mut().zip(&b.values) {
                    *x += y;
                }
            },
            move |segs: Segments<Tracked>| {
                assert_eq!(segs.len(), 8, "P·N = 2·4 segments");
                let alive = LIVE_DECODED.load(Ordering::SeqCst);
                assert_eq!(alive, 0, "nothing decoded before concat asks");
                let mut values = Vec::new();
                for seg in segs {
                    let alive = LIVE_DECODED.load(Ordering::SeqCst);
                    assert!(alive <= 1, "{alive} decoded segments alive");
                    seen.fetch_max(alive, Ordering::SeqCst);
                    values.extend_from_slice(&seg.values);
                }
                Tracked { values, decoded: false }
            },
            SplitAggOpts { parallelism: Some(2), ..Default::default() },
        )
        .unwrap();
        let total: u64 = (1..=64).sum();
        let serial: Vec<u64> = (0..dim as u64).map(|j| total * (j + 1)).collect();
        assert_eq!(v.values, serial);
        assert_eq!(most_alive.load(Ordering::SeqCst), 1, "the count saw each decoded segment");
    }

    /// A `u64` whose decode rejects values above 5, so a sum that only the
    /// owning executor ever holds fails to decode at the driver alone.
    #[derive(Debug, Clone, PartialEq)]
    struct Capped(u64);

    impl Payload for Capped {
        fn encode_into(&self, enc: &mut Encoder) {
            enc.put_u64(self.0);
        }
        fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
            match dec.get_u64()? {
                v if v > 5 => Err(NetError::Codec(format!("{v} is over the cap"))),
                v => Ok(Self(v)),
            }
        }
        fn size_hint(&self) -> usize {
            8
        }
    }

    #[test]
    fn malformed_gather_is_an_error_not_concats_partial_value() {
        // Executors hold 3 and 4; segment 1 carries them, and only its
        // owner ever holds their sum 7. Concat sees segment 0, then the
        // sequence ends at the segment the driver cannot decode.
        let cluster = LocalCluster::local(2, 1);
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(vec![3, 4], 2));
        let concat_ran = Arc::new(AtomicBool::new(false));
        let ran = concat_ran.clone();
        let got = split_aggregate(
            &cluster,
            rdd,
            0u64,
            |a: u64, x: &u64| a + x,
            |a: &mut u64, b: u64| *a += b,
            |u: &u64, i: usize, _n: usize| Capped(if i == 1 { *u } else { 0 }),
            |a: &mut Capped, b: Capped| a.0 += b.0,
            move |segs: Segments<Capped>| {
                ran.store(true, Ordering::SeqCst);
                Capped(segs.map(|s| s.0).sum())
            },
            SplitAggOpts { parallelism: Some(1), ..Default::default() },
        );
        assert!(concat_ran.load(Ordering::SeqCst), "the failure is in the gather, not the ring");
        assert!(
            matches!(got, Err(EngineError::Net(NetError::Codec(_)))),
            "{got:?}"
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
