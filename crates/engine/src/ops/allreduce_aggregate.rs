//! Allreduce aggregation — an extension beyond the paper.
//!
//! The paper's §6 observes that once split aggregation removes the
//! reduction bottleneck, **the driver becomes the next bottleneck**: the
//! reduced aggregator still funnels into the driver every iteration, and
//! the updated model broadcasts back out. The classic fix (what
//! parameter-server-free training systems converged on) is **allreduce**:
//! finish the ring reduce-scatter with a ring allgather so *every executor*
//! holds the fully-reduced value, and keep it there.
//!
//! [`allreduce_aggregate`] does exactly that on top of the same SAI
//! callbacks: after it completes, each executor's mutable object manager
//! holds a complete copy of the reduced value (retrievable in later stages
//! via [`executor_copy_slot`]), and the driver receives exactly one copy —
//! from one executor — for monitoring. Driver traffic no longer scales
//! with anything.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sparker_obs::trace::ScopedSpan;
use sparker_obs::Layer;

use sparker_net::codec::Payload;
use sparker_net::topology::ExecutorId;

use sparker_collectives::allreduce::ring_allreduce_by;

use crate::cluster::{LocalCluster, RecoveryPolicy};
use crate::metrics::{AggMetrics, AggStrategy};
use crate::objects::ObjectId;
use crate::ops::reduce::split_parallel;
use crate::ops::split_aggregate::{imm_stage, with_aggregator};
use crate::rdd::{Data, RddRef};
use crate::task::{EngineError, EngineResult, TaskFailure};

/// Result of an allreduce aggregation.
pub struct AllReduceOutput<V> {
    /// The reduced value, as seen by the driver.
    pub value: V,
    pub metrics: AggMetrics,
    /// Operation id: each executor's resident copy lives at
    /// [`executor_copy_slot`]`(op)` in its mutable object manager.
    pub op: u64,
}

/// Slot where an executor's resident copy of the allreduced value lives.
pub const fn executor_copy_slot(op: u64) -> ObjectId {
    ObjectId { op, slot: 1 << 48 }
}

/// Runs IMM + ring reduce-scatter + ring allgather, leaving the reduced
/// value resident on every executor. Same callbacks as
/// [`crate::ops::split_aggregate::split_aggregate`], except `concat_op`
/// runs on the executors (hence `Send + Sync`).
#[allow(clippy::too_many_arguments)]
pub fn allreduce_aggregate<T, U, V, S, M, Sp, R, C>(
    cluster: &LocalCluster,
    rdd: RddRef<T>,
    zero: U,
    seq_op: S,
    merge_op: M,
    split_op: Sp,
    reduce_op: R,
    concat_op: C,
    parallelism: Option<usize>,
) -> EngineResult<AllReduceOutput<V>>
where
    T: Data,
    U: Clone + Send + Sync + 'static,
    V: Payload + Clone + Send + Sync + 'static,
    S: Fn(U, &T) -> U + Send + Sync + 'static,
    M: Fn(&mut U, U) + Send + Sync + 'static,
    Sp: Fn(&U, usize, usize) -> V + Send + Sync + 'static,
    R: Fn(&mut V, V) + Send + Sync + 'static,
    C: Fn(Vec<V>) -> V + Send + Sync + 'static,
{
    let inner = cluster.inner().clone();
    let _action = inner.lock_action();
    let op = inner.next_op();
    if rdd.num_partitions() == 0 {
        return Err(EngineError::Invalid("allreduce_aggregate over zero partitions".into()));
    }
    let nexec = inner.num_executors();
    let parallelism = parallelism.unwrap_or(inner.spec().ring_parallelism);
    let mut metrics = AggMetrics::new(AggStrategy::Split);
    let ser_bytes = Arc::new(AtomicU64::new(0));
    // Op phases are Driver-layer scoped spans; AggMetrics durations are read
    // back from them, so the metrics view and the exported trace agree.
    let scope = inner.history().scope();

    // --- Stage 1: reduced-result stage (IMM, LocalFold) ------------------
    let compute_span =
        ScopedSpan::begin(scope, Layer::Driver, format!("allreduce-compute-op{op}"));
    metrics.task_attempts +=
        imm_stage(&inner, &rdd, op, &format!("allreduce-imm-op{op}"), &zero, seq_op, merge_op)?;
    metrics.stages += 1;
    metrics.compute = compute_span.finish();

    // --- Stage 2: ring reduce-scatter + allgather on every executor ------
    let reduce_span =
        ScopedSpan::begin(scope, Layer::Driver, format!("allreduce-reduce-op{op}"));
    let sc_before = cluster.sc_stats();
    let ring = inner.build_ring(parallelism);
    let n = ring.size();
    let total_segments = parallelism * n;
    let all_execs: Vec<ExecutorId> = (0..nexec).map(|e| ExecutorId(e as u32)).collect();
    // Executor 0 reports the (single) driver copy.
    let reporter = ExecutorId(0);
    {
        let inner2 = inner.clone();
        let ring = ring.clone();
        let split = Arc::new(split_op);
        let reduce = Arc::new(reduce_op);
        let concat = Arc::new(concat_op);
        let zero = zero.clone();
        let ser_bytes = ser_bytes.clone();
        let (_, attempts) = inner.run_stage(
            &format!("allreduce-ring-op{op}"),
            &all_execs,
            move |_idx, attempt, ctx| {
                // Borrowed, not taken: a gang resubmission re-reads the same
                // input aggregator, so it must survive a failed attempt.
                let segments: Vec<V> = with_aggregator(ctx, op, &zero, |u| {
                    split_parallel(&|g| split(u, g, total_segments), total_segments, parallelism)
                });

                let comm = inner2.collective_comm(&ring, ctx.executor, op, attempt);
                let all = ring_allreduce_by(&comm, segments, &|a: &mut V, b: V| reduce(a, b))
                    .map_err(TaskFailure::from)?;
                let value = concat(all);

                if ctx.executor == reporter {
                    let frame = value.to_frame();
                    ser_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
                    inner2.bm_send_to_driver(ctx.executor, frame)?;
                }
                // Resident copy for later stages (e.g. the next iteration's
                // gradient computation reading updated weights locally).
                ctx.objects.merge_in(executor_copy_slot(op), value, |a, b| *a = b);
                Ok(())
            },
            RecoveryPolicy::ResubmitGang { op },
        )?;
        metrics.task_attempts += attempts;
        metrics.stages += 1;
    }
    // Input aggregators were only peeked (gang retries re-read them); drop
    // them now so executors keep just their resident reduced copy.
    for e in &all_execs {
        inner.executor_ctx(*e).objects.take::<U>(ObjectId { op, slot: e.0 as u64 });
    }

    let frame = inner.driver_recv(reporter)?;
    metrics.bytes_to_driver = frame.len() as u64;
    let value = V::from_frame(frame)?;
    metrics.reduce = reduce_span.finish();
    let sc_after = cluster.sc_stats();
    metrics.ser_bytes = ser_bytes.load(Ordering::Relaxed) + (sc_after.bytes - sc_before.bytes);
    metrics.messages = (sc_after.messages - sc_before.messages) + 1;
    Ok(AllReduceOutput { value, metrics, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use crate::rdds::ParallelCollection;
    use sparker_collectives::segment::{slice_bounds, SumSegment};

    fn run(executors: usize, cores: usize, parts: usize, dim: usize) -> AllReduceOutput<SumSegment> {
        let cluster = LocalCluster::new(ClusterSpec::local(executors, cores));
        let rdd: RddRef<u64> =
            Arc::new(ParallelCollection::new((1..=20u64).collect(), parts));
        allreduce_aggregate(
            &cluster,
            rdd,
            vec![0.0f64; dim],
            move |mut acc: Vec<f64>, x: &u64| {
                for a in acc.iter_mut() {
                    *a += *x as f64;
                }
                acc
            },
            |a: &mut Vec<f64>, b: Vec<f64>| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            },
            |u: &Vec<f64>, i: usize, nn: usize| {
                let (lo, hi) = slice_bounds(u.len(), i, nn);
                SumSegment(u[lo..hi].to_vec())
            },
            |a: &mut SumSegment, b: SumSegment| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            |segs: Vec<SumSegment>| SumSegment(segs.into_iter().flat_map(|s| s.0).collect()),
            Some(2),
        )
        .inspect(|out| {
            // keep cluster alive long enough to inspect resident copies
            for e in 0..executors {
                let copy = cluster
                    .inner()
                    .executor_ctx(ExecutorId(e as u32))
                    .objects
                    .with(executor_copy_slot(out.op), |v: &SumSegment| v.clone())
                    .expect("every executor holds a resident copy");
                assert_eq!(copy, out.value, "executor {e} copy diverges");
            }
        })
        .unwrap()
    }

    #[test]
    fn allreduce_matches_sequential_sum_and_replicates() {
        let out = run(4, 2, 8, 33);
        let want = (1..=20u64).sum::<u64>() as f64;
        assert_eq!(out.value.0, vec![want; 33]);
    }

    #[test]
    fn driver_receives_exactly_one_copy() {
        let dim = 1024;
        let out = run(3, 2, 6, dim);
        let payload = (dim * 8) as u64;
        assert!(out.metrics.bytes_to_driver >= payload);
        assert!(out.metrics.bytes_to_driver < payload + 64, "{}", out.metrics.bytes_to_driver);
    }

    #[test]
    fn single_executor_allreduce() {
        let out = run(1, 2, 3, 10);
        let want = (1..=20u64).sum::<u64>() as f64;
        assert_eq!(out.value.0, vec![want; 10]);
    }
}
