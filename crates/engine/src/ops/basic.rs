//! Basic actions: `collect`, `count`, plain `aggregate`.
//!
//! These follow Spark's standard result path: every task serializes its
//! result and the driver fetches it over the BlockManager-class transport.
//! `aggregate` (the non-tree flavour) is the degenerate baseline where all
//! partition aggregators converge on the driver in one hop — it is what
//! `treeAggregate` improves on, and what split aggregation beats further.

use std::sync::Arc;

use sparker_net::codec::{Encoder, Payload};
use sparker_net::topology::ExecutorId;

use crate::cluster::{ClusterInner, LocalCluster, RecoveryPolicy};
use crate::rdd::{Data, RddRef};
use crate::task::{partition_owner, EngineError, EngineResult};

/// Assigns every partition to an executor: the RDD's preferred placement
/// (SpawnRdd-style static scheduling) when given, else the round-robin
/// owner. Out-of-range preferences are clamped by modulo, mirroring how a
/// cluster manager remaps stale locality hints.
pub(crate) fn partition_assignments<T: Data>(
    inner: &ClusterInner,
    rdd: &RddRef<T>,
) -> Vec<ExecutorId> {
    let n = inner.num_executors();
    (0..rdd.num_partitions())
        .map(|p| match rdd.preferred_executor(p) {
            Some(e) => ExecutorId(e.0 % n as u32),
            None => partition_owner(p, n),
        })
        .collect()
}

/// Returns all items of the dataset, in partition order.
pub fn collect<T: Data + Payload>(cluster: &LocalCluster, rdd: RddRef<T>) -> EngineResult<Vec<T>> {
    let inner = cluster.inner().clone();
    let _action = inner.lock_action();
    let parts = rdd.num_partitions();
    let assignments = partition_assignments(&inner, &rdd);
    let send_inner = inner.clone();
    let (_acks, _) = inner.run_stage(
        "collect",
        &assignments,
        move |idx, _attempt, ctx| {
            let items: Vec<T> = rdd.compute(idx, ctx).collect();
            let mut enc = Encoder::new();
            enc.put_usize(idx);
            items.encode_into(&mut enc);
            send_inner.bm_send_to_driver(ctx.executor, enc.finish())?;
            Ok(())
        },
        RecoveryPolicy::RetryTask,
    )?;

    let mut slots: Vec<Option<Vec<T>>> = (0..parts).map(|_| None).collect();
    for exec in &assignments {
        let frame = inner.driver_recv(*exec)?;
        let mut dec = sparker_net::codec::Decoder::new(frame);
        let idx = dec.get_usize()?;
        let items = Vec::<T>::decode_from(&mut dec)?;
        if idx >= parts || slots[idx].is_some() {
            return Err(EngineError::Invalid(format!("duplicate or bad partition {idx}")));
        }
        slots[idx] = Some(items);
    }
    Ok(slots.into_iter().flat_map(|s| s.expect("all partitions")).collect())
}

/// Counts the items of the dataset.
///
/// Used by benchmarks to force materialization of cached inputs, exactly
/// like the paper's `count` pre-load (§5.2.3).
pub fn count<T: Data>(cluster: &LocalCluster, rdd: RddRef<T>) -> EngineResult<u64> {
    let inner = cluster.inner().clone();
    let _action = inner.lock_action();
    let assignments = partition_assignments(&inner, &rdd);
    let (counts, _) = inner.run_stage(
        "count",
        &assignments,
        move |idx, _attempt, ctx| Ok(rdd.compute(idx, ctx).count() as u64),
        RecoveryPolicy::RetryTask,
    )?;
    Ok(counts.into_iter().sum())
}

/// Plain aggregation: every partition aggregator ships to the driver, which
/// merges them sequentially.
pub fn aggregate<T, U, S, C>(
    cluster: &LocalCluster,
    rdd: RddRef<T>,
    zero: U,
    seq: S,
    comb: C,
) -> EngineResult<U>
where
    T: Data,
    U: Payload + Clone + Send + Sync,
    S: Fn(U, &T) -> U + Send + Sync + 'static,
    C: Fn(U, U) -> U,
{
    let inner = cluster.inner().clone();
    let _action = inner.lock_action();
    let assignments = partition_assignments(&inner, &rdd);
    let send_inner = inner.clone();
    let task_zero = zero.clone();
    let seq = Arc::new(seq);
    let (_acks, _) = inner.run_stage(
        "aggregate",
        &assignments,
        move |idx, _attempt, ctx| {
            let frame = fold_partition(&rdd, idx, ctx, task_zero.clone(), seq.as_ref()).to_frame();
            send_inner.bm_send_to_driver(ctx.executor, frame)?;
            Ok(())
        },
        RecoveryPolicy::RetryTask,
    )?;

    let mut acc = zero;
    for exec in &assignments {
        let frame = inner.driver_recv(*exec)?;
        let u = U::from_frame(frame)?;
        acc = comb(acc, u);
    }
    Ok(acc)
}

/// Folds one partition with a sequence operator (shared by the aggregation
/// strategies), borrowing every item through [`crate::rdd::Rdd::for_each_ref`].
pub(crate) fn fold_partition<T, U, F>(
    rdd: &RddRef<T>,
    idx: usize,
    ctx: &crate::rdd::TaskContext,
    zero: U,
    seq: &F,
) -> U
where
    T: Data,
    F: Fn(U, &T) -> U + ?Sized,
{
    // `seq` takes the accumulator by value; the slot is empty only while it runs.
    let mut acc = Some(zero);
    rdd.for_each_ref(idx, ctx, &mut |item| {
        acc = acc.take().map(|a| seq(a, item));
    });
    acc.expect("accumulator is put back after every item")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use crate::rdds::{GeneratedRdd, ParallelCollection};

    fn cluster() -> LocalCluster {
        LocalCluster::new(ClusterSpec::local(3, 2))
    }

    #[test]
    fn collect_preserves_partition_order() {
        let c = cluster();
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((0..100u64).collect(), 7));
        let got = collect(&c, rdd).unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn collect_empty_dataset() {
        let c = cluster();
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new(vec![], 3));
        assert_eq!(collect(&c, rdd).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn count_matches_len() {
        let c = cluster();
        let rdd: RddRef<u32> = Arc::new(GeneratedRdd::new(5, |p| vec![p as u32; p + 1]));
        // partitions of sizes 1..=5
        assert_eq!(count(&c, rdd).unwrap(), 15);
    }

    #[test]
    fn aggregate_sums_across_partitions() {
        let c = cluster();
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=10u64).collect(), 4));
        let sum = aggregate(&c, rdd, 0u64, |acc, x| acc + *x, |a, b| a + b).unwrap();
        assert_eq!(sum, 55);
    }

    #[test]
    fn aggregate_with_fault_retries() {
        let c = cluster();
        c.fault_plan().fail_once("aggregate", 0);
        let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=4u64).collect(), 2));
        let sum = aggregate(&c, rdd, 0u64, |acc, x| acc + *x, |a, b| a + b).unwrap();
        assert_eq!(sum, 10);
    }
}
