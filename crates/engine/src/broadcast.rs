//! Broadcast variables.
//!
//! Every training iteration Spark broadcasts the current model to all
//! executors (torrent broadcast); the paper counts this in the "Non-agg"
//! component and the LDA workloads broadcast the whole K × V topic matrix.
//! This module gives the threaded engine the same mechanism: the driver
//! serializes the value **once**, ships one copy to every executor over the
//! BlockManager-class mesh (the torrent seed-out), and each executor
//! deserializes and pins it in its mutable object manager.
//!
//! Tasks read the executor-local copy through [`Broadcast::value`], which
//! resolves the current executor via the thread-local task context — the
//! engine's analogue of Spark's `Broadcast.value` + `TaskContext.get()`.
//! On the driver thread, `value()` returns the driver's own copy.

use std::sync::Arc;

use sparker_net::codec::Payload;
use sparker_net::topology::ExecutorId;

use crate::cluster::{LocalCluster, RecoveryPolicy};
use crate::objects::ObjectId;
use crate::rdd::current_task_context;
use crate::task::{EngineResult, TaskFailure};

/// Slot where an executor pins its copy of broadcast `op`.
const fn broadcast_slot(op: u64) -> ObjectId {
    ObjectId { op, slot: 1 << 40 }
}

/// A value replicated to every executor. Cheap to clone; all clones refer
/// to the same replicated copies.
pub struct Broadcast<T> {
    cluster: LocalCluster,
    op: u64,
    driver_copy: Arc<T>,
    /// Serialized size of one copy (for accounting).
    pub frame_bytes: usize,
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Self {
            cluster: self.cluster.clone(),
            op: self.op,
            driver_copy: self.driver_copy.clone(),
            frame_bytes: self.frame_bytes,
        }
    }
}

impl LocalCluster {
    /// Replicates `value` to every executor. Returns once all executors
    /// hold their copy.
    pub fn broadcast<T>(&self, value: T) -> EngineResult<Broadcast<T>>
    where
        T: Payload + Clone + Send + Sync + 'static,
    {
        let inner = self.inner().clone();
        let _action = inner.lock_action();
        let op = inner.next_op();
        // Serialize once at the driver (the torrent seed).
        let frame = value.to_frame();
        let frame_bytes = frame.len();
        // Seed one copy per executor through the BM mesh.
        for e in 0..inner.num_executors() {
            inner.bm_send_raw_from_driver(ExecutorId(e as u32), frame.clone())?;
        }
        // Each executor receives, deserializes and pins its copy.
        let assignments: Vec<ExecutorId> =
            (0..inner.num_executors()).map(|e| ExecutorId(e as u32)).collect();
        let recv_inner = inner.clone();
        let driver_id = inner.driver_id();
        inner.run_stage(
            &format!("broadcast-op{op}"),
            &assignments,
            move |_idx, _attempt, ctx| {
                let frame = recv_inner.bm_recv(ctx.executor, driver_id)?;
                let v = T::from_frame(frame).map_err(TaskFailure::from)?;
                ctx.objects.merge_in(broadcast_slot(op), Arc::new(v), |a, b| *a = b);
                Ok(())
            },
            RecoveryPolicy::RetryTask,
        )?;
        Ok(Broadcast { cluster: self.clone(), op, driver_copy: Arc::new(value), frame_bytes })
    }
}

impl<T: Send + Sync + 'static> Broadcast<T> {
    /// The local replica: the current executor's copy when called from a
    /// task, the driver's copy otherwise.
    pub fn value(&self) -> Arc<T> {
        if let Some(ctx) = current_task_context() {
            if let Some(v) = ctx.objects.with(broadcast_slot(self.op), |v: &Arc<T>| v.clone()) {
                return v;
            }
        }
        self.driver_copy.clone()
    }

    /// Drops every executor's replica (Spark's `Broadcast.destroy`). The
    /// driver copy (and any `Arc`s already handed out) stay alive.
    pub fn destroy(&self) {
        let inner = self.cluster.inner();
        for e in 0..inner.num_executors() {
            inner.executor_ctx(ExecutorId(e as u32)).objects.clear_op(self.op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use sparker_net::codec::F64Array;

    #[test]
    fn tasks_read_the_executor_local_replica() {
        let cluster = LocalCluster::new(ClusterSpec::local(3, 2));
        let bc = cluster.broadcast(F64Array(vec![1.0, 2.0, 3.0])).unwrap();
        // A spawn task on each executor reads through the broadcast.
        let sums = cluster
            .spawn({
                let bc = bc.clone();
                move |_split, _ctx| vec![bc.value().0.iter().sum::<f64>()]
            })
            .collect()
            .unwrap();
        assert_eq!(sums, vec![6.0, 6.0, 6.0]);
    }

    #[test]
    fn driver_reads_its_own_copy() {
        let cluster = LocalCluster::new(ClusterSpec::local(2, 1));
        let bc = cluster.broadcast(42u64).unwrap();
        assert_eq!(*bc.value(), 42);
    }

    #[test]
    fn replicas_live_in_executor_object_managers() {
        let cluster = LocalCluster::new(ClusterSpec::local(2, 1));
        let bc = cluster.broadcast(7u64).unwrap();
        for e in 0..2u32 {
            let objects = cluster.executor_objects(ExecutorId(e));
            assert_eq!(objects.len(), 1, "executor {e} holds its replica");
        }
        bc.destroy();
        for e in 0..2u32 {
            assert!(cluster.executor_objects(ExecutorId(e)).is_empty());
        }
        // Driver copy survives destroy.
        assert_eq!(*bc.value(), 7);
    }

    #[test]
    fn frame_bytes_accounts_the_payload() {
        let cluster = LocalCluster::new(ClusterSpec::local(1, 1));
        let bc = cluster.broadcast(F64Array(vec![0.0; 1000])).unwrap();
        assert_eq!(bc.frame_bytes, 8 + 8 * 1000);
    }

    #[test]
    fn broadcast_then_aggregate_uses_fresh_values_per_iteration() {
        // The GD pattern: broadcast weights, aggregate with them, repeat.
        let cluster = LocalCluster::new(ClusterSpec::local(2, 2));
        let data = cluster.generate(4, |p| vec![p as u64]).cache();
        data.count().unwrap();
        let mut expected_scale = 1.0;
        for iter in 1..=3u64 {
            let bc = cluster.broadcast(iter as f64).unwrap();
            let bc2 = bc.clone();
            let (sum, _) = data
                .tree_aggregate(
                    0.0f64,
                    move |acc, x| acc + *x as f64 * *bc2.value(),
                    |a, b| a + b,
                    crate::ops::tree_aggregate::TreeAggOpts::default(),
                )
                .unwrap();
            assert_eq!(sum, 6.0 * expected_scale, "iteration {iter}");
            expected_scale += 1.0;
            bc.destroy();
        }
    }
}
