//! The RDD abstraction.
//!
//! An [`Rdd`] is a lazily-evaluated, partitioned dataset with deterministic
//! lineage: `compute(split)` must always produce the same items for the same
//! partition, which is what makes task retry and stage resubmission sound
//! (the paper's fault-tolerance argument in §3.2 leans on exactly this).
//!
//! Items only need `Clone + Send + Sync` — they never cross executor
//! boundaries. Aggregation *results* do cross, and those are constrained to
//! `Payload` at the op layer instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sparker_net::topology::ExecutorId;

use crate::blockstore::BlockStore;
use crate::objects::MutableObjectManager;

/// Marker for types an RDD can hold.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// Globally unique RDD identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RddId(pub u64);

static NEXT_RDD_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh [`RddId`]; process-wide monotonic.
pub fn next_rdd_id() -> RddId {
    RddId(NEXT_RDD_ID.fetch_add(1, Ordering::Relaxed))
}

/// Execution context handed to [`Rdd::compute`] — the executor-local
/// services a task may touch.
#[derive(Clone)]
pub struct TaskContext {
    pub executor: ExecutorId,
    pub blocks: Arc<BlockStore>,
    pub objects: Arc<MutableObjectManager>,
}

impl TaskContext {
    /// Standalone context for unit tests that evaluate RDDs off-cluster.
    pub fn standalone() -> Self {
        Self {
            executor: ExecutorId(0),
            blocks: Arc::new(BlockStore::new()),
            objects: Arc::new(MutableObjectManager::new()),
        }
    }
}

thread_local! {
    static CURRENT_CTX: std::cell::RefCell<Option<TaskContext>> =
        const { std::cell::RefCell::new(None) };
}

/// The task context of the current thread, if it is an executor worker
/// running a task — the engine's `TaskContext.get()` (how Spark code looks
/// up its executor without threading a handle through every closure).
pub fn current_task_context() -> Option<TaskContext> {
    CURRENT_CTX.with(|c| c.borrow().clone())
}

/// Installs `ctx` as the current thread's task context for the duration of
/// `f` (worker-loop internal; public for custom executors and tests).
pub fn with_task_context<R>(ctx: &TaskContext, f: impl FnOnce() -> R) -> R {
    CURRENT_CTX.with(|c| *c.borrow_mut() = Some(ctx.clone()));
    // Clear even on unwind so a panicking task cannot leak its context
    // into the next task on this worker.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            CURRENT_CTX.with(|c| *c.borrow_mut() = None);
        }
    }
    let _reset = Reset;
    f()
}

/// A partitioned, lazily-computed dataset.
pub trait Rdd: Send + Sync + 'static {
    type Item: Data;

    /// Stable identity (drives cache keys).
    fn id(&self) -> RddId;

    /// Number of partitions.
    fn num_partitions(&self) -> usize;

    /// Computes one partition. Must be deterministic per `(id, split)`.
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = Self::Item> + Send>;

    /// Calls `visit` on every item of one partition, in [`Rdd::compute`]
    /// order, by reference. Folds go through this, so an RDD that already
    /// holds its partitions (`CachedRdd`, `ParallelCollection`) overrides it
    /// to walk them in place and no item is cloned only to be borrowed.
    fn for_each_ref(&self, split: usize, ctx: &TaskContext, visit: &mut dyn FnMut(&Self::Item)) {
        for item in self.compute(split, ctx) {
            visit(&item);
        }
    }

    /// Pins `split` to a specific executor.
    ///
    /// `None` (the default) lets the scheduler place the task by its
    /// round-robin owner. The paper's `SpawnRDD` (§4.3) is exactly an RDD
    /// that answers `Some` for every partition: "given a closure describing
    /// the task and a list of executor ids describing the task locations,
    /// SpawnRDD will launch tasks exactly according to the executor list."
    fn preferred_executor(&self, _split: usize) -> Option<ExecutorId> {
        None
    }
}

/// Shared-ownership RDD handle used throughout the engine.
pub type RddRef<T> = Arc<dyn Rdd<Item = T>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdd_ids_are_unique_and_monotonic() {
        let a = next_rdd_id();
        let b = next_rdd_id();
        assert!(b > a);
    }

    #[test]
    fn standalone_context_is_usable() {
        let ctx = TaskContext::standalone();
        assert_eq!(ctx.executor, ExecutorId(0));
        assert!(ctx.blocks.is_empty());
        assert!(ctx.objects.is_empty());
    }
}
