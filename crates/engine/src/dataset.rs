//! `Dataset<T>`: the user-facing handle pairing an RDD with its cluster.
//!
//! Mirrors how Spark users hold an `RDD[T]` created from a `SparkContext`:
//! transformations are lazy and return new handles; actions execute. The
//! aggregation actions expose the paper's two interfaces side by side —
//! `tree_aggregate` (Figure 6 top) and `split_aggregate` (Figure 6 bottom) —
//! plus the IMM and algorithm toggles the evaluation sweeps over.

use std::sync::Arc;

use sparker_collectives::gather::Segments;
use sparker_net::codec::Payload;

use crate::cluster::LocalCluster;
use crate::config::ClusterSpec;
use crate::metrics::AggMetrics;
use crate::ops;
use crate::ops::split_aggregate::SplitAggOpts;
use crate::ops::tree_aggregate::TreeAggOpts;
use crate::rdd::{Data, RddRef};
use crate::rdds::{
    CachedRdd, FilterRdd, FlatMapRdd, GeneratedRdd, MapPartitionsRdd, MapRdd, ParallelCollection,
    UnionRdd,
};
use crate::task::EngineResult;

/// A distributed dataset bound to a cluster.
#[derive(Clone)]
pub struct Dataset<T: Data> {
    cluster: LocalCluster,
    rdd: RddRef<T>,
}

impl LocalCluster {
    /// Distributes a driver-side collection over `partitions`.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> Dataset<T> {
        Dataset { cluster: self.clone(), rdd: Arc::new(ParallelCollection::new(data, partitions)) }
    }

    /// Creates a dataset generated partition-by-partition on the executors.
    pub fn generate<T: Data>(
        &self,
        partitions: usize,
        gen: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Dataset<T> {
        Dataset { cluster: self.clone(), rdd: Arc::new(GeneratedRdd::new(partitions, gen)) }
    }

    /// Boots a one-node local cluster (tests, examples).
    pub fn local(executors: usize, cores_per_executor: usize) -> Self {
        LocalCluster::new(ClusterSpec::local(executors, cores_per_executor))
    }

    /// Creates a statically-scheduled dataset (the paper's `SpawnRDD`):
    /// one partition pinned to every executor, computed by `gen` with
    /// access to the executor-local context.
    pub fn spawn<T: Data>(
        &self,
        gen: impl Fn(usize, &crate::rdd::TaskContext) -> Vec<T> + Send + Sync + 'static,
    ) -> Dataset<T> {
        Dataset {
            cluster: self.clone(),
            rdd: Arc::new(crate::rdds::SpawnRdd::one_per_executor(self.num_executors(), gen)),
        }
    }
}

impl<T: Data> Dataset<T> {
    /// Wraps an existing RDD (for custom sources).
    pub fn from_rdd(cluster: LocalCluster, rdd: RddRef<T>) -> Self {
        Self { cluster, rdd }
    }

    /// The underlying RDD handle.
    pub fn rdd(&self) -> &RddRef<T> {
        &self.rdd
    }

    /// The owning cluster.
    pub fn cluster(&self) -> &LocalCluster {
        &self.cluster
    }

    pub fn num_partitions(&self) -> usize {
        self.rdd.num_partitions()
    }

    // ----- transformations (lazy) -----------------------------------------

    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Dataset<U> {
        Dataset {
            cluster: self.cluster.clone(),
            rdd: Arc::new(MapRdd::new(self.rdd.clone(), f)),
        }
    }

    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Dataset<T> {
        Dataset {
            cluster: self.cluster.clone(),
            rdd: Arc::new(FilterRdd::new(self.rdd.clone(), pred)),
        }
    }

    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Dataset<U> {
        Dataset {
            cluster: self.cluster.clone(),
            rdd: Arc::new(FlatMapRdd::new(self.rdd.clone(), f)),
        }
    }

    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        Dataset {
            cluster: self.cluster.clone(),
            rdd: Arc::new(MapPartitionsRdd::new(self.rdd.clone(), f)),
        }
    }

    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        Dataset {
            cluster: self.cluster.clone(),
            rdd: Arc::new(UnionRdd::new(self.rdd.clone(), other.rdd.clone())),
        }
    }

    /// Marks the dataset `MEMORY_ONLY`-cached. Materialize with
    /// [`Dataset::count`] like the paper's micro-benchmark pre-load.
    pub fn cache(&self) -> Dataset<T> {
        Dataset {
            cluster: self.cluster.clone(),
            rdd: Arc::new(CachedRdd::new(self.rdd.clone())),
        }
    }

    /// Evicts this dataset's cached partitions from every executor
    /// (Spark's `unpersist`). No-op for uncached datasets; the lineage
    /// stays valid, so later actions simply recompute.
    pub fn unpersist(&self) {
        let inner = self.cluster.inner();
        for e in 0..inner.num_executors() {
            inner
                .executor_ctx(sparker_net::topology::ExecutorId(e as u32))
                .blocks
                .evict_rdd(self.rdd.id());
        }
    }

    // ----- actions ---------------------------------------------------------

    pub fn count(&self) -> EngineResult<u64> {
        ops::basic::count(&self.cluster, self.rdd.clone())
    }

    pub fn collect(&self) -> EngineResult<Vec<T>>
    where
        T: Payload,
    {
        ops::basic::collect(&self.cluster, self.rdd.clone())
    }

    /// Plain aggregation: all partition aggregators go straight to the driver.
    pub fn aggregate<U>(
        &self,
        zero: U,
        seq: impl Fn(U, &T) -> U + Send + Sync + 'static,
        comb: impl Fn(U, U) -> U,
    ) -> EngineResult<U>
    where
        U: Payload + Clone + Send + Sync,
    {
        ops::basic::aggregate(&self.cluster, self.rdd.clone(), zero, seq, comb)
    }

    /// Spark's `treeAggregate` (paper Figure 6, top).
    pub fn tree_aggregate<U>(
        &self,
        zero: U,
        seq: impl Fn(U, &T) -> U + Send + Sync + 'static,
        comb: impl Fn(U, U) -> U + Send + Sync + 'static,
        opts: TreeAggOpts,
    ) -> EngineResult<(U, AggMetrics)>
    where
        U: Payload + Clone + Send + Sync,
    {
        ops::tree_aggregate::tree_aggregate(&self.cluster, self.rdd.clone(), zero, seq, comb, opts)
    }

    /// Sparker's `splitAggregate` (paper Figure 6, bottom).
    #[allow(clippy::too_many_arguments)]
    pub fn split_aggregate<U, V>(
        &self,
        zero: U,
        seq: impl Fn(U, &T) -> U + Send + Sync + 'static,
        merge: impl Fn(&mut U, U) + Send + Sync + 'static,
        split: impl Fn(&U, usize, usize) -> V + Send + Sync + 'static,
        reduce: impl Fn(&mut V, V) + Send + Sync + 'static,
        concat: impl FnOnce(Segments<'_, V>) -> V,
        opts: SplitAggOpts,
    ) -> EngineResult<(V, AggMetrics)>
    where
        U: Clone + Send + Sync + 'static,
        V: Payload + Clone + Send + Sync + 'static,
    {
        ops::split_aggregate::split_aggregate(
            &self.cluster,
            self.rdd.clone(),
            zero,
            seq,
            merge,
            split,
            reduce,
            concat,
            opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformations_compose_lazily_and_actions_execute() {
        let cluster = LocalCluster::local(3, 2);
        let ds = cluster.parallelize((0..50u64).collect(), 6);
        let result = ds
            .map(|x| x * 2)
            .filter(|x| x % 4 == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect()
            .unwrap();
        let expected: Vec<u64> = (0..50u64)
            .map(|x| x * 2)
            .filter(|x| x % 4 == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn cache_then_count_then_aggregate() {
        let cluster = LocalCluster::local(2, 2);
        let ds = cluster
            .generate(4, |p| vec![p as u64 + 1; 10])
            .cache();
        assert_eq!(ds.count().unwrap(), 40);
        let sum = ds.aggregate(0u64, |a, x| a + *x, |a, b| a + b).unwrap();
        assert_eq!(sum, 10 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn union_combines_datasets() {
        let cluster = LocalCluster::local(2, 1);
        let a = cluster.parallelize(vec![1u32, 2], 1);
        let b = cluster.parallelize(vec![3u32, 4], 1);
        assert_eq!(a.union(&b).collect().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn unpersist_evicts_and_recompute_still_works() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cluster = LocalCluster::local(2, 1);
        let computes = Arc::new(AtomicUsize::new(0));
        let counter = computes.clone();
        let ds = cluster
            .generate(2, move |p| {
                counter.fetch_add(1, Ordering::SeqCst);
                vec![p as u64]
            })
            .cache();
        assert_eq!(ds.count().unwrap(), 2);
        assert_eq!(ds.count().unwrap(), 2);
        assert_eq!(computes.load(Ordering::SeqCst), 2, "cached after first count");
        ds.unpersist();
        assert_eq!(ds.count().unwrap(), 2, "recompute after eviction");
        assert_eq!(computes.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn spawn_runs_each_task_on_its_pinned_executor() {
        let cluster = LocalCluster::local(4, 2);
        let ds = cluster.spawn(|split, ctx| vec![(split as u32, ctx.executor.0)]);
        let got = ds.collect().unwrap();
        assert_eq!(got.len(), 4);
        for (split, exec) in got {
            assert_eq!(split, exec, "task {split} ran on executor {exec}");
        }
    }

    #[test]
    fn tree_and_split_agree_on_dataset_api() {
        let cluster = LocalCluster::local(3, 2);
        let ds = cluster.generate(6, |p| vec![(p + 1) as u64; 5]);
        let (tree, _) = ds
            .tree_aggregate(0u64, |a, x| a + *x, |a, b| a + b, TreeAggOpts::default())
            .unwrap();
        let (split, _) = ds
            .split_aggregate(
                0u64,
                |a, x| a + *x,
                |a, b| *a += b,
                |u, i, _n| if i == 0 { *u } else { 0 },
                |a, b| *a += b,
                |segs| segs.into_iter().sum(),
                SplitAggOpts::default(),
            )
            .unwrap();
        assert_eq!(tree, split);
        assert_eq!(tree, 5 * (1 + 2 + 3 + 4 + 5 + 6));
    }
}
