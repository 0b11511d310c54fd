//! Concrete RDD implementations.
//!
//! The set mirrors what the paper's workloads touch: a driver-provided
//! collection, an executor-side generator (our stand-in for reading HDFS
//! splits — data materializes on the executor that owns the partition, not
//! on the driver), the narrow transformations (`map`, `filter`, `flat_map`,
//! `map_partitions`), `union`, and a caching wrapper implementing
//! `MEMORY_ONLY` storage through the executor block store.

use std::sync::Arc;

use crate::blockstore::BlockKey;
use crate::rdd::{next_rdd_id, Data, Rdd, RddId, RddRef, TaskContext};

/// Iterator that yields clones of the elements of an `Arc<Vec<T>>`.
///
/// Cached partitions are shared (`Arc`) between the block store and any
/// number of concurrently running tasks, so an *owning* iterator over them
/// clones items out — the same copy Spark pays when iterating a cached
/// block. Consumers that only borrow use [`Rdd::for_each_ref`] instead.
pub struct ArcVecIter<T> {
    data: Arc<Vec<T>>,
    idx: usize,
}

impl<T> ArcVecIter<T> {
    pub fn new(data: Arc<Vec<T>>) -> Self {
        Self { data, idx: 0 }
    }
}

impl<T: Clone> Iterator for ArcVecIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let item = self.data.get(self.idx).cloned();
        self.idx += 1;
        item
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.data.len().saturating_sub(self.idx);
        (rem, Some(rem))
    }
}

/// A dataset parallelized from a driver-side collection.
pub struct ParallelCollection<T> {
    id: RddId,
    parts: Vec<Arc<Vec<T>>>,
}

impl<T: Data> ParallelCollection<T> {
    /// Splits `data` into `partitions` near-equal chunks.
    pub fn new(data: Vec<T>, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let len = data.len();
        let mut parts = Vec::with_capacity(partitions);
        let mut iter = data.into_iter();
        for i in 0..partitions {
            let (start, end) = sparker_collectives::segment::slice_bounds(len, i, partitions);
            parts.push(Arc::new(iter.by_ref().take(end - start).collect::<Vec<_>>()));
        }
        Self { id: next_rdd_id(), parts }
    }
}

impl<T: Data> Rdd for ParallelCollection<T> {
    type Item = T;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }
    fn compute(&self, split: usize, _ctx: &TaskContext) -> Box<dyn Iterator<Item = T> + Send> {
        Box::new(ArcVecIter::new(self.parts[split].clone()))
    }
    fn for_each_ref(&self, split: usize, _ctx: &TaskContext, visit: &mut dyn FnMut(&T)) {
        self.parts[split].iter().for_each(visit);
    }
}

/// A dataset generated on the executors, partition by partition.
///
/// This is how benchmark inputs and synthetic datasets enter the engine:
/// the generator runs inside the task that computes the partition, so no
/// bytes travel from the driver (mirroring reading a co-located HDFS split).
pub struct GeneratedRdd<T> {
    id: RddId,
    partitions: usize,
    gen: Arc<dyn Fn(usize) -> Vec<T> + Send + Sync>,
}

impl<T: Data> GeneratedRdd<T> {
    pub fn new(partitions: usize, gen: impl Fn(usize) -> Vec<T> + Send + Sync + 'static) -> Self {
        assert!(partitions > 0);
        Self { id: next_rdd_id(), partitions, gen: Arc::new(gen) }
    }
}

impl<T: Data> Rdd for GeneratedRdd<T> {
    type Item = T;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn compute(&self, split: usize, _ctx: &TaskContext) -> Box<dyn Iterator<Item = T> + Send> {
        Box::new((self.gen)(split).into_iter())
    }
}

/// Element-wise transformation.
pub struct MapRdd<T, U> {
    id: RddId,
    prev: RddRef<T>,
    f: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Data, U: Data> MapRdd<T, U> {
    pub fn new(prev: RddRef<T>, f: impl Fn(T) -> U + Send + Sync + 'static) -> Self {
        Self { id: next_rdd_id(), prev, f: Arc::new(f) }
    }
}

impl<T: Data, U: Data> Rdd for MapRdd<T, U> {
    type Item = U;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = U> + Send> {
        let f = self.f.clone();
        Box::new(self.prev.compute(split, ctx).map(move |x| f(x)))
    }
}

/// Predicate filter.
pub struct FilterRdd<T> {
    id: RddId,
    prev: RddRef<T>,
    pred: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: Data> FilterRdd<T> {
    pub fn new(prev: RddRef<T>, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Self {
        Self { id: next_rdd_id(), prev, pred: Arc::new(pred) }
    }
}

impl<T: Data> Rdd for FilterRdd<T> {
    type Item = T;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = T> + Send> {
        let pred = self.pred.clone();
        Box::new(self.prev.compute(split, ctx).filter(move |x| pred(x)))
    }
}

/// One-to-many transformation.
pub struct FlatMapRdd<T, U> {
    id: RddId,
    prev: RddRef<T>,
    f: Arc<dyn Fn(T) -> Vec<U> + Send + Sync>,
}

impl<T: Data, U: Data> FlatMapRdd<T, U> {
    pub fn new(prev: RddRef<T>, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Self {
        Self { id: next_rdd_id(), prev, f: Arc::new(f) }
    }
}

impl<T: Data, U: Data> Rdd for FlatMapRdd<T, U> {
    type Item = U;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = U> + Send> {
        let f = self.f.clone();
        Box::new(self.prev.compute(split, ctx).flat_map(move |x| f(x)))
    }
}

/// Whole-partition transformation.
pub struct MapPartitionsRdd<T, U> {
    id: RddId,
    prev: RddRef<T>,
    f: Arc<dyn Fn(usize, Vec<T>) -> Vec<U> + Send + Sync>,
}

impl<T: Data, U: Data> MapPartitionsRdd<T, U> {
    pub fn new(
        prev: RddRef<T>,
        f: impl Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Self {
        Self { id: next_rdd_id(), prev, f: Arc::new(f) }
    }
}

impl<T: Data, U: Data> Rdd for MapPartitionsRdd<T, U> {
    type Item = U;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = U> + Send> {
        let items: Vec<T> = self.prev.compute(split, ctx).collect();
        Box::new((self.f)(split, items).into_iter())
    }
}

/// Concatenation of two datasets (partitions of `a` first).
pub struct UnionRdd<T> {
    id: RddId,
    a: RddRef<T>,
    b: RddRef<T>,
}

impl<T: Data> UnionRdd<T> {
    pub fn new(a: RddRef<T>, b: RddRef<T>) -> Self {
        Self { id: next_rdd_id(), a, b }
    }
}

impl<T: Data> Rdd for UnionRdd<T> {
    type Item = T;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.a.num_partitions() + self.b.num_partitions()
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = T> + Send> {
        let na = self.a.num_partitions();
        if split < na {
            self.a.compute(split, ctx)
        } else {
            self.b.compute(split - na, ctx)
        }
    }
}

/// `MEMORY_ONLY` caching wrapper: first computation of each partition
/// materializes it in the executor's block store; later computations read
/// the cached block.
pub struct CachedRdd<T> {
    id: RddId,
    prev: RddRef<T>,
}

impl<T: Data> CachedRdd<T> {
    pub fn new(prev: RddRef<T>) -> Self {
        Self { id: next_rdd_id(), prev }
    }

    /// The cached block of `split`, computed from the parent on first use.
    fn block(&self, split: usize, ctx: &TaskContext) -> Arc<Vec<T>> {
        let key = BlockKey { rdd: self.id, partition: split };
        ctx.blocks.get_or_compute(key, || self.prev.compute(split, ctx).collect())
    }
}

impl<T: Data> Rdd for CachedRdd<T> {
    type Item = T;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = T> + Send> {
        Box::new(ArcVecIter::new(self.block(split, ctx)))
    }
    fn for_each_ref(&self, split: usize, ctx: &TaskContext, visit: &mut dyn FnMut(&T)) {
        self.block(split, ctx).iter().for_each(visit);
    }
}

/// The paper's `SpawnRDD` (§4.3): one partition per entry of a static
/// executor list, each computed by a closure that sees the executor-local
/// [`TaskContext`] — the building block of split aggregation's
/// statically-scheduled ring stage.
/// Closure type of a [`SpawnRdd`] partition generator.
type SpawnFn<T> = Arc<dyn Fn(usize, &TaskContext) -> Vec<T> + Send + Sync>;

pub struct SpawnRdd<T> {
    id: RddId,
    placements: Vec<sparker_net::topology::ExecutorId>,
    gen: SpawnFn<T>,
}

impl<T: Data> SpawnRdd<T> {
    pub fn new(
        placements: Vec<sparker_net::topology::ExecutorId>,
        gen: impl Fn(usize, &TaskContext) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        assert!(!placements.is_empty(), "SpawnRdd needs at least one placement");
        Self { id: next_rdd_id(), placements, gen: Arc::new(gen) }
    }

    /// One partition pinned to every executor of the cluster, in id order.
    pub fn one_per_executor(
        num_executors: usize,
        gen: impl Fn(usize, &TaskContext) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        let placements = (0..num_executors)
            .map(|e| sparker_net::topology::ExecutorId(e as u32))
            .collect();
        Self::new(placements, gen)
    }
}

impl<T: Data> Rdd for SpawnRdd<T> {
    type Item = T;
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.placements.len()
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Box<dyn Iterator<Item = T> + Send> {
        Box::new((self.gen)(split, ctx).into_iter())
    }
    fn preferred_executor(&self, split: usize) -> Option<sparker_net::topology::ExecutorId> {
        Some(self.placements[split])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_all<T: Data>(rdd: &dyn Rdd<Item = T>, ctx: &TaskContext) -> Vec<T> {
        (0..rdd.num_partitions())
            .flat_map(|p| rdd.compute(p, ctx).collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn parallel_collection_partitions_evenly() {
        let ctx = TaskContext::standalone();
        let rdd = ParallelCollection::new((0..10u32).collect(), 3);
        assert_eq!(rdd.num_partitions(), 3);
        assert_eq!(collect_all(&rdd, &ctx), (0..10).collect::<Vec<_>>());
        // Balanced: 4/3/3.
        let sizes: Vec<usize> = (0..3).map(|p| rdd.compute(p, &ctx).count()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn parallel_collection_more_partitions_than_items() {
        let ctx = TaskContext::standalone();
        let rdd = ParallelCollection::new(vec![1u8, 2], 5);
        assert_eq!(rdd.num_partitions(), 5);
        assert_eq!(collect_all(&rdd, &ctx), vec![1, 2]);
    }

    #[test]
    fn generated_rdd_computes_per_partition() {
        let ctx = TaskContext::standalone();
        let rdd = GeneratedRdd::new(4, |p| vec![p as u64 * 10, p as u64 * 10 + 1]);
        assert_eq!(collect_all(&rdd, &ctx), vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn map_filter_flatmap_chain() {
        let ctx = TaskContext::standalone();
        let base: RddRef<u32> = Arc::new(ParallelCollection::new((0..6u32).collect(), 2));
        let mapped: RddRef<u32> = Arc::new(MapRdd::new(base, |x| x * 2));
        let filtered: RddRef<u32> = Arc::new(FilterRdd::new(mapped, |x| *x % 4 == 0));
        let flat: RddRef<u32> = Arc::new(FlatMapRdd::new(filtered, |x| vec![x, x + 1]));
        assert_eq!(collect_all(flat.as_ref(), &ctx), vec![0, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let ctx = TaskContext::standalone();
        let base: RddRef<u32> = Arc::new(ParallelCollection::new((1..=6u32).collect(), 2));
        let sums: RddRef<u32> =
            Arc::new(MapPartitionsRdd::new(base, |_p, items| vec![items.iter().sum()]));
        assert_eq!(collect_all(sums.as_ref(), &ctx), vec![6, 15]);
    }

    #[test]
    fn union_concatenates_partitions() {
        let ctx = TaskContext::standalone();
        let a: RddRef<u8> = Arc::new(ParallelCollection::new(vec![1, 2], 1));
        let b: RddRef<u8> = Arc::new(ParallelCollection::new(vec![3, 4], 2));
        let u = UnionRdd::new(a, b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(collect_all(&u, &ctx), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cached_rdd_computes_once_per_partition() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ctx = TaskContext::standalone();
        let computes = Arc::new(AtomicUsize::new(0));
        let counter = computes.clone();
        let base: RddRef<u64> = Arc::new(GeneratedRdd::new(2, move |p| {
            counter.fetch_add(1, Ordering::SeqCst);
            vec![p as u64]
        }));
        let cached = CachedRdd::new(base);
        assert_eq!(collect_all(&cached, &ctx), vec![0, 1]);
        assert_eq!(collect_all(&cached, &ctx), vec![0, 1]);
        assert_eq!(computes.load(Ordering::SeqCst), 2, "one compute per partition");
        assert_eq!(ctx.blocks.len(), 2);
    }

    #[test]
    fn spawn_rdd_reports_static_placement() {
        use sparker_net::topology::ExecutorId;
        let placements = vec![ExecutorId(2), ExecutorId(0), ExecutorId(1)];
        let rdd = SpawnRdd::new(placements.clone(), |split, _ctx| vec![split as u64]);
        assert_eq!(rdd.num_partitions(), 3);
        for (split, want) in placements.iter().enumerate() {
            assert_eq!(rdd.preferred_executor(split), Some(*want));
        }
        let ctx = TaskContext::standalone();
        assert_eq!(collect_all(&rdd, &ctx), vec![0, 1, 2]);
    }

    #[test]
    fn spawn_rdd_one_per_executor() {
        let rdd = SpawnRdd::one_per_executor(4, |split, ctx| {
            vec![(split as u32, ctx.executor.0)]
        });
        assert_eq!(rdd.num_partitions(), 4);
        for e in 0..4u32 {
            assert_eq!(
                rdd.preferred_executor(e as usize),
                Some(sparker_net::topology::ExecutorId(e))
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one placement")]
    fn spawn_rdd_rejects_empty_placements() {
        SpawnRdd::<u8>::new(vec![], |_, _| vec![]);
    }

    #[test]
    fn arc_vec_iter_size_hint() {
        let it = ArcVecIter::new(Arc::new(vec![1, 2, 3]));
        assert_eq!(it.size_hint(), (3, Some(3)));
        let collected: Vec<i32> = it.collect();
        assert_eq!(collected, vec![1, 2, 3]);
    }
}
