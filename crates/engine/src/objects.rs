//! The mutable object manager (paper §4, Figure 9).
//!
//! Sparker extends each executor with a *mutable object manager*: a store
//! for intermediate state **shared by tasks on the same executor** — the
//! thing plain RDDs forbid. In-Memory Merge uses it to accumulate task
//! results into a single per-executor value before serialization, and split
//! aggregation's statically scheduled stage reads the merged aggregator back
//! out of it.
//!
//! Values are type-erased (`Box<dyn Any>`) because a single executor hosts
//! objects of many aggregator types across stages. Typed access panics on a
//! type mismatch, which is always an engine bug, not user error.
//!
//! # Striped merging
//!
//! A single per-slot lock serializes every task on an executor behind one
//! mutex — with 8+ task threads funnelling into one IMM slot, the lock is
//! the hot path. Each slot is therefore *striped*: it holds `S` independent
//! sub-values behind `S` locks, [`MutableObjectManager::merge_in`] picks a
//! stripe round-robin, and the stripes are folded together only when the
//! value is read back ([`MutableObjectManager::take`] /
//! [`MutableObjectManager::with`]) at stage end. Consolidation locks the
//! stripes in index order (so it cannot deadlock against single-stripe
//! lockers) and folds the surviving values pairwise, adjacent pairs in
//! stripe-index order — a deterministic order, so two consolidations of the
//! same stripe contents produce bitwise-identical results.
//!
//! The first `merge_in` on a slot installs a type-erased copy of its merge
//! closure; consolidation replays it across stripes. Since the engine always
//! uses one combine function per slot (the user's `combOp`), this is the
//! same function the unsharded path would have applied — only the grouping
//! changes, which is exact for the associative/commutative combiners the
//! aggregation contract already requires.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use sparker_net::sync::Mutex;
use sparker_obs::metrics::{self, Counter};

/// Key of a shared object: (operation id, slot).
///
/// Operation ids are allocated per aggregation run, so resubmitted stages
/// reuse the same key and correctly overwrite the poisoned value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId {
    pub op: u64,
    pub slot: u64,
}

type Value = Box<dyn Any + Send>;
/// Type-erased combine: folds the right value into the left. Installed once
/// per slot by the first `merge_in` and replayed during consolidation.
type Combiner = Box<dyn Fn(&mut Value, Value) + Send + Sync>;

struct Slot {
    stripes: Vec<Mutex<Option<Value>>>,
    /// Round-robin cursor for stripe assignment.
    next: AtomicUsize,
    combiner: OnceLock<Combiner>,
}

impl Slot {
    fn new(stripes: usize) -> Self {
        Self {
            stripes: (0..stripes).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            combiner: OnceLock::new(),
        }
    }

    fn any_live(&self) -> bool {
        self.stripes.iter().any(|s| s.lock().is_some())
    }

    /// Folds every live stripe into stripe 0. Locks stripes in index order;
    /// pairwise-folds adjacent survivors in rounds for a deterministic merge
    /// tree. No-op when at most one stripe is live.
    fn consolidate(&self) {
        let mut guards: Vec<_> = self.stripes.iter().map(|s| s.lock()).collect();
        let mut values: Vec<Value> = guards.iter_mut().filter_map(|g| g.take()).collect();
        if values.is_empty() {
            return;
        }
        if values.len() > 1 {
            let combine = self
                .combiner
                .get()
                .expect("striped slot holds several values but no combiner: engine bug");
            // Pairwise rounds: (0,1)(2,3)... then again, preserving order.
            while values.len() > 1 {
                let mut folded = Vec::with_capacity(values.len().div_ceil(2));
                let mut it = values.into_iter();
                while let Some(mut left) = it.next() {
                    if let Some(right) = it.next() {
                        combine(&mut left, right);
                    }
                    folded.push(left);
                }
                values = folded;
            }
            obs_consolidation();
        }
        *guards[0] = values.pop();
    }
}

/// Per-executor store of shared mutable objects.
pub struct MutableObjectManager {
    // Two-level locking: the map lock is held only to find/create the slot;
    // per-stripe locks inside each slot serialize merges so concurrent tasks
    // on different objects (or different stripes) don't contend.
    slots: Mutex<HashMap<ObjectId, Arc<Slot>>>,
    stripes: usize,
}

impl Default for MutableObjectManager {
    fn default() -> Self {
        Self::new()
    }
}

impl MutableObjectManager {
    /// A manager with one stripe per available core, capped at 8 — past
    /// that, round-robin spreading stops paying for the consolidation work.
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_stripes(cores.min(8))
    }

    /// A manager with exactly `stripes` stripes per slot. `1` reproduces the
    /// fully-serialized single-lock behaviour (the benchmark baseline).
    pub fn with_stripes(stripes: usize) -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            stripes: stripes.max(1),
        }
    }

    fn slot(&self, id: ObjectId) -> Arc<Slot> {
        self.slots
            .lock()
            .entry(id)
            .or_insert_with(|| Arc::new(Slot::new(self.stripes)))
            .clone()
    }

    /// Merges `value` into the object at `id`: the first arrival installs
    /// itself, later arrivals are combined via `merge`. This is the heart of
    /// In-Memory Merge.
    ///
    /// Concurrent callers land on different stripes round-robin and only
    /// contend `1/S`-th of the time; the stripes fold together on read-back.
    /// `merge` must be associative and commutative (the same contract the
    /// distributed reduction already imposes on `combOp`) and every caller
    /// for a given `id` must pass an equivalent `merge` — the first one is
    /// captured for consolidation.
    pub fn merge_in<T, F>(&self, id: ObjectId, value: T, merge: F)
    where
        T: Send + 'static,
        F: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let slot = self.slot(id);
        let merge = Arc::new(merge);
        {
            let erased = merge.clone();
            slot.combiner.get_or_init(move || {
                Box::new(move |acc: &mut Value, incoming: Value| {
                    let acc = acc
                        .downcast_mut::<T>()
                        .expect("mutable object type mismatch: engine bug");
                    let incoming = *incoming
                        .downcast::<T>()
                        .expect("mutable object type mismatch: engine bug");
                    erased(acc, incoming);
                })
            });
        }
        let idx = slot.next.fetch_add(1, Ordering::Relaxed) % slot.stripes.len();
        let mut guard = slot.stripes[idx].lock();
        match guard.take() {
            None => *guard = Some(Box::new(value)),
            Some(existing) => {
                let mut existing = *existing
                    .downcast::<T>()
                    .expect("mutable object type mismatch: engine bug");
                merge(&mut existing, value);
                *guard = Some(Box::new(existing));
            }
        }
        obs_merge();
    }

    /// Removes and returns the object at `id`, folding its stripes first.
    pub fn take<T: Send + 'static>(&self, id: ObjectId) -> Option<T> {
        let slot = self.slot(id);
        slot.consolidate();
        let mut guard = slot.stripes[0].lock();
        guard.take().map(|b| {
            *b.downcast::<T>()
                .expect("mutable object type mismatch: engine bug")
        })
    }

    /// Reads the object at `id` through `f` without removing it, folding its
    /// stripes first.
    pub fn with<T: Send + 'static, R>(&self, id: ObjectId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.peek(id, |value| value.map(f))
    }

    /// Like [`MutableObjectManager::with`], but `f` always runs: on the
    /// object at `id`, or on `fallback` when there is none.
    ///
    /// `f` runs under the slot's stripe-0 lock and may hold it for long: the
    /// ring stage runs its whole collective in here, borrowing the executor's
    /// aggregator instead of cloning it. That is sound because a gang task is
    /// its slot's only accessor: the action lock admits one op per cluster,
    /// the stage that merged into the slot has completed, and a gang retry is
    /// resubmitted only after every task of the failed attempt has returned.
    pub fn with_or<T: Send + 'static, R>(
        &self,
        id: ObjectId,
        fallback: &T,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        self.peek(id, |value| f(value.unwrap_or(fallback)))
    }

    fn peek<T: Send + 'static, R>(&self, id: ObjectId, f: impl FnOnce(Option<&T>) -> R) -> R {
        let slot = self.slot(id);
        slot.consolidate();
        let guard = slot.stripes[0].lock();
        f(guard.as_ref().map(|b| {
            b.downcast_ref::<T>()
                .expect("mutable object type mismatch: engine bug")
        }))
    }

    /// Clears every object belonging to operation `op` — the cleanup step
    /// before an IMM stage resubmission (paper §3.2: "we simply clean up the
    /// failed stage which is stored in the shared in-memory value").
    pub fn clear_op(&self, op: u64) {
        let mut slots = self.slots.lock();
        slots.retain(|id, _| id.op != op);
    }

    /// Number of live objects (for tests and leak checks).
    pub fn len(&self) -> usize {
        let slots = self.slots.lock();
        slots.values().filter(|s| s.any_live()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn obs_merge() {
    static MERGES: OnceLock<Arc<Counter>> = OnceLock::new();
    MERGES.get_or_init(|| metrics::counter("engine.imm.merges")).inc();
}

fn obs_consolidation() {
    static FOLDS: OnceLock<Arc<Counter>> = OnceLock::new();
    FOLDS.get_or_init(|| metrics::counter("engine.imm.consolidations")).inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: ObjectId = ObjectId { op: 1, slot: 0 };

    #[test]
    fn first_merge_installs_value() {
        let m = MutableObjectManager::new();
        m.merge_in(ID, 10u64, |a, b| *a += b);
        assert_eq!(m.take::<u64>(ID), Some(10));
        assert_eq!(m.take::<u64>(ID), None);
    }

    #[test]
    fn later_merges_combine() {
        let m = MutableObjectManager::new();
        m.merge_in(ID, 10u64, |a, b| *a += b);
        m.merge_in(ID, 5u64, |a, b| *a += b);
        m.merge_in(ID, 1u64, |a, b| *a += b);
        assert_eq!(m.take::<u64>(ID), Some(16));
    }

    #[test]
    fn with_reads_without_removing() {
        let m = MutableObjectManager::new();
        m.merge_in(ID, vec![1u32, 2], |a, mut b| a.append(&mut b));
        let len = m.with(ID, |v: &Vec<u32>| v.len());
        assert_eq!(len, Some(2));
        assert!(m.take::<Vec<u32>>(ID).is_some());
    }

    #[test]
    fn with_or_borrows_the_object_or_the_fallback() {
        let m = MutableObjectManager::new();
        assert_eq!(m.with_or(ID, &7u64, |v| *v), 7, "no object: the fallback");
        m.merge_in(ID, 10u64, |a, b| *a += b);
        assert_eq!(m.with_or(ID, &7u64, |v| *v), 10);
        assert_eq!(m.take::<u64>(ID), Some(10), "peeked, not taken");
    }

    #[test]
    fn with_consolidates_across_stripes() {
        // More merges than stripes, then a read-back without take: the read
        // must see the total, and a later take must still see it (the fold
        // is not lossy or repeated).
        let m = MutableObjectManager::with_stripes(4);
        for _ in 0..10 {
            m.merge_in(ID, 1u64, |a, b| *a += b);
        }
        assert_eq!(m.with(ID, |v: &u64| *v), Some(10));
        assert_eq!(m.take::<u64>(ID), Some(10));
    }

    #[test]
    fn clear_op_removes_only_that_op() {
        let m = MutableObjectManager::new();
        m.merge_in(ObjectId { op: 1, slot: 0 }, 1u64, |a, b| *a += b);
        m.merge_in(ObjectId { op: 1, slot: 1 }, 2u64, |a, b| *a += b);
        m.merge_in(ObjectId { op: 2, slot: 0 }, 3u64, |a, b| *a += b);
        m.clear_op(1);
        assert_eq!(m.take::<u64>(ObjectId { op: 1, slot: 0 }), None);
        assert_eq!(m.take::<u64>(ObjectId { op: 1, slot: 1 }), None);
        assert_eq!(m.take::<u64>(ObjectId { op: 2, slot: 0 }), Some(3));
    }

    #[test]
    fn concurrent_merges_lose_nothing() {
        let m = Arc::new(MutableObjectManager::new());
        let threads = 8;
        let per = 1000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        m.merge_in(ID, 1u64, |a, b| *a += b);
                    }
                });
            }
        });
        assert_eq!(m.take::<u64>(ID), Some(threads * per));
    }

    #[test]
    fn striped_matches_single_lock_result() {
        // Same merge stream through 1 stripe and 8 stripes must agree (sum
        // is associative/commutative, so grouping cannot matter).
        for stripes in [1usize, 8] {
            let m = Arc::new(MutableObjectManager::with_stripes(stripes));
            std::thread::scope(|s| {
                for t in 0..8u64 {
                    let m = m.clone();
                    s.spawn(move || {
                        for i in 0..250u64 {
                            m.merge_in(ID, t * 1000 + i, |a, b| *a += b);
                        }
                    });
                }
            });
            let want: u64 = (0..8u64).flat_map(|t| (0..250u64).map(move |i| t * 1000 + i)).sum();
            assert_eq!(m.take::<u64>(ID), Some(want), "stripes = {stripes}");
        }
    }

    #[test]
    fn len_counts_live_objects() {
        let m = MutableObjectManager::new();
        assert!(m.is_empty());
        m.merge_in(ID, 1u8, |a, b| *a += b);
        assert_eq!(m.len(), 1);
        m.take::<u8>(ID);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let m = MutableObjectManager::new();
        m.merge_in(ID, 1u64, |a, b| *a += b);
        m.take::<u32>(ID);
    }
}
