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
//! Each slot is one value behind one lock. [`MutableObjectManager::merge_in`]
//! installs the first arrival and merges every later one into it in place,
//! so a slot's value is the merge of its inputs in completion order. Only
//! the value is stored: the merge closure does not outlive the call.

use std::any::Any;
use std::collections::HashMap;
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

type Slot = Arc<Mutex<Option<Box<dyn Any + Send>>>>;

/// Per-executor store of shared mutable objects.
#[derive(Default)]
pub struct MutableObjectManager {
    // Two-level locking: the map lock is held only to find/create the slot;
    // each slot's own lock serializes merges into it, so concurrent tasks on
    // different objects don't contend.
    slots: Mutex<HashMap<ObjectId, Slot>>,
}

impl MutableObjectManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, id: ObjectId) -> Option<Slot> {
        self.slots.lock().get(&id).cloned()
    }

    /// Merges `value` into the object at `id`: the first arrival installs
    /// itself, later arrivals are merged into it in place via `merge`, under
    /// the slot's lock. This is the heart of In-Memory Merge.
    pub fn merge_in<T: Send + 'static>(
        &self,
        id: ObjectId,
        value: T,
        merge: impl FnOnce(&mut T, T),
    ) {
        let slot = self.slots.lock().entry(id).or_default().clone();
        let mut guard = slot.lock();
        match guard.as_mut() {
            None => *guard = Some(Box::new(value)),
            Some(existing) => merge(
                existing
                    .downcast_mut::<T>()
                    .expect("mutable object type mismatch: engine bug"),
                value,
            ),
        }
        obs_merge();
    }

    /// Removes and returns the object at `id`.
    pub fn take<T: Send + 'static>(&self, id: ObjectId) -> Option<T> {
        let value = self.find(id)?.lock().take()?;
        Some(*value.downcast::<T>().expect("mutable object type mismatch: engine bug"))
    }

    /// Reads the object at `id` through `f` without removing it.
    pub fn with<T: Send + 'static, R>(&self, id: ObjectId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.peek(id, |value| value.map(f))
    }

    /// Like [`MutableObjectManager::with`], but `f` always runs: on the
    /// object at `id`, or on `fallback` when there is none.
    ///
    /// `f` runs under the slot lock and may hold it for long: the ring stage
    /// runs its whole collective in here, borrowing the executor's
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
        let Some(slot) = self.find(id) else { return f(None) };
        let guard = slot.lock();
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
        slots.values().filter(|s| s.lock().is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn obs_merge() {
    static MERGES: OnceLock<Arc<Counter>> = OnceLock::new();
    MERGES.get_or_init(|| metrics::counter("engine.imm.merges")).inc();
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
