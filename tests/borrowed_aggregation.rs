//! The aggregation paths borrow what they used to clone.
//!
//! * [`Rdd::for_each_ref`] shows a fold exactly the items `compute` yields,
//!   in order, for every RDD kind (cold and warm for a cached one).
//! * `split_aggregate` over a warm cached dataset clones no item and no
//!   aggregator that anything has been folded or merged into, on the ring
//!   path, on the tree fallback and for executors that own no partition.
//!   The only clones left are of the pristine zero, one per IMM lane (one
//!   lane per core of an executor that owns a partition), and their number
//!   is pinned. Stage closures borrow the op's one shared zero and clone
//!   none.
//! * A gang retry re-reads the borrowed input: an injected task failure and
//!   a dropped frame both give the exact result on the second attempt, and a
//!   gang that exhausts its budget still finds the aggregators intact for
//!   the tree fallback.
//! * `tree_aggregate` retains no aggregator once it returns, with or
//!   without IMM, and clones its zero only where a fold or a merge starts
//!   from it; the driver merge starts from the op's own zero.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sparker::engine::rdd::{RddRef, TaskContext};
use sparker::engine::rdds::{
    CachedRdd, FilterRdd, FlatMapRdd, GeneratedRdd, MapPartitionsRdd, MapRdd, ParallelCollection,
    SpawnRdd, UnionRdd,
};
use sparker::net::codec::{Decoder, Encoder};
use sparker::net::error::NetResult;
use sparker::net::{ExecutorId, NetFaultPlan};
use sparker::prelude::*;
use sparker_testkit::{check, tk_assert_eq, Config};

fn visited(rdd: &RddRef<u64>, split: usize, ctx: &TaskContext) -> Vec<u64> {
    let mut seen = Vec::new();
    rdd.for_each_ref(split, ctx, &mut |x| seen.push(*x));
    seen
}

#[test]
fn visitor_sees_exactly_what_compute_yields() {
    check(&Config::with_cases(24), |src| {
        let items = src.vec_of(0..40, |s| s.u64_in(0..1000));
        let parts = src.usize_in(1..6);
        let base: RddRef<u64> = Arc::new(ParallelCollection::new(items, parts));
        let generated: RddRef<u64> = Arc::new(GeneratedRdd::new(parts, |p| {
            (0..p as u64 * 2).map(|i| i * 7 + 1).collect()
        }));
        let rdds: Vec<(&str, RddRef<u64>)> = vec![
            ("parallel", base.clone()),
            ("generated", generated.clone()),
            ("map", Arc::new(MapRdd::new(base.clone(), |x| x * 3 + 1))),
            (
                "filter",
                Arc::new(FilterRdd::new(base.clone(), |x| x % 2 == 0)),
            ),
            (
                "flat_map",
                Arc::new(FlatMapRdd::new(base.clone(), |x| vec![x; (x % 3) as usize])),
            ),
            (
                "map_partitions",
                Arc::new(MapPartitionsRdd::new(
                    base.clone(),
                    |p, mut items: Vec<u64>| {
                        items.reverse();
                        items.push(p as u64);
                        items
                    },
                )),
            ),
            ("union", Arc::new(UnionRdd::new(base.clone(), generated))),
            ("cached", Arc::new(CachedRdd::new(base.clone()))),
            (
                "spawn",
                Arc::new(SpawnRdd::new(vec![ExecutorId(0); parts], |split, ctx| {
                    vec![split as u64, ctx.executor.0 as u64]
                })),
            ),
        ];
        for (name, rdd) in &rdds {
            // A fresh context per RDD: the first visit of a cached one is cold.
            let ctx = TaskContext::standalone();
            for split in 0..rdd.num_partitions() {
                let cold = visited(rdd, split, &ctx);
                let want: Vec<u64> = rdd.compute(split, &ctx).collect();
                tk_assert_eq!(cold, want, "{name}, split {split}, first visit");
                tk_assert_eq!(
                    visited(rdd, split, &ctx),
                    want,
                    "{name}, split {split}, second visit"
                );
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Clone counting
// ---------------------------------------------------------------------------

const DIM: usize = 64;
const ITEMS: u64 = 64;

#[derive(Default)]
struct Clones {
    item: AtomicUsize,
    pristine_agg: AtomicUsize,
    folded_agg: AtomicUsize,
}

impl Clones {
    fn read(&self) -> (usize, usize, usize) {
        (
            self.item.load(Ordering::SeqCst),
            self.pristine_agg.load(Ordering::SeqCst),
            self.folded_agg.load(Ordering::SeqCst),
        )
    }
}

struct Item {
    x: u64,
    clones: Arc<Clones>,
}

impl Clone for Item {
    fn clone(&self) -> Self {
        self.clones.item.fetch_add(1, Ordering::SeqCst);
        Self {
            x: self.x,
            clones: self.clones.clone(),
        }
    }
}

/// Sums `x · (i + 1)` into slot `i`. `touched` turns true as soon as
/// anything is folded or merged in, and decides which counter a clone bumps.
struct Agg {
    sum: Vec<f64>,
    touched: bool,
    clones: Arc<Clones>,
}

impl Clone for Agg {
    fn clone(&self) -> Self {
        let counter = if self.touched {
            &self.clones.folded_agg
        } else {
            &self.clones.pristine_agg
        };
        counter.fetch_add(1, Ordering::SeqCst);
        Self {
            sum: self.sum.clone(),
            touched: self.touched,
            clones: self.clones.clone(),
        }
    }
}

fn expected() -> Vec<f64> {
    let total: f64 = (1..=ITEMS).map(|x| x as f64).sum();
    (0..DIM).map(|i| total * (i + 1) as f64).collect()
}

/// A cached dataset of `1..=ITEMS`, already materialised on its executors.
fn warm_dataset(cluster: &LocalCluster, partitions: usize, clones: &Arc<Clones>) -> Dataset<Item> {
    let items = (1..=ITEMS)
        .map(|x| Item {
            x,
            clones: clones.clone(),
        })
        .collect();
    let data = cluster.parallelize(items, partitions).cache();
    assert_eq!(data.count().unwrap(), ITEMS);
    // Filling the cache and counting clone items; the aggregation must not.
    clones.item.store(0, Ordering::SeqCst);
    data
}

fn run(data: &Dataset<Item>, clones: &Arc<Clones>, opts: SplitAggOpts) -> (Vec<f64>, AggMetrics) {
    let zero = Agg {
        sum: vec![0.0; DIM],
        touched: false,
        clones: clones.clone(),
    };
    let (v, m) = data
        .split_aggregate(
            zero,
            |mut acc: Agg, item: &Item| {
                for (i, a) in acc.sum.iter_mut().enumerate() {
                    *a += item.x as f64 * (i + 1) as f64;
                }
                acc.touched = true;
                acc
            },
            |a: &mut Agg, b: Agg| {
                for (x, y) in a.sum.iter_mut().zip(b.sum) {
                    *x += y;
                }
                a.touched = true;
            },
            |u: &Agg, i: usize, n: usize| {
                let (lo, hi) = slice_bounds(u.sum.len(), i, n);
                F64Array(u.sum[lo..hi].to_vec())
            },
            |a: &mut F64Array, b: F64Array| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            |segs: Segments<F64Array>| F64Array(segs.into_iter().flat_map(|s| s.0).collect()),
            opts,
        )
        .unwrap();
    (v.0, m)
}

/// Runs one aggregation on a fresh `executors × 1` cluster and returns
/// `(item clones, pristine aggregator clones, folded aggregator clones)`.
fn clones_of(
    executors: usize,
    partitions: usize,
    opts: SplitAggOpts,
) -> ((usize, usize, usize), AggMetrics) {
    let clones = Arc::new(Clones::default());
    let cluster = LocalCluster::local(executors, 1);
    let data = warm_dataset(&cluster, partitions, &clones);
    let (v, m) = run(&data, &clones, opts);
    assert_eq!(v, expected());
    (clones.read(), m)
}

#[test]
fn ring_path_clones_no_item_and_no_folded_aggregator() {
    let (clones, m) = clones_of(4, 8, SplitAggOpts::default());
    assert!(!m.downgraded);
    // Pristine zeros: one per lane, four one-core executors.
    assert_eq!(clones, (0, 4, 0));
}

#[test]
fn tree_fallback_clones_no_item_and_no_folded_aggregator() {
    let opts = SplitAggOpts {
        algo: Algo::Tree,
        ..Default::default()
    };
    let (clones, m) = clones_of(4, 8, opts);
    assert_eq!(m.strategy, AggStrategy::Split);
    // The seeding stage borrows the shared zero, as the ring stage does.
    assert_eq!(clones, (0, 4, 0));
}

#[test]
fn executors_without_a_partition_split_the_borrowed_zero() {
    // 4 partitions on 6 executors: two executors run no lane, hold no
    // aggregator and split `&zero` itself.
    let (clones, m) = clones_of(6, 4, SplitAggOpts::default());
    assert!(!m.downgraded);
    assert_eq!(clones, (0, 4, 0));
}

// ---------------------------------------------------------------------------
// Gang retry through the borrowed input
// ---------------------------------------------------------------------------

/// Short collective deadline and two gang attempts, as in the chaos suite.
/// `DIM` divides evenly into the `P·N = 8` segments, so a frame that is taken
/// for its dropped predecessor still has its slot's shape.
fn retry_spec() -> ClusterSpec {
    ClusterSpec::local(4, 1)
        .with_collective_recv_timeout(Duration::from_millis(200))
        .with_max_collective_attempts(2)
        .with_stage_timeout(Duration::from_secs(60))
}

/// 4 IMM lanes (8 partitions on 4 one-core executors), then a gang of 4
/// that ran twice.
const ATTEMPTS_WITH_ONE_GANG_RETRY: u32 = 4 + 4 + 4;

#[test]
fn injected_ring_task_failure_retries_on_the_same_input() {
    let clones = Arc::new(Clones::default());
    let cluster = LocalCluster::new(retry_spec());
    let data = warm_dataset(&cluster, 8, &clones);
    // The first op of a fresh cluster is op 1 (`count` takes no op id).
    cluster.fault_plan().fail_once("split-ring-op1", 2);
    let (v, m) = run(&data, &clones, SplitAggOpts::default());
    assert_eq!(v, expected());
    assert!(!m.downgraded);
    assert_eq!(m.task_attempts, ATTEMPTS_WITH_ONE_GANG_RETRY);
    assert_eq!(clones.read(), (0, 4, 0));
}

#[test]
fn dropped_frame_retries_on_the_same_input() {
    let clones = Arc::new(Clones::default());
    let plan = NetFaultPlan::new().drop_nth(ExecutorId(0), ExecutorId(1), 0);
    let cluster = LocalCluster::new(retry_spec().with_sc_fault(plan));
    let data = warm_dataset(&cluster, 8, &clones);
    let (v, m) = run(&data, &clones, SplitAggOpts::default());
    assert_eq!(v, expected());
    assert!(!m.downgraded);
    assert_eq!(m.task_attempts, ATTEMPTS_WITH_ONE_GANG_RETRY);
    assert_eq!(clones.read(), (0, 4, 0));
}

#[test]
fn exhausted_gang_downgrades_to_the_tree_on_intact_aggregators() {
    let clones = Arc::new(Clones::default());
    let plan = NetFaultPlan::new().kill_after_sends(ExecutorId(1), 2);
    let cluster = LocalCluster::new(retry_spec().with_sc_fault(plan));
    let data = warm_dataset(&cluster, 8, &clones);
    let (v, m) = run(&data, &clones, SplitAggOpts::default());
    assert_eq!(v, expected());
    assert!(
        m.downgraded,
        "both gang attempts fail on the killed executor"
    );
    // Both gang attempts and the seeding stage borrow the shared zero.
    assert_eq!(clones.read(), (0, 4, 0));
}

// ---------------------------------------------------------------------------
// Retained aggregators
// ---------------------------------------------------------------------------

/// `Live` values in existence: construction and `Clone` count up, `Drop`
/// counts down. Only one test builds them.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Live(u64);

impl Live {
    fn new(sum: u64) -> Self {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Self(sum)
    }
}

impl Clone for Live {
    fn clone(&self) -> Self {
        Self::new(self.0)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Payload for Live {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok(Self::new(dec.get_u64()?))
    }
    fn size_hint(&self) -> usize {
        8
    }
}

#[test]
fn tree_aggregate_retains_no_aggregator() {
    let cluster = LocalCluster::local(4, 1);
    let data = cluster.parallelize((1..=64u64).collect::<Vec<_>>(), 16);
    // A later task on every one-core executor, so no finished stage closure
    // still holds its zero when the count is read.
    let live = || {
        assert_eq!(data.count().unwrap(), 64);
        LIVE.load(Ordering::SeqCst)
    };
    let start = live();
    for imm in [false, true] {
        for _ in 0..10 {
            let (sum, _) = data
                .tree_aggregate(
                    Live::new(0),
                    |acc, x| Live::new(acc.0 + x),
                    |a, b| Live::new(a.0 + b.0),
                    TreeAggOpts { depth: 2, imm },
                )
                .unwrap();
            assert_eq!(sum.0, 64 * 65 / 2);
        }
        assert_eq!(live(), start, "aggregators retained after 10 ops, imm: {imm}");
    }
}

/// Clones of a `Counted` zero. Only one test builds `Counted` values, and
/// any value something was folded into is positive.
static ZERO_CLONES: AtomicUsize = AtomicUsize::new(0);

struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        if self.0 == 0 {
            ZERO_CLONES.fetch_add(1, Ordering::SeqCst);
        }
        Self(self.0)
    }
}

impl Payload for Counted {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
    fn decode_from(dec: &mut Decoder) -> NetResult<Self> {
        Ok(Self(dec.get_u64()?))
    }
    fn size_hint(&self) -> usize {
        8
    }
}

#[test]
fn tree_aggregate_clones_the_zero_once_per_fold_and_merge() {
    // 16 partitions on 4 one-core executors, depth 2 (scale 4). Without
    // IMM: one clone per partition task (16) and one per shuffle merge into
    // an occupied slot (16 arrivals into 4 slots: 12). With IMM: one per
    // lane (4) and no shuffle round. Every executor runs a final task, so no
    // stage closure holds the zero when the driver merge takes it.
    let cluster = LocalCluster::local(4, 1);
    let data = cluster.parallelize((1..=64u64).collect::<Vec<_>>(), 16);
    for (imm, want) in [(false, 16 + 12), (true, 4)] {
        ZERO_CLONES.store(0, Ordering::SeqCst);
        let (total, _) = data
            .tree_aggregate(
                Counted(0),
                |acc, x| Counted(acc.0 + x),
                |a, b| Counted(a.0 + b.0),
                TreeAggOpts { depth: 2, imm },
            )
            .unwrap();
        assert_eq!(total.0, 64 * 65 / 2);
        assert_eq!(ZERO_CLONES.load(Ordering::SeqCst), want, "imm: {imm}");
    }
}
