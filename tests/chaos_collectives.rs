//! Chaos suite: transport-level fault injection driven through the
//! collective aggregation paths.
//!
//! Every case wires a deterministic [`NetFaultPlan`] (drops, delays,
//! corruption, executor kills, partitions) around the scalable communicator
//! and runs split aggregation over integer-valued `f64` data, so any merge
//! order yields bit-exact results. The contract under chaos:
//!
//! * the op returns the exact aggregate, or a clean typed [`EngineError`] —
//!   never a silently wrong answer, never a panic;
//! * every wait is bounded (collective receive deadline, stage timeout) —
//!   never a hang;
//! * when the gang budget is exhausted, the op degrades to the tree
//!   fallback, visibly (History event + `AggMetrics::downgraded`).
//!
//! All seeds are fixed, so the suite is replayable offline (it runs as part
//! of `tools/check_hermetic.sh`).

use std::time::{Duration, Instant};

use sparker::engine::task::EngineResult;
use sparker::net::{ExecutorId, NetFaultPlan};
use sparker::prelude::*;
use sparker::sparse::SparseAccum;
use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, Source};

const EXECUTORS: usize = 3;
const DIM: usize = 29;

/// Fast-failing spec for chaos runs: short collective deadline, two gang
/// attempts, bounded driver waits — faults must resolve in seconds, not the
/// production 300 s stage timeout.
fn chaos_spec(plan: NetFaultPlan) -> ClusterSpec {
    ClusterSpec::local(EXECUTORS, 2)
        .with_collective_recv_timeout(Duration::from_millis(200))
        .with_max_collective_attempts(2)
        .with_stage_timeout(Duration::from_secs(60))
        .with_sc_fault(plan)
}

/// Element `i` of the expected aggregate: `sum(1..=24) * (i + 1)`. All
/// arithmetic stays on integer-valued `f64`, so the result is bit-exact
/// regardless of reduction order or path (ring vs fallback).
fn expected() -> Vec<f64> {
    let total: f64 = (1..=24u64).map(|x| x as f64).sum();
    (0..DIM).map(|i| total * (i + 1) as f64).collect()
}

fn run_split(cluster: &LocalCluster) -> EngineResult<(Vec<f64>, AggMetrics)> {
    run_split_chunked(cluster, 1)
}

/// Like [`run_split`] but over the chunk-pipelined ring (`chunks > 1`
/// overlaps chunk sends with chunk merges inside every ring step).
fn run_split_chunked(
    cluster: &LocalCluster,
    chunks: usize,
) -> EngineResult<(Vec<f64>, AggMetrics)> {
    let data = cluster.parallelize((1..=24u64).collect::<Vec<_>>(), 6);
    data.split_aggregate(
        vec![0.0f64; DIM],
        |mut acc: Vec<f64>, x: &u64| {
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
        |segs: Segments<F64Array>| F64Array(segs.into_iter().flat_map(|s| s.0).collect()),
        SplitAggOpts {
            parallelism: Some(2),
            algo: Algo::ChunkedRing(chunks as u8),
            ..Default::default()
        },
    )
    .map(|(v, m)| (v.0, m))
}

/// Sparse variant of [`run_split`]: each item `x` contributes value `x` at
/// index `7x mod 29` (7 is coprime to 29, so the 24 items hit 24 distinct
/// indices). Per-partition density is 4/29 — segments leave the executors
/// sparse — while the merged density is 24/29, so with the default
/// threshold the adaptive segments must switch to dense *mid-reduction*,
/// under whatever faults the plan injects. Integer values keep the answer
/// bit-exact on every path.
fn run_split_sparse(
    cluster: &LocalCluster,
    adaptive: bool,
) -> EngineResult<(Vec<f64>, AggMetrics)> {
    let data = cluster.parallelize((1..=24u64).collect::<Vec<_>>(), 6);
    let split = if adaptive { sparker::sparse::split } else { sparker::sparse::split_sparse };
    data.split_aggregate(
        sparker::sparse::zeros(DIM),
        |mut acc: SparseAccum, x: &u64| {
            acc.add((*x as u32 * 7) % DIM as u32, *x as f64);
            acc
        },
        sparker::sparse::merge,
        split,
        sparker::sparse::merge_segments,
        sparker::sparse::concat,
        SplitAggOpts { parallelism: Some(2), ..Default::default() },
    )
    .map(|(v, m)| (v.to_dense(), m))
}

fn expected_sparse() -> Vec<f64> {
    let mut out = vec![0.0; DIM];
    for x in 1..=24u64 {
        out[(x as usize * 7) % DIM] += x as f64;
    }
    out
}

/// Draws a random fault plan over the 3-executor cluster: one to four faults
/// of any kind, on any directed link, with small sequence numbers so they
/// land inside the ring stage's actual send window.
fn arb_plan(src: &mut Source) -> NetFaultPlan {
    let mut plan = NetFaultPlan::new();
    let faults = src.usize_in(1..5);
    for _ in 0..faults {
        let from = src.usize_in(0..EXECUTORS) as u32;
        let to = (from + src.usize_in(1..EXECUTORS) as u32) % EXECUTORS as u32;
        let (from, to) = (ExecutorId(from), ExecutorId(to));
        let seq = src.u64_in(0..10);
        plan = match src.usize_in(0..5) {
            0 => plan.drop_nth(from, to, seq),
            1 => plan.corrupt_nth(from, to, seq),
            2 => plan.delay_nth(from, to, seq, Duration::from_millis(src.u64_in(1..400))),
            3 => plan.kill_after_sends(from, src.u64_in(0..6)),
            _ => plan.partition(&[(from, to)]),
        };
    }
    plan
}

#[test]
fn random_fault_plans_never_hang_and_never_corrupt() {
    // Low shrink budget: each case boots a cluster, so replays are not free.
    let cfg = Config { cases: 10, seed: 0x0c4a_05ca_fe00_0001, max_shrink_trials: 40 };
    check(&cfg, |src| {
        let plan = arb_plan(src);
        let cluster = LocalCluster::new(chaos_spec(plan));
        let t = Instant::now();
        let out = run_split(&cluster);
        let elapsed = t.elapsed();
        tk_assert!(elapsed < Duration::from_secs(30), "chaos case took {elapsed:?}");
        match out {
            // Whatever the faults were, a returned answer must be exact.
            Ok((v, _)) => tk_assert_eq!(v, expected()),
            // A typed error is an acceptable outcome of extreme fault
            // schedules; a wrong answer or a panic never is. (The return
            // type makes it an `EngineError` by construction.)
            Err(_) => {}
        }
        Ok(())
    });
}

#[test]
fn random_fault_plans_never_corrupt_sparse_or_adaptive_segments() {
    // Same contract as the dense case, driven through DenseOrSparse
    // segments: exact answer or typed error, bounded time, including the
    // mid-reduction sparse→dense switch under retries and gang
    // resubmission.
    let cfg = Config { cases: 8, seed: 0x0c4a_05ca_fe00_0002, max_shrink_trials: 30 };
    check(&cfg, |src| {
        let plan = arb_plan(src);
        let adaptive = src.bool_any();
        let cluster = LocalCluster::new(chaos_spec(plan));
        let t = Instant::now();
        let out = run_split_sparse(&cluster, adaptive);
        let elapsed = t.elapsed();
        tk_assert!(elapsed < Duration::from_secs(30), "chaos case took {elapsed:?}");
        match out {
            Ok((v, _)) => tk_assert_eq!(v, expected_sparse()),
            Err(_) => {}
        }
        Ok(())
    });
}

#[test]
fn kill_mid_ring_downgrades_adaptive_segments_to_tree_fallback() {
    let plan = NetFaultPlan::new().kill_after_sends(ExecutorId(1), 2);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split_sparse(&cluster, true).unwrap();
    assert_eq!(v, expected_sparse());
    assert!(m.downgraded, "gang exhaustion must be recorded in metrics");
}

#[test]
fn dropped_frame_retries_through_the_dense_switch() {
    // The drop forces a timeout + gang resubmission; the retried attempt
    // re-splits from the intact accumulators and must reach the identical
    // answer through the same sparse→dense switch.
    let plan = NetFaultPlan::new().drop_nth(ExecutorId(0), ExecutorId(1), 0);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split_sparse(&cluster, true).unwrap();
    assert_eq!(v, expected_sparse());
    assert!(!m.downgraded, "one transient drop must not exhaust the gang");
}

#[test]
fn corrupted_sparse_frame_is_rejected_and_retried() {
    // Corruption must surface as a typed codec/checksum failure (the
    // sparse decoder additionally validates sortedness and bounds), then
    // the retry completes exactly.
    let plan = NetFaultPlan::new().corrupt_nth(ExecutorId(2), ExecutorId(0), 1);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split_sparse(&cluster, false).unwrap();
    assert_eq!(v, expected_sparse());
    assert!(!m.downgraded);
}

#[test]
fn kill_mid_ring_degrades_to_tree_fallback_visible_in_history() {
    // Executor 1 dies (on the collective transport) after its second send —
    // mid reduce-scatter. Both gang attempts fail, the op downgrades, and
    // the fallback still produces the exact answer.
    let plan = NetFaultPlan::new().kill_after_sends(ExecutorId(1), 2);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split(&cluster).unwrap();
    assert_eq!(v, expected());
    assert!(m.downgraded, "gang exhaustion must be recorded in metrics");
    let kinds: Vec<String> =
        cluster.history().snapshot().iter().map(|e| e.kind().to_string()).collect();
    for want in ["split-downgrade", "split-fallback", "split-fallback-final"] {
        assert!(kinds.iter().any(|k| k == want), "missing {want} in {kinds:?}");
    }
}

#[test]
fn single_dropped_frame_recovers_within_gang_budget() {
    let plan = NetFaultPlan::new().drop_nth(ExecutorId(0), ExecutorId(1), 0);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split(&cluster).unwrap();
    assert_eq!(v, expected());
    assert!(!m.downgraded, "one transient drop must not exhaust the gang");
    // The receiver timed out on the missing frame, the gang resubmitted,
    // and the retry ran clean: more ring attempts than executors.
    let snap = cluster.history().snapshot();
    let ring = snap.iter().find(|e| e.kind() == "split-ring").expect("ring stage ran");
    assert!(ring.attempts > EXECUTORS as u32, "attempts = {}", ring.attempts);
}

#[test]
fn corrupted_frame_is_rejected_and_retried() {
    // The epoch header's checksum turns the flipped byte into a codec error
    // on the receiver; the gang resubmits and the answer stays exact.
    let plan = NetFaultPlan::new().corrupt_nth(ExecutorId(2), ExecutorId(0), 1);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split(&cluster).unwrap();
    assert_eq!(v, expected());
    assert!(!m.downgraded);
}

#[test]
fn partitioned_link_exhausts_gang_and_still_answers_exactly() {
    // A permanently dead directed link starves the same receive on every
    // attempt. The collective deadline bounds each attempt, the gang budget
    // bounds the attempts, and the fallback completes over the BM path.
    let plan = NetFaultPlan::new().partition(&[(ExecutorId(0), ExecutorId(1))]);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let t = Instant::now();
    let (v, m) = run_split(&cluster).unwrap();
    assert_eq!(v, expected());
    assert!(m.downgraded);
    assert!(
        t.elapsed() < Duration::from_secs(10),
        "degradation must be bounded by deadlines, took {:?}",
        t.elapsed()
    );
}

#[test]
fn chunked_ring_random_fault_plans_never_hang_and_never_corrupt() {
    // Same contract as the unpipelined case, with chunk pipelining on: a
    // drop/corrupt/kill can now land on any *chunk* frame mid-step, and the
    // outcome must still be the exact answer or a typed error, in bounded
    // time.
    let cfg = Config { cases: 8, seed: 0x0c4a_05ca_fe00_0003, max_shrink_trials: 30 };
    check(&cfg, |src| {
        let plan = arb_plan(src);
        let chunks = src.usize_in(1..5);
        let cluster = LocalCluster::new(chaos_spec(plan));
        let t = Instant::now();
        let out = run_split_chunked(&cluster, chunks);
        let elapsed = t.elapsed();
        tk_assert!(elapsed < Duration::from_secs(30), "chaos case took {elapsed:?}");
        match out {
            Ok((v, _)) => tk_assert_eq!(v, expected()),
            Err(_) => {}
        }
        Ok(())
    });
}

#[test]
fn chunk_frame_drop_retries_within_gang_budget() {
    // With C = 3 chunks per segment the dropped frame is a chunk frame in
    // the middle of a pipelined step; the receive deadline catches it and
    // the resubmitted gang must answer exactly without downgrading.
    let plan = NetFaultPlan::new().drop_nth(ExecutorId(0), ExecutorId(1), 2);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split_chunked(&cluster, 3).unwrap();
    assert_eq!(v, expected());
    assert!(!m.downgraded, "one dropped chunk must not exhaust the gang");
}

#[test]
fn corrupted_chunk_frame_is_rejected_and_retried() {
    // The checksum rejects the flipped chunk; the retry replays the whole
    // pipelined schedule and must land on the identical answer.
    let plan = NetFaultPlan::new().corrupt_nth(ExecutorId(2), ExecutorId(0), 3);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let (v, m) = run_split_chunked(&cluster, 3).unwrap();
    assert_eq!(v, expected());
    assert!(!m.downgraded);
}

#[test]
fn kill_mid_pipelined_ring_degrades_to_tree_fallback() {
    // Executor death mid-pipeline: both gang attempts fail, and the tree
    // fallback (which splits over the same P*N*C segment space) still
    // produces the exact answer.
    let plan = NetFaultPlan::new().kill_after_sends(ExecutorId(1), 4);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let t = Instant::now();
    let (v, m) = run_split_chunked(&cluster, 3).unwrap();
    assert_eq!(v, expected());
    assert!(m.downgraded, "gang exhaustion must be recorded in metrics");
    assert!(t.elapsed() < Duration::from_secs(30), "fallback must be bounded");
}

#[test]
fn imm_concurrent_merges_lose_nothing_under_load() {
    // Mirror of engine::objects::concurrent_merges_lose_nothing at chaos
    // scale: heavier values (vectors) from 8 threads into one slot must add
    // up exactly to the serial total.
    use sparker::engine::objects::{MutableObjectManager, ObjectId};
    let id = ObjectId { op: 9, slot: 0 };
    let threads = 8usize;
    let per = 500usize;
    let m = std::sync::Arc::new(MutableObjectManager::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let m = m.clone();
            s.spawn(move || {
                for i in 0..per {
                    let v = vec![(t * per + i) as f64; DIM];
                    m.merge_in(id, v, |a: &mut Vec<f64>, b: Vec<f64>| {
                        for (x, y) in a.iter_mut().zip(b) {
                            *x += y;
                        }
                    });
                }
            });
        }
    });
    let got = m.take::<Vec<f64>>(id).expect("merged vector present");
    let want: f64 = (0..threads * per).map(|k| k as f64).sum();
    assert_eq!(got, vec![want; DIM]);
}

#[test]
fn allreduce_gang_recovers_from_a_dropped_frame() {
    let plan = NetFaultPlan::new().drop_nth(ExecutorId(1), ExecutorId(2), 0);
    let cluster = LocalCluster::new(chaos_spec(plan));
    let data = cluster.parallelize((1..=24u64).collect::<Vec<_>>(), 6);
    let out = data
        .allreduce_aggregate(
            vec![0.0f64; DIM],
            |mut acc: Vec<f64>, x: &u64| {
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
                SumSegment(u[lo..hi].to_vec())
            },
            |a: &mut SumSegment, b: SumSegment| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            |segs: Segments<SumSegment>| SumSegment(segs.into_iter().flat_map(|s| s.0).collect()),
            Some(2),
        )
        .unwrap();
    assert_eq!(out.value.0, expected());
}
