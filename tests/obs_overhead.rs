//! Observability disabled-path overhead guarantees.
//!
//! With fine-grained tracing off (the default), an instrumented run must
//! not touch the gated tier at all: no per-thread trace buffers are
//! allocated and no task/step/net/ml spans reach the sink. The always-on
//! scoped tier (stage history, op phases) keeps working regardless.
//!
//! These tests must live in their own integration-test binary: the enable
//! flag is process-global, and every test here relies on it staying off.

use std::sync::Arc;

use sparker::prelude::*;
use sparker_engine::ops::split_aggregate::split_aggregate;
use sparker_engine::rdd::RddRef;
use sparker_engine::rdds::ParallelCollection;
use sparker_obs::{trace, Layer};

fn run_one_split(cluster: &LocalCluster) {
    let rdd: RddRef<u64> = Arc::new(ParallelCollection::new((1..=64).collect(), 8));
    let (v, _) = split_aggregate(
        cluster,
        rdd,
        vec![0.0f64; 32],
        |mut acc: Vec<f64>, x: &u64| {
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
        SplitAggOpts::default(),
    )
    .unwrap();
    let want = (1..=64u64).sum::<u64>() as f64;
    assert_eq!(v.0, vec![want; 32]);
}

#[test]
fn disabled_tracing_allocates_no_buffers_and_records_no_gated_spans() {
    assert!(!trace::enabled(), "tracing must be off by default");
    let buffers_before = trace::thread_buffers_created();

    let cluster = LocalCluster::new(ClusterSpec::local(4, 2));
    run_one_split(&cluster);

    assert_eq!(
        trace::thread_buffers_created(),
        buffers_before,
        "disabled run allocated per-thread trace buffers"
    );
    let spans = trace::snapshot_scope(cluster.history().scope());
    for layer in [Layer::Task, Layer::Step, Layer::Net, Layer::Ml] {
        assert!(
            spans.iter().all(|s| s.layer != layer),
            "disabled run recorded a {layer:?} span"
        );
    }
}

#[test]
fn history_and_metrics_work_with_tracing_disabled() {
    assert!(!trace::enabled(), "tracing must be off by default");
    let cluster = LocalCluster::new(ClusterSpec::local(2, 2));
    run_one_split(&cluster);

    // The scoped tier is always on: the history-log view and the driver op
    // phases are intact even though fine-grained tracing never ran.
    let history = cluster.history();
    assert!(history.time_with_prefix("split-imm-op") > std::time::Duration::ZERO);
    assert!(history.time_with_prefix("split-ring-op") > std::time::Duration::ZERO);
    assert!(history.aggregation_share() > 0.0);
    let spans = trace::snapshot_scope(history.scope());
    assert!(
        spans.iter().any(|s| s.layer == Layer::Driver && s.name.starts_with("split-compute")),
        "driver op-phase spans must record while disabled"
    );
}
