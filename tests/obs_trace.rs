//! End-to-end trace pipeline on the threaded engine.
//!
//! Enables fine-grained tracing, trains a model with both aggregation
//! modes, and checks the acceptance criteria of the observability
//! subsystem: every layer of the span taxonomy emits, the Chrome trace
//! export round-trips through the in-repo JSON parser, and the Fig 2
//! breakdown derived from the raw trace agrees with the `History`-derived
//! one within 5%.
//!
//! Lives in its own integration-test binary because it flips the
//! process-global enable flag.

use std::sync::Mutex;

use sparker::prelude::*;
use sparker_obs::{export, json, trace, Layer};

/// The enable flag and the sink are process-global, and both tests drain
/// the sink with `take()` — serialize them.
static GLOBAL: Mutex<()> = Mutex::new(());

fn train_lr(cluster: &LocalCluster, mode: AggregationMode) {
    let profile = sparker_data::profiles::avazu().feature_scaled(1e-4); // 100 features
    let dim = profile.features();
    let gen = profile.classification_gen();
    let parts = 2 * cluster.num_executors();
    let data = cluster
        .generate(parts, move |p| {
            gen.partition(p, parts, 256).into_iter().map(LabeledPoint::from).collect()
        })
        .cache();
    data.count().unwrap();
    LogisticRegression { iterations: 2, ..Default::default() }
        .with_mode(mode)
        .train(&data, dim)
        .unwrap();
}

#[test]
fn trace_derived_breakdown_matches_history_within_5_percent() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    trace::enable();
    let _ = trace::take(); // drop any leftovers from a previous test

    let mut layers_seen = std::collections::BTreeSet::new();
    for mode in [AggregationMode::Tree, AggregationMode::split()] {
        let cluster = LocalCluster::new(ClusterSpec::local(4, 2));
        train_lr(&cluster, mode);

        // --- Fig 2 cross-check: History view vs raw-trace view ----------
        let history_share = cluster.history().aggregation_share();
        let spans = trace::snapshot_scope(cluster.history().scope());
        let breakdown = export::stage_breakdown(&spans);
        let trace_share = breakdown.aggregation_share();
        assert!(history_share > 0.0, "workload must spend time aggregating");
        assert!(
            (history_share - trace_share).abs() <= 0.05,
            "mode {}: history share {history_share:.4} vs trace share {trace_share:.4}",
            mode.name()
        );

        // Per-kind totals agree too (History::summary vs Breakdown rows).
        let summary = cluster.history().summary();
        assert_eq!(summary.len(), breakdown.rows.len());
        for (kind, dur, _) in &summary {
            let row = breakdown
                .rows
                .iter()
                .find(|r| &r.kind == kind)
                .unwrap_or_else(|| panic!("kind {kind} missing from trace breakdown"));
            let (a, b) = (dur.as_secs_f64(), row.total.as_secs_f64());
            assert!((a - b).abs() <= 0.05 * a.max(b).max(1e-9), "kind {kind}: {a} vs {b}");
        }

        // --- layer coverage (checked across both modes below: tree
        // aggregation runs no collectives, so Step only appears for split)
        let mut all = spans;
        all.extend(trace::take().into_iter().filter(|s| s.scope == 0));
        layers_seen.extend(all.iter().map(|s| s.layer));

        // --- Chrome export round-trips through the in-repo parser -------
        let out = export::chrome_trace_json(&all);
        let parsed = json::parse(&out).expect("chrome trace JSON must parse");
        let events = parsed.as_array().expect("trace-event array");
        assert_eq!(events.len(), all.len());
        for (e, s) in events.iter().zip(&all) {
            assert_eq!(e.get("cat").and_then(|c| c.as_str()), Some(s.layer.as_str()));
            assert_eq!(e.get("name").and_then(|n| n.as_str()), Some(s.name.as_str()));
        }
    }

    for layer in Layer::ALL {
        assert!(layers_seen.contains(&layer), "no spans from layer {layer:?}");
    }

    trace::disable();
}

#[test]
fn collective_steps_carry_peer_bytes_and_epoch() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    trace::enable();
    let _ = trace::take(); // drop any leftovers from a previous test

    let cluster = LocalCluster::new(ClusterSpec::local(4, 1));
    train_lr(&cluster, AggregationMode::split());
    let steps: Vec<_> = trace::take()
        .into_iter()
        .filter(|s| s.layer == Layer::Step && s.name == "ring.step")
        .collect();
    assert!(!steps.is_empty(), "split training must emit ring steps");
    for s in &steps {
        for key in ["step", "rank", "peer", "send_bytes", "recv_bytes", "op", "epoch"] {
            assert!(s.arg(key).is_some(), "ring.step missing arg {key}");
        }
        assert_ne!(s.arg("rank"), s.arg("peer"), "ring peer must differ from rank");
    }

    trace::disable();
}

/// The tuner's calibration input is this trace: `ring.step` spans of real
/// flat-ring runs on a two-node ring must classify into both link classes,
/// or the fit silently keeps the default model's parameters.
#[test]
fn traced_flat_ring_steps_calibrate_both_link_classes() {
    use sparker::collectives::hierarchical::node_topology_of;
    use sparker::collectives::ring::ring_reduce_scatter;
    use sparker::collectives::testing::{run_ring_cluster, RingClusterSpec};
    use sparker::net::topology::{round_robin_layout, RingTopology};

    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    trace::enable();
    let _ = trace::take(); // drop any leftovers from a previous test

    let (nodes, epn, p) = (2, 4, 2);
    let spec = RingClusterSpec::unshaped(nodes, epn, p);
    // Spread-out sizes, so the fit sees a byte slope.
    for elems in [64usize, 1024, 8 * 1024] {
        run_ring_cluster(&spec, move |comm| {
            let segs = (0..p * nodes * epn).map(|g| U64SumSegment(vec![g as u64; elems])).collect();
            ring_reduce_scatter(&comm, segs).unwrap()
        });
    }
    let spans = trace::take();
    trace::disable();

    // Classify hops through the same topology-aware ring the harness built.
    let ring = RingTopology::new(round_robin_layout(nodes, epn, 1), RingOrder::TopologyAware, p);
    let topo = node_topology_of(&ring);
    let cal = sparker_tuner::calibrate_from_spans(&spans, |rank, peer| {
        let id = |r: u64| ring.executor_at(r as usize).id;
        Some(topo.link_class(id(rank), id(peer)))
    });
    assert!(
        cal.intra_samples > 0 && cal.inter_samples > 0,
        "calibration must see both link classes: intra {} inter {}",
        cal.intra_samples,
        cal.inter_samples
    );
}

/// The engine's two meshes name their hops: tree aggregation's task
/// results and shuffle blocks ride the BlockManager-class mesh (`bm.*`),
/// the split-aggregation ring rides the scalable communicator (`sc.*`), and
/// no engine hop is labelled as the MPI reference.
#[test]
fn engine_hops_are_labelled_by_the_mesh_that_carries_them() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    trace::enable();

    let cluster = LocalCluster::new(ClusterSpec::local(4, 1));
    let data = cluster.generate(8, |p| vec![vec![p as f64; 64]; 1]).cache();
    data.count().unwrap();
    let add = |mut acc: F64Array, v: &Vec<f64>| {
        for (a, x) in acc.0.iter_mut().zip(v) {
            *a += *x;
        }
        acc
    };
    let net_spans = || -> std::collections::BTreeSet<String> {
        trace::take().into_iter().filter(|s| s.layer == Layer::Net).map(|s| s.name).collect()
    };
    let _ = trace::take(); // drop the preload's spans and any leftovers

    let merge = |mut a: F64Array, b: F64Array| {
        sparker::dense::merge(&mut a, b);
        a
    };
    data.tree_aggregate(F64Array(vec![0.0; 64]), add, merge, TreeAggOpts::default()).unwrap();
    let tree = net_spans();
    assert!(tree.contains("bm.send") && tree.contains("bm.recv"), "tree hops: {tree:?}");
    assert!(!tree.iter().any(|n| n.starts_with("mpi.")), "tree hops: {tree:?}");

    data.split_aggregate(
        F64Array(vec![0.0; 64]),
        add,
        sparker::dense::merge,
        sparker::dense::split,
        sparker::dense::merge_segments,
        sparker::dense::concat,
        SplitAggOpts::default(),
    )
    .unwrap();
    let split = net_spans();
    assert!(split.contains("sc.send") && split.contains("sc.recv"), "split hops: {split:?}");
    assert!(!split.iter().any(|n| n.starts_with("mpi.")), "split hops: {split:?}");

    trace::disable();
}
