//! Cross-crate integration: every aggregation strategy computes the same
//! answer as a sequential fold, across cluster shapes, partition counts,
//! algorithms and parallelism degrees — the backward-compatibility claim
//! of the paper's split-aggregation interface.

use sparker::prelude::*;

/// Sums vectors through the chosen strategy, returning the reduced vector.
fn run(
    cluster: &LocalCluster,
    partitions: usize,
    dim: usize,
    strategy: &str,
    opts: SplitAggOpts,
) -> Vec<f64> {
    let data = cluster
        .generate(partitions, move |p| vec![vec![(p + 1) as f64; dim]; 2])
        .cache();
    data.count().unwrap();
    let seq = move |mut acc: F64Array, v: &Vec<f64>| {
        for (a, x) in acc.0.iter_mut().zip(v) {
            *a += *x;
        }
        acc
    };
    match strategy {
        "plain" => {
            let r = data
                .aggregate(
                    F64Array(vec![0.0; dim]),
                    seq,
                    |mut a, b| {
                        sparker::dense::merge(&mut a, b);
                        a
                    },
                )
                .unwrap();
            r.0
        }
        "tree" | "tree+imm" => {
            let (r, _) = data
                .tree_aggregate(
                    F64Array(vec![0.0; dim]),
                    seq,
                    |mut a, b| {
                        sparker::dense::merge(&mut a, b);
                        a
                    },
                    TreeAggOpts { depth: 2, imm: strategy == "tree+imm" },
                )
                .unwrap();
            r.0
        }
        _ => {
            let (r, _) = data
                .split_aggregate(
                    F64Array(vec![0.0; dim]),
                    seq,
                    sparker::dense::merge,
                    sparker::dense::split,
                    sparker::dense::merge_segments,
                    sparker::dense::concat,
                    opts,
                )
                .unwrap();
            r.0
        }
    }
}

fn expected(partitions: usize, dim: usize) -> Vec<f64> {
    let total: f64 = (1..=partitions).map(|p| 2.0 * p as f64).sum();
    vec![total; dim]
}

#[test]
fn all_strategies_agree_across_shapes() {
    for (execs, cores) in [(1usize, 1usize), (3, 2), (5, 1)] {
        let cluster = LocalCluster::local(execs, cores);
        for partitions in [1usize, 4, 13] {
            for dim in [1usize, 37, 512] {
                let want = expected(partitions, dim);
                for strategy in ["plain", "tree", "tree+imm", "split"] {
                    let got = run(&cluster, partitions, dim, strategy, SplitAggOpts::default());
                    assert_eq!(
                        got, want,
                        "{strategy} on {execs}x{cores}, {partitions} parts, dim {dim}"
                    );
                }
            }
        }
    }
}

#[test]
fn split_variants_agree() {
    let cluster = LocalCluster::local(4, 2);
    let want = expected(8, 100);
    // Integer-valued sums: every merge association is exact, so the
    // chunk-pipelined ring must match the flat ring bit for bit.
    for algo in [Algo::FlatRing, Algo::ChunkedRing(4), Algo::Halving] {
        for parallelism in [1usize, 2, 5, 8] {
            let got = run(
                &cluster,
                8,
                100,
                "split",
                SplitAggOpts {
                    parallelism: Some(parallelism),
                    selector: SelectorOpts::Forced(algo),
                    ..Default::default()
                },
            );
            assert_eq!(got, want, "{algo:?} P={parallelism}");
        }
    }
}

#[test]
fn ring_order_does_not_change_results() {
    for order in [RingOrder::TopologyAware, RingOrder::ById] {
        let cluster = LocalCluster::new(
            ClusterSpec::local(4, 2).with_ring_order(order),
        );
        let got = run(&cluster, 6, 64, "split", SplitAggOpts::default());
        assert_eq!(got, expected(6, 64), "{order:?}");
    }
}

#[test]
fn shaped_cluster_still_exact() {
    // Shaping delays messages; it must never change values.
    let cluster = LocalCluster::new(ClusterSpec::bic(2, 4.0).with_shape(2, 1));
    let got = run(&cluster, 4, 128, "split", SplitAggOpts::default());
    assert_eq!(got, expected(4, 128));
    let got = run(&cluster, 4, 128, "tree", SplitAggOpts::default());
    assert_eq!(got, expected(4, 128));
}

#[test]
fn split_sends_driver_exactly_one_aggregator() {
    let cluster = LocalCluster::local(4, 2);
    let dim = 4096;
    let data = cluster
        .generate(8, move |p| vec![vec![p as f64; dim]; 1])
        .cache();
    data.count().unwrap();
    let seq = move |mut acc: F64Array, v: &Vec<f64>| {
        for (a, x) in acc.0.iter_mut().zip(v) {
            *a += *x;
        }
        acc
    };
    let (_, tree) = data
        .tree_aggregate(
            F64Array(vec![0.0; dim]),
            seq,
            |mut a, b| {
                sparker::dense::merge(&mut a, b);
                a
            },
            TreeAggOpts::default(),
        )
        .unwrap();
    let (_, split) = data
        .split_aggregate(
            F64Array(vec![0.0; dim]),
            seq,
            sparker::dense::merge,
            sparker::dense::split,
            sparker::dense::merge_segments,
            sparker::dense::concat,
            SplitAggOpts::default(),
        )
        .unwrap();
    let payload = (dim * 8) as u64;
    assert!(split.bytes_to_driver < payload + payload / 4, "split driver bytes ~1 aggregator");
    // 8 partitions, scale 3: one shuffle round leaves 2 aggregators, both
    // shipped whole to the driver.
    assert!(
        tree.bytes_to_driver >= 2 * payload,
        "tree ships every remaining aggregator to the driver: {}",
        tree.bytes_to_driver
    );
    assert!(tree.bytes_to_driver > split.bytes_to_driver);
}
