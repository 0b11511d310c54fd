//! Quickstart: tree aggregation vs Sparker's split aggregation on a local
//! in-process cluster.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 2-node × 2-executor cluster of threads, sums an RDD of 1 MB
//! `f64` arrays three ways — `treeAggregate`, `treeAggregate` + in-memory
//! merge, and `splitAggregate` — and prints the compute/reduce
//! decomposition and serialized bytes of each, the breakdown the paper's
//! Figure 16 plots. Times are this host's wall clock; the paper-scale
//! curves are `paper_eval`'s `fig16_agg_speedup/*`.

use sparker::prelude::*;

fn main() {
    // 2 nodes x 2 executors x 2 cores.
    let cluster = LocalCluster::new(ClusterSpec { nodes: 2, ..ClusterSpec::local(2, 2) });
    println!(
        "cluster: {} executors x {} cores",
        cluster.num_executors(),
        cluster.spec().cores_per_executor
    );

    // An RDD of dense vectors, generated and cached on the executors
    // (MEMORY_ONLY + count preload, like the paper's micro-benchmark).
    let elems = 128 * 1024; // 1 MiB of f64 per partition
    let partitions = 2 * cluster.num_executors() * cluster.spec().cores_per_executor;
    let data = cluster
        .generate(partitions, move |p| vec![vec![p as f64; elems]; 1])
        .cache();
    data.count().expect("preload");

    let seq = move |mut acc: F64Array, v: &Vec<f64>| {
        for (a, x) in acc.0.iter_mut().zip(v) {
            *a += *x;
        }
        acc
    };

    // 1. Spark's treeAggregate (the baseline).
    let (tree_result, tree) = data
        .tree_aggregate(
            F64Array(vec![0.0; elems]),
            seq,
            |mut a, b| {
                sparker::dense::merge(&mut a, b);
                a
            },
            TreeAggOpts::default(),
        )
        .expect("tree aggregate");

    // 2. treeAggregate with In-Memory Merge.
    let (_, imm) = data
        .tree_aggregate(
            F64Array(vec![0.0; elems]),
            seq,
            |mut a, b| {
                sparker::dense::merge(&mut a, b);
                a
            },
            TreeAggOpts { depth: 2, imm: true },
        )
        .expect("tree+imm aggregate");

    // 3. Sparker's splitAggregate: the same five callbacks as the paper's
    //    Figure 6, with ring reduce-scatter underneath.
    let (split_result, split) = data
        .split_aggregate(
            F64Array(vec![0.0; elems]),
            seq,
            sparker::dense::merge,
            sparker::dense::split,
            sparker::dense::merge_segments,
            sparker::dense::concat,
            SplitAggOpts::default(),
        )
        .expect("split aggregate");

    // Same answer, different cost.
    let expected: f64 = (0..partitions).map(|p| p as f64).sum();
    assert_eq!(tree_result.0[0], expected);
    assert_eq!(sparker::dense::to_vec(split_result)[0], expected);

    println!("\n{:<10} {:>10} {:>10} {:>12} {:>10}", "strategy", "compute", "reduce", "ser bytes", "to driver");
    for m in [&tree, &imm, &split] {
        println!(
            "{:<10} {:>9.0}ms {:>9.0}ms {:>11}KB {:>9}KB",
            m.strategy.name(),
            m.compute.as_secs_f64() * 1e3,
            m.reduce.as_secs_f64() * 1e3,
            m.ser_bytes / 1024,
            m.bytes_to_driver / 1024,
        );
    }
    println!(
        "\nsplit aggregation reduced {:.1}x faster than tree aggregation on this host",
        tree.reduce.as_secs_f64() / split.reduce.as_secs_f64()
    );
}
