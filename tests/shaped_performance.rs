//! Integration: the paper's performance ordering holds on the *real*
//! threaded engine under shaped networking — measured wall clock, not
//! simulation. Margins are deliberately loose (CI hosts are noisy); the
//! harness binaries measure the precise factors.

use sparker::prelude::*;
use sparker_bench::{scaled_elems, shaped_bic, ArraySum};

/// Reduce time of one array-sum on a fresh `nodes`-node shaped cluster.
fn measure(nodes: usize, elems: usize, strategy: &str) -> f64 {
    let sum = ArraySum::new(shaped_bic(nodes, 1), 2, elems);
    let metrics = match strategy {
        "tree" => sum.tree(TreeAggOpts::default()),
        _ => sum.split(SplitAggOpts::default()),
    };
    metrics.reduce.as_secs_f64()
}

#[test]
fn split_reduces_faster_than_tree_on_medium_aggregators() {
    // 8MB paper-equivalent on 2 nodes.
    let elems = scaled_elems(8.0 * 1024.0 * 1024.0);
    let tree = measure(2, elems, "tree");
    let split = measure(2, elems, "split");
    assert!(
        tree > split * 1.2,
        "split must beat tree by a clear margin: tree {tree:.3}s vs split {split:.3}s"
    );
}

#[test]
fn split_reduce_time_grows_slowly_with_nodes() {
    let elems = scaled_elems(8.0 * 1024.0 * 1024.0);
    let one = measure(1, elems, "split");
    let four = measure(4, elems, "split");
    // Paper: 8-node time is 1.12x of 1-node at 256MB. Allow generous noise.
    assert!(
        four < one * 4.0,
        "split reduce should be near-flat in node count: {one:.3}s -> {four:.3}s"
    );
}
