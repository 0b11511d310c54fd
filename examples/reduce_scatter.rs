//! The collectives layer directly: ring reduce-scatter over the parallel
//! directed ring on the in-process mesh, at each channel parallelism and in
//! both ring orders.
//!
//! ```bash
//! cargo run --release --example reduce_scatter
//! ```
//!
//! Times are this host's wall clock for 8 threads sharing its cores, so they
//! show what the mesh and the ring code cost here, not the paper's network.
//! The paper's Figure 14 shape (parallelism and topology awareness on the
//! BIC cluster) is `paper_eval`'s `fig14_parallelism/*` series.

use std::time::Instant;

use sparker::collectives::ring::ring_reduce_scatter;
use sparker::collectives::segment::U64SumSegment;
use sparker::collectives::testing::{run_ring_cluster, RingClusterSpec};
use sparker::prelude::*;

fn measure(order: RingOrder, parallelism: usize, elems: usize) -> f64 {
    // 4 nodes x 2 executors, one rank thread each.
    let spec = RingClusterSpec { order, ..RingClusterSpec::unshaped(4, 2, parallelism) };
    let segments = parallelism * spec.total_executors();
    let start = Instant::now();
    let owned = run_ring_cluster(&spec, |comm| {
        let segs: Vec<U64SumSegment> =
            (0..segments).map(|_| U64SumSegment(vec![1; elems / segments])).collect();
        ring_reduce_scatter(&comm, segs).unwrap()
    });
    let secs = start.elapsed().as_secs_f64();
    // Every rank contributed 1 per element: each reduced element is the rank count.
    for seg in owned.iter().flatten() {
        assert!(seg.segment.0.iter().all(|&x| x == spec.total_executors() as u64));
    }
    secs
}

fn main() {
    let elems = 2 * 1024 * 1024; // 16 MiB of u64 per rank
    println!("ring reduce-scatter of a 16 MiB aggregate over 8 executors / 4 nodes\n");
    println!("{:<14} {:>12} {:>12}", "parallelism", "aware", "id-order");
    for p in [1usize, 2, 4] {
        let aware = measure(RingOrder::TopologyAware, p, elems);
        let unaware = measure(RingOrder::ById, p, elems);
        println!("{:<14} {:>11.1}ms {:>11.1}ms", p, aware * 1e3, unaware * 1e3);
    }
    println!("\n(the paper's P and topology shape at cluster scale: paper_eval fig14_parallelism/*)");
}
