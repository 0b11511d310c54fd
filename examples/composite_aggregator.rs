//! The paper's Figure 7 aggregator — `Agg { sum1, sum2 }` — running through
//! split aggregation with **derived** split/concat callbacks (the paper's
//! §6 future-work idea, implemented as `CompositeLayout`).
//!
//! ```bash
//! cargo run --release --example composite_aggregator
//! ```

use sparker::collectives::composite::{CompositeAgg, CompositeLayout};
use sparker::collectives::segment::SumSegment;
use sparker::prelude::*;

fn main() {
    let cluster = LocalCluster::local(4, 2);
    let dim = 1000;
    // Figure 7's Agg: two arrays plus (here) a loss scalar and a count.
    let layout = CompositeLayout::new(vec![dim, dim], 2);
    println!(
        "aggregator: 2 x {dim} f64 fields + 2 scalars = {} logical elements",
        layout.total_len()
    );
    println!("splitOp/concatOp: derived from the layout — no hand-written slicing\n");

    let data = cluster
        .generate(8, |p| vec![(p + 1) as f64; 64])
        .cache();
    data.count().expect("preload");

    let split_layout = layout.clone();
    let (flat, metrics) = data
        .split_aggregate(
            CompositeAgg::zeros(&[dim, dim], 2),
            // seqOp: Fig 7's add — sum1 += x, sum2 += 2x, plus loss/count.
            move |mut agg: CompositeAgg, x: &f64| {
                for a in agg.field_mut(0) {
                    *a += x;
                }
                for a in agg.field_mut(1) {
                    *a += 2.0 * x;
                }
                *agg.scalar_mut(0) += x * x;
                *agg.scalar_mut(1) += 1.0;
                agg
            },
            |a: &mut CompositeAgg, b: CompositeAgg| a.merge(b),
            move |u: &CompositeAgg, i, n| split_layout.split(u, i, n),
            |a: &mut SumSegment, b: SumSegment| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            sparker::dense::concat,
            SplitAggOpts::default(),
        )
        .expect("split aggregate");

    let agg = layout.concat(vec![flat]).expect("reassemble");
    println!("sum1[0]   = {}", agg.field(0)[0]);
    println!("sum2[0]   = {}", agg.field(1)[0]);
    println!("loss      = {}", agg.scalar(0));
    println!("count     = {}", agg.scalar(1));
    println!(
        "\nring moved {} KiB in {} messages; driver received {} KiB",
        metrics.ser_bytes / 1024,
        metrics.messages,
        metrics.bytes_to_driver / 1024
    );

    // Cross-check against a driver-side sequential fold.
    let expected_sum: f64 = (0..8).map(|p| (p + 1) as f64 * 64.0).sum();
    assert_eq!(agg.field(0)[0], expected_sum);
    assert_eq!(agg.field(1)[0], 2.0 * expected_sum);
    assert_eq!(agg.scalar(1), 8.0 * 64.0);
    println!("\nmatches the sequential fold — derived splitting is semantics-preserving.");
}
