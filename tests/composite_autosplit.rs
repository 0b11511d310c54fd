//! Integration: derived split aggregation (the paper's §6 future-work
//! direction) — a Figure-7-shaped `Agg { sum1, sum2 }` aggregator runs
//! through the full split-aggregation pipeline with **no hand-written
//! splitOp/concatOp**; both callbacks come from [`CompositeLayout`].

use sparker::collectives::composite::{CompositeAgg, CompositeLayout};
use sparker::collectives::segment::SumSegment;
use sparker::prelude::*;

/// Figure 7's example: two arrays summed element-wise per sample, plus a
/// loss scalar and a count.
fn run(mode: SplitAggOpts) -> CompositeAgg {
    let cluster = LocalCluster::local(3, 2);
    let dim1 = 50;
    let dim2 = 30;
    let layout = CompositeLayout::new(vec![dim1, dim2], 2);
    let data = cluster
        .generate(6, |p| vec![(p + 1) as u64; 4])
        .cache();
    data.count().unwrap();

    let zero = CompositeAgg::zeros(&[dim1, dim2], 2);
    let split_layout = layout.clone();
    let concat_layout = layout.clone();
    let (seg, _) = data
        .split_aggregate(
            zero,
            move |mut acc: CompositeAgg, x: &u64| {
                let v = *x as f64;
                for a in acc.field_mut(0) {
                    *a += v;
                }
                for a in acc.field_mut(1) {
                    *a += 2.0 * v;
                }
                *acc.scalar_mut(0) += v * v; // "loss"
                *acc.scalar_mut(1) += 1.0; // count
                acc
            },
            |a: &mut CompositeAgg, b: CompositeAgg| a.merge(b),
            move |u: &CompositeAgg, i, n| split_layout.split(u, i, n),
            |a: &mut SumSegment, b: SumSegment| {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x += y;
                }
            },
            |segs: Vec<SumSegment>| SumSegment(segs.into_iter().flat_map(|s| s.0).collect()),
            mode,
        )
        .unwrap();
    // The concatenated flat vector reassembles into the composite.
    concat_layout
        .concat(vec![seg])
        .expect("flat result matches layout")
}

#[test]
fn composite_aggregator_splits_without_user_split_code() {
    let agg = run(SplitAggOpts::default());
    // 6 partitions x 4 items of value p+1: sum of values = 4 * (1+..+6) = 84.
    let total = 84.0;
    assert!(agg.field(0).iter().all(|&v| v == total));
    assert!(agg.field(1).iter().all(|&v| v == 2.0 * total));
    // loss = sum of v^2 = 4 * (1+4+9+16+25+36) = 364; count = 24.
    assert_eq!(agg.scalar(0), 364.0);
    assert_eq!(agg.scalar(1), 24.0);
}

#[test]
fn composite_results_independent_of_parallelism_and_algorithm() {
    let baseline = run(SplitAggOpts::default());
    for parallelism in [1usize, 3, 8] {
        let got = run(SplitAggOpts { parallelism: Some(parallelism), ..Default::default() });
        assert_eq!(got, baseline, "P={parallelism}");
    }
    let halving = run(SplitAggOpts {
        selector: SelectorOpts::Forced(Algo::Halving),
        ..Default::default()
    });
    assert_eq!(halving, baseline);
}
