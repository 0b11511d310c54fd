//! Logistic regression on a synthetic avazu-like dataset, trained twice:
//! once with vanilla tree aggregation and once with Sparker's split
//! aggregation.
//!
//! ```bash
//! cargo run --release --example logistic_regression
//! ```
//!
//! The models come out numerically identical (split aggregation changes the
//! execution plan, not the math); per-iteration aggregation metrics show
//! where the time goes.

use sparker::data::profiles::avazu;
use sparker::ml::point::LabeledPoint;
use sparker::prelude::*;

fn main() {
    // avazu shrunk to laptop scale: ~4500 samples x 2000 features.
    let profile = avazu().scaled(2e-4).feature_scaled(5e-4);
    let dim = profile.features();
    let samples = profile.samples();
    println!(
        "dataset: {} ({} samples x {} features, {} nnz/sample)",
        profile.name, samples, dim, profile.nnz_per_sample
    );

    let cluster = LocalCluster::new(ClusterSpec { nodes: 2, ..ClusterSpec::local(2, 2) });
    let parts = 2 * cluster.num_executors();
    let gen = profile.classification_gen();
    let g = gen.clone();
    let data = cluster
        .generate(parts, move |p| {
            g.partition(p, parts, samples)
                .into_iter()
                .map(LabeledPoint::from)
                .collect()
        })
        .cache();
    data.count().expect("preload");

    let lr = LogisticRegression { iterations: 12, ..Default::default() };
    for mode in [AggregationMode::Tree, AggregationMode::split()] {
        let start = std::time::Instant::now();
        let (model, records) = lr.with_mode(mode).train(&data, dim).expect("train");
        let wall = start.elapsed();
        let agg_reduce: f64 = records.iter().map(|r| r.metrics.reduce.as_secs_f64()).sum();
        let agg_compute: f64 = records.iter().map(|r| r.metrics.compute.as_secs_f64()).sum();

        // Hold-out accuracy on fresh samples from the same generator.
        let test: Vec<LabeledPoint> = (samples..samples + 500)
            .map(|i| LabeledPoint::from(gen.sample(i)))
            .collect();
        println!(
            "\nmode {:<9} wall {:>6.2}s  agg-compute {:>5.2}s  agg-reduce {:>5.2}s  \
             final loss {:.4}  test accuracy {:.3}",
            mode.name(),
            wall.as_secs_f64(),
            agg_compute,
            agg_reduce,
            records.last().unwrap().loss,
            model.accuracy(&test)
        );
    }
    println!("\n(same model either way — split aggregation only changes how the gradient");
    println!(" gets reduced, which is the paper's backward-compatibility claim)");
}
