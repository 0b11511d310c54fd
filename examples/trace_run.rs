//! Observability quickstart: trace one training run end to end.
//!
//! ```bash
//! cargo run --release --example trace_run
//! ```
//!
//! Enables fine-grained tracing, trains a small logistic-regression model
//! with split aggregation, and exports everything the run emitted — driver
//! op phases, stages, task attempts, collective steps, transport events,
//! ML iterations — as Chrome trace-event JSON under
//! `results/trace_run.json`. Open <https://ui.perfetto.dev> and drop the
//! file in to browse the run.
//!
//! The example then re-parses its own export with the in-repo JSON parser
//! and verifies every layer of the taxonomy shows up, so
//! `tools/check_hermetic.sh` can use it as the trace-export smoke test.
//! Exits non-zero if anything is missing.

use sparker::prelude::*;
use sparker_obs::{export, json, trace, Layer};

fn main() {
    trace::enable();

    // A small in-process cluster; transports, collectives and the scheduler
    // run the same code paths as the shaped benchmarks.
    let cluster = LocalCluster::new(ClusterSpec::local(4, 2));
    let profile = sparker_data::profiles::avazu().feature_scaled(2e-4); // 200 features
    let dim = profile.features();
    let samples = 512u64;
    let gen = profile.classification_gen();
    let parts = 2 * cluster.num_executors();
    let data = cluster
        .generate(parts, move |p| {
            gen.partition(p, parts, samples).into_iter().map(LabeledPoint::from).collect()
        })
        .cache();
    data.count().expect("preload");

    // Split aggregation with the auto-tuned collective selector: every
    // iteration asks the calibrated cost model which reduction algorithm to
    // run, and feeds the measured wall-clock back as selector telemetry.
    let opts = SplitAggOpts {
        selector: SelectorOpts::Auto(sparker::tuner::CostModel::default_model()),
        hint_bytes: dim as u64 * 8,
        ..Default::default()
    };
    let (_, records) = LogisticRegression { iterations: 2, ..Default::default() }
        .with_mode(AggregationMode::Split(opts))
        .train(&data, dim)
        .expect("training");
    println!("trained {} iterations (split aggregation, auto-tuned)", records.len());

    // Scoped spans live under the cluster's History scope; gated spans are
    // unscoped. Grab both before the cluster drops.
    let mut spans = trace::snapshot_scope(cluster.history().scope());
    spans.extend(trace::take().into_iter().filter(|s| s.scope == 0));
    trace::disable();

    let json_text = export::chrome_trace_json(&spans);
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/trace_run.json", &json_text).expect("write trace");

    // Validate the export with the in-repo parser: well-formed JSON, and at
    // least one event from every layer of the span taxonomy.
    let parsed = match json::parse(&json_text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trace_run: exported JSON does not parse: {e:?}");
            std::process::exit(1);
        }
    };
    let events = parsed.as_array().unwrap_or_else(|| {
        eprintln!("trace_run: export is not a trace-event array");
        std::process::exit(1);
    });
    for layer in Layer::ALL {
        let n = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some(layer.as_str()))
            .count();
        println!("  layer {:<6} {:>6} events", layer.as_str(), n);
        if n == 0 {
            eprintln!("trace_run: no spans from layer '{}'", layer.as_str());
            std::process::exit(1);
        }
    }
    // The run above pushed real frames through the global pool, so the
    // per-class occupancy gauges must exist (back at zero now that every
    // frame is recycled) — the dashboard contract for `pool.class_*.in_use`.
    let pool_gauges: Vec<_> = sparker_obs::metrics::snapshot()
        .into_iter()
        .filter(|m| {
            m.name.starts_with("pool.class_")
                && m.name.ends_with(".in_use")
                && matches!(m.value, sparker_obs::metrics::MetricValue::Gauge(_))
        })
        .collect();
    if pool_gauges.is_empty() {
        eprintln!("trace_run: no pool.class_*.in_use occupancy gauges registered");
        std::process::exit(1);
    }
    println!("  pool occupancy gauges: {}", pool_gauges.len());

    // The auto-tuned run must leave the selector's telemetry behind: one
    // `tuner.selected.{algo}` counter per decision, and the predicted/actual
    // feedback gauge published by `Selector::observe` — the dashboard
    // contract for spotting stale calibrations.
    let metrics = sparker_obs::metrics::snapshot();
    let selected: Vec<_> = metrics
        .iter()
        .filter(|m| m.name.starts_with("tuner.selected."))
        .collect();
    if selected.is_empty() {
        eprintln!("trace_run: auto selector ran but exported no tuner.selected.* counters");
        std::process::exit(1);
    }
    for m in &selected {
        println!("  {} = {:?}", m.name, m.value);
    }
    if !metrics.iter().any(|m| {
        m.name == "tuner.predict_vs_actual_permille"
            && matches!(m.value, sparker_obs::metrics::MetricValue::Gauge(_))
    }) {
        eprintln!("trace_run: tuner.predict_vs_actual_permille feedback gauge missing");
        std::process::exit(1);
    }
    println!("  tuner feedback gauge present");

    println!(
        "trace_run OK: {} spans across all {} layers -> results/trace_run.json",
        events.len(),
        Layer::ALL.len()
    );
}
