//! Integration coverage for the paper-parity evaluation harness
//! (DESIGN.md §5k): determinism of the emitted artifacts, and proof that
//! the bound checks are live — a deliberately mistuned configuration must
//! degrade into a *typed* violation, not a panic or a hang.

use sparker_sim::eval::{run_paper_eval, BoundOp, EvalConfig, EvalScale};
use sparker_tuner::{CostModel, LinkParams};

/// (a) Two runs with the same seed produce byte-identical
/// `results/paper_eval.json` content (and the same BENCH_10 family body) —
/// the property `bin/paper_eval`'s on-disk artifacts inherit.
#[test]
fn same_seed_runs_are_byte_identical() {
    let a = run_paper_eval(&EvalConfig::smoke(7));
    let b = run_paper_eval(&EvalConfig::smoke(7));
    assert_eq!(a.to_json(), b.to_json(), "results/paper_eval.json must be reproducible");
    assert_eq!(a.bench_json(), b.bench_json(), "BENCH_10.json must be reproducible");
    assert_eq!(a.ledger_markdown(), b.ledger_markdown());
}

/// Every `figure/series` id EXPERIMENTS.md cites (a backticked token whose
/// part before the `/` is a figure this sweep emits) exists in the report,
/// so no quoted number can outlive its generator.
fn assert_cited_series_are_emitted(cfg: EvalConfig) {
    let doc = include_str!("../EXPERIMENTS.md");
    let report = run_paper_eval(&cfg);
    let emitted = |figure: &str, series: &str| {
        report.figures.iter().any(|f| f.figure == figure && f.series == series)
    };
    let mut cited = 0;
    for token in doc.split('`') {
        let Some((figure, series)) = token.split_once('/') else { continue };
        if !report.figures.iter().any(|f| f.figure == figure) {
            continue;
        }
        assert!(emitted(figure, series), "{:?}: `{token}` is cited but not emitted", cfg.scale);
        cited += 1;
    }
    assert!(cited >= 25, "EXPERIMENTS.md cites only {cited} series ids");
}

#[test]
fn every_series_experiments_md_cites_is_emitted_at_smoke_scale() {
    assert_cited_series_are_emitted(EvalConfig::smoke(42));
}

/// The paper-scale sweep takes ~40 s in a debug build (its 120-executor
/// algorithm ladder), so `tools/ci.sh` tier 2 runs it (`--include-ignored`)
/// and the tier-1 workspace run stays at smoke scale.
#[test]
#[ignore = "full-scale sweep; run by tools/ci.sh tier 2"]
fn every_series_experiments_md_cites_is_emitted_at_full_scale() {
    assert_cited_series_are_emitted(EvalConfig::full(42));
}

/// Different seeds change scenario choices (fault victims, links) but not
/// the physics: every bound still holds, and the emitted schema is stable.
#[test]
fn seeds_vary_scenarios_without_breaking_bounds() {
    for seed in [1, 99, 12345] {
        let r = run_paper_eval(&EvalConfig::smoke(seed));
        r.check().unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

/// (b) The speedup/parity bounds actually fire on a mistuned
/// configuration: inflating the cost model's alphas by four orders of
/// magnitude makes the selector prefer round-minimizing algorithms (the
/// whole-aggregator tree) where the DES ground truth says the ring family
/// wins, so `selector_within_margin` must come back as a typed
/// [`sparker_sim::eval::BoundViolation`] — the report still renders, no
/// panic, no hang.
#[test]
fn inflated_alpha_fires_a_typed_bound_violation() {
    let sane = CostModel::default_model();
    let mistuned = CostModel {
        intra: LinkParams { alpha_s: sane.intra.alpha_s + 1.0, ..sane.intra },
        inter: LinkParams { alpha_s: sane.inter.alpha_s + 1.0, ..sane.inter },
        ..sane
    };
    let cfg = EvalConfig {
        scale: EvalScale::Smoke,
        seed: 7,
        model_override: Some(mistuned),
    };
    let report = run_paper_eval(&cfg);
    let violation = report.check().expect_err("mistuned model must violate a bound");
    assert_eq!(violation.name, "selector_within_margin");
    assert_eq!(violation.op, BoundOp::AtMost);
    assert!(
        violation.measured > violation.limit,
        "measured {} should exceed limit {}",
        violation.measured,
        violation.limit
    );
    // The report is complete despite the failure: every bound measured,
    // every figure emitted, JSON still renders.
    assert!(report.failed_count() >= 1);
    assert!(!report.figures.is_empty());
    sparker_obs::json::parse(&report.to_json()).expect("violating report still serializes");
}
