//! The paper-parity evaluation sweep (PR 10's `BENCH_10.json`).
//!
//! Drives [`sparker_tuner::eval::run_paper_eval`] — one deterministic
//! DES-driven run that regenerates every headline experiment of the paper
//! at paper scale (120 executors / 960 cores) plus the elastic extensions,
//! and asserts each claim as a named bound. See DESIGN.md §5k for the
//! scenario matrix and bound semantics.
//!
//! Modes:
//!
//! * **full** (default) — paper scale. Writes `results/paper_eval.json`,
//!   `results/paper_parity.md` (the EXPERIMENTS.md ledger) and the
//!   repo-root `BENCH_10.json` the trend checker diffs across commits.
//! * **`--smoke`** — 24 executors / 96 cores, CI step 9 of
//!   `tools/check_hermetic.sh` and a timed `tools/ci.sh` tier-3 step.
//!   Writes `results/paper_eval.json` only: the committed `BENCH_10.json`
//!   stays a full-shape artifact so `tools/bench_trend.sh` never compares
//!   a smoke run against the full baseline.
//!
//! `--seed N` overrides the scenario seed (default 42). Two runs with the
//! same mode and seed produce byte-identical JSON — asserted by
//! `tests/paper_eval.rs`.
//!
//! Exit status: 0 only when every named bound holds; a violated bound
//! prints as a typed `BoundViolation` and exits 1 (no panic, no hang).

use std::time::Instant;

use sparker_bench::{print_header, Table};
use sparker_obs::metrics;
use sparker_tuner::eval::{run_paper_eval, EvalConfig, EvalScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(42);
    let cfg = EvalConfig {
        scale: if smoke { EvalScale::Smoke } else { EvalScale::Full },
        seed,
        model_override: None,
    };

    print_header(
        "paper_eval",
        "paper-parity evaluation: headline figures + elastic DES scenarios",
        "Every paper claim runs as a named self-asserting bound; --smoke is CI\n\
         step 9 of tools/check_hermetic.sh. JSON lands in results/paper_eval.json\n\
         (full mode also writes BENCH_10.json and results/paper_parity.md).",
    );

    let started = Instant::now();
    let report = run_paper_eval(&cfg);
    let wall = started.elapsed();

    println!(
        "\nscale {} · seed {} · parity cluster {} executors / {} cores / {} nodes\n",
        report.scale.name(),
        report.seed,
        report.executors,
        report.cores,
        report.nodes
    );
    let mut t = Table::new(vec!["bound", "claim", "measured", "bound value", "status"]);
    for b in &report.bounds {
        t.row(vec![
            b.name.to_string(),
            b.claim.chars().take(58).collect(),
            format!("{:.3}", b.measured),
            format!("{} {:.3}", b.op.symbol(), b.limit),
            if b.holds() { "pass".to_string() } else { "FAIL".to_string() },
        ]);
    }
    t.print();

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/paper_eval.json", report.to_json()).expect("write paper_eval.json");
    let mut wrote = "results/paper_eval.json".to_string();
    if !smoke {
        std::fs::write("BENCH_10.json", report.bench_json()).expect("write BENCH_10.json");
        let ledger = format!(
            "<!-- generated by `cargo run --release --bin paper_eval`; do not edit by hand -->\n\
             {}",
            report.ledger_markdown()
        );
        std::fs::write("results/paper_parity.md", ledger).expect("write paper_parity.md");
        wrote.push_str(", BENCH_10.json, results/paper_parity.md");
    }

    let eval_counters: Vec<_> = metrics::snapshot()
        .into_iter()
        .filter(|m| m.name.starts_with("eval."))
        .collect();
    println!(
        "\n{} figure series · {} eval.* metrics · {:.1}s wall",
        report.figures.len(),
        eval_counters.len(),
        wall.as_secs_f64()
    );
    println!("wrote {wrote}");

    match report.check() {
        Ok(()) => println!("all {} paper-parity bounds held", report.bounds.len()),
        Err(v) => {
            eprintln!("paper parity violated: {v}");
            std::process::exit(1);
        }
    }
}
