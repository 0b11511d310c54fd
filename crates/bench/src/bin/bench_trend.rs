//! `BENCH_10.json` guard — the engine behind `tools/bench_trend.sh` (CI
//! tier 1). `BENCH_10.json` is the committed full-shape `paper_eval` run,
//! the one DES headline the repo defends across PRs:
//!
//! 1. the file must parse with the in-tree JSON parser
//!    ([`sparker_obs::json`] — the same parser CI uses, so a file that only
//!    external tools can read fails here) and carry the `paper_eval`
//!    family's required top-level keys;
//! 2. it must be a full-shape run (`smoke: false`) with zero failed bounds;
//! 3. with `--baseline <file>`, its headline metrics must not regress
//!    beyond the stated margin against the previous committed run.
//!
//! Exit status: 0 when the file validates (and the trend check, if
//! requested, holds); 1 with a diagnostic otherwise.

use sparker_obs::json::{parse, Json};

/// Headline metrics of `BENCH_10.json` that must not regress, with the
/// stated tolerated regression margin (new >= old × MARGIN). DES outputs
/// are deterministic, so the margin only absorbs deliberate retuning of
/// the simulation — not noise.
const TREND_MARGIN: f64 = 0.85;
const TREND_KEYS: [&str; 3] = ["agg_speedup_max", "geo_mean_e2e", "stacked_speedup"];

/// Top-level keys a `paper_eval` artifact must carry.
const REQUIRED_KEYS: [&str; 4] = ["smoke", "seed", "headline", "bounds"];

fn fail(msg: &str) -> ! {
    eprintln!("bench_trend: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> Json {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: unreadable: {e}")));
    parse(&body).unwrap_or_else(|e| fail(&format!("{path}: in-tree parser rejected it: {e:?}")))
}

fn headline_metric(doc: &Json, key: &str, path: &str) -> f64 {
    doc.get("headline")
        .and_then(|h| h.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(&format!("{path}: missing headline.{key}")))
}

fn main() {
    let mut baseline: Option<String> = None;
    let mut file: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--baseline" {
            baseline = Some(it.next().unwrap_or_else(|| fail("--baseline needs a path")));
        } else if file.replace(a).is_some() {
            fail("one file at a time (usage: bench_trend [--baseline OLD_BENCH_10] BENCH_10.json)");
        }
    }
    let path = &file.unwrap_or_else(|| {
        fail("no file given (usage: bench_trend [--baseline OLD_BENCH_10] BENCH_10.json)")
    });

    let doc = &load(path);
    if doc.get("bench").and_then(|v| v.as_str()) != Some("paper_eval") {
        fail(&format!("{path}: \"bench\" family field is not \"paper_eval\""));
    }
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            fail(&format!("{path}: requires top-level key \"{key}\""));
        }
    }
    let failed = doc
        .get("bounds")
        .and_then(|b| b.get("failed"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(&format!("{path}: missing bounds.failed")));
    if failed != 0.0 {
        fail(&format!("{path}: committed run has {failed} failed bounds"));
    }
    if doc.get("smoke").and_then(|v| v.as_bool()) != Some(false) {
        fail(&format!("{path}: committed BENCH_10 must be a full-shape run (smoke: false)"));
    }
    if let Some(base_path) = &baseline {
        let base = load(base_path);
        for key in TREND_KEYS {
            let old = headline_metric(&base, key, base_path);
            let new = headline_metric(doc, key, path);
            if new < old * TREND_MARGIN {
                fail(&format!(
                    "{path}: headline {key} regressed: {new:.3} < {old:.3} x {TREND_MARGIN}"
                ));
            }
            println!(
                "bench_trend: {key}: {old:.3} -> {new:.3} (floor {:.3})",
                old * TREND_MARGIN
            );
        }
    } else {
        println!("bench_trend: no --baseline; headline trend check skipped");
    }
    println!("bench_trend: {path} validates");
}
