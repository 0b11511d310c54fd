//! `compare.sh A.json B.json`: applies the bounds in `BENCHMARK.json` to two
//! result files of a full run and prints one row per `(metric, workload)`.

use sparker_obs::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method). Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile range as a share of the median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

/// How `new` stands against `base` for a metric where `lower_is_better`,
/// given the regression `bound` and the wider of the two sides' spreads.
pub fn judge(base: f64, new: f64, lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    if base == 0.0 {
        return if new == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if lower_is_better {
        new / base - 1.0
    } else {
        1.0 - new / base
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(median, all values)` of an end-to-end metric in a result file.
fn metric(results: &Json, workload: &str, name: &str) -> Option<(f64, Vec<f64>)> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)?;
    let values = m
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some((m.get("value")?.as_f64()?, values))
}

/// Prints the table; `Ok(true)` when some pair is worse.
pub fn run(benchmark_json: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec = load(benchmark_json)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("{benchmark_json}: no `{key}`"))
    };
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base (A)", "new (B)", "B/A", "bound", "spread"
    );
    let mut any_worse = false;
    for w in list("workloads")? {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("");
        for m in list("end_to_end")? {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some((base, base_all)), Some((new, new_all))) =
                (metric(&a, workload, name), metric(&b, workload, name))
            else {
                println!("{workload:<16} {name:<20} missing from one of the files");
                continue;
            };
            let wider = spread(&base_all).max(spread(&new_all));
            let verdict = judge(base, new, lower, bound, wider);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<16} {name:<20} {base:>14.4} {new:>14.4} {:>8.4} {bound:>7.3} {wider:>7.3}  {}",
                if base != 0.0 { new / base } else { f64::NAN },
                verdict.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[7.0]), None);
        assert_eq!(spread(&[7.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        assert_eq!(judge(100.0, 109.0, true, 0.10, 0.0), Verdict::Within);
        assert_eq!(judge(100.0, 111.0, true, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(100.0, 80.0, true, 0.10, 0.0), Verdict::Better);
        assert_eq!(judge(100.0, 80.0, false, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, false, 0.10, 0.0), Verdict::Better);
        assert_eq!(judge(100.0, 150.0, true, 0.10, 0.2), Verdict::Unresolved);
        assert_eq!(judge(0.0, 0.0, true, 0.0, 0.0), Verdict::Within);
    }
}
