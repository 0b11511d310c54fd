//! Order statistics for op samples.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the median (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50.0)
}

/// The tail a sample count can support: the highest of p99/p95/p90 that has
/// at least ten samples beyond it, as `(pct, value)`. With fewer than 100
/// samples no tail qualifies and the maximum is reported as p100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    for pct in [99.0, 95.0, 90.0] {
        let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
        if sorted.len() - rank.min(sorted.len()) >= 10 {
            return (pct, percentile(sorted, pct));
        }
    }
    (100.0, *sorted.last().expect("tail of no samples"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&mut [4.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond it.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 999 samples: p99 leaves 9, p95 leaves 49.
        assert_eq!(tail(&ramp(999)).0, 95.0);
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        // 199: p95 leaves 9 -> p90 leaves 19.
        assert_eq!(tail(&ramp(199)).0, 90.0);
        // 100: p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // Below that nothing qualifies: report the maximum as p100.
        assert_eq!(tail(&ramp(99)), (100.0, 99.0));
    }
}
