//! Process-wide metrics registry: named counters, gauges, and log2-bucket
//! histograms.
//!
//! Handles are `Arc`s to lock-free atomics — the registry lock is taken
//! only at registration (get-or-create) time, so instrumentation sites
//! should cache their handle (e.g. in a `OnceLock`) and update it with a
//! single atomic op per observation:
//!
//! ```
//! use std::sync::OnceLock;
//! use sparker_obs::metrics::{self, Counter};
//! use std::sync::Arc;
//!
//! static SENDS: OnceLock<Arc<Counter>> = OnceLock::new();
//! SENDS.get_or_init(|| metrics::counter("net.sends")).add(1);
//! assert!(metrics::snapshot().iter().any(|m| m.name == "net.sends"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Power-of-two bucketed histogram over `u64` observations.
///
/// Bucket `i` counts values whose bit length is `i`, i.e. values in
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros. 65 buckets cover the full
/// `u64` range with no saturation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize; // bit length; 0 for v == 0
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(lower_bound_inclusive, count)` pairs.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        (0..self.buckets.len())
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            })
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Get-or-create a counter. Panics if `name` is registered as another kind.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Get-or-create a gauge. Panics if `name` is registered as another kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry();
    match reg.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Get-or-create a histogram. Panics if `name` is registered as another kind.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
    {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A point-in-time view of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    /// `(count, sum, non-empty (bucket_lower_bound, count) pairs)`.
    Histogram(u64, u64, Vec<(u64, u64)>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub value: MetricValue,
}

/// Snapshot every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    registry()
        .iter()
        .map(|(name, m)| MetricSnapshot {
            name: name.clone(),
            value: match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(h.count(), h.sum(), h.buckets()),
            },
        })
        .collect()
}

/// Zero every registered metric (handles stay valid — sites cache them).
pub fn reset() {
    for m in registry().values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("test.counter_roundtrip");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        assert!(Arc::ptr_eq(&c, &counter("test.counter_roundtrip")));

        let g = gauge("test.gauge_roundtrip");
        g.set(-5);
        g.add(2);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = histogram("test.hist_log2");
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 11);
        let buckets: BTreeMap<u64, u64> = h.buckets().into_iter().collect();
        assert_eq!(buckets.get(&0), Some(&1)); // v = 0
        assert_eq!(buckets.get(&1), Some(&2)); // v = 1, 1
        assert_eq!(buckets.get(&2), Some(&2)); // v = 2, 3
        assert_eq!(buckets.get(&4), Some(&2)); // v = 4, 7
        assert_eq!(buckets.get(&8), Some(&1)); // v = 8
        assert_eq!(buckets.get(&512), Some(&1)); // v = 1023
        assert_eq!(buckets.get(&1024), Some(&1)); // v = 1024
        assert_eq!(buckets.get(&(1u64 << 63)), Some(&1)); // v = u64::MAX
    }

    #[test]
    fn snapshot_and_reset() {
        let c = counter("test.snap.c");
        c.add(9);
        let snap = snapshot();
        let me = snap.iter().find(|m| m.name == "test.snap.c").unwrap();
        assert_eq!(me.value, MetricValue::Counter(9));
        reset();
        assert_eq!(c.get(), 0, "cached handle observes reset");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        counter("test.kind_mismatch");
        gauge("test.kind_mismatch");
    }
}
