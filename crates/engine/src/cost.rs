//! Modeled serializer cost.
//!
//! Spark pays a heavy CPU cost to serialize task results and shuffle data
//! (the paper cites Ousterhout et al.: "serialization may dominate Spark's
//! overhead", and In-Memory Merge exists to avoid it). Our Rust codec is a
//! near-memcpy, so to preserve the paper's trade-off the engine charges a
//! *modeled* serializer throughput at every encode/decode boundary: the
//! worker thread that serializes an aggregator stays busy for
//! `bytes / ser_bandwidth` seconds, just as a JVM core running Kryo would.
//!
//! The charge is real wall-clock occupancy of a core slot (not bookkeeping),
//! so serialization contends with computation exactly like in Spark.

use std::time::Duration;

use sparker_net::time::wait_for;

/// Serializer throughput model, in bytes/sec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerdeCost {
    /// Modeled serialization throughput (JVM-class default ≈ 700 MB/s).
    pub ser_bandwidth: f64,
    /// Modeled deserialization throughput (≈ 900 MB/s).
    pub deser_bandwidth: f64,
    /// Fixed per-object overhead on either operation (object graph walk,
    /// class resolution). Applied once per encode/decode call.
    pub per_object_overhead: Duration,
}

const MB: f64 = 1024.0 * 1024.0;

impl SerdeCost {
    /// No modeled cost — unit tests and pure-correctness runs.
    pub fn free() -> Self {
        Self {
            ser_bandwidth: f64::INFINITY,
            deser_bandwidth: f64::INFINITY,
            per_object_overhead: Duration::ZERO,
        }
    }

    /// JVM-class serializer model used by the paper-shaped benchmarks.
    pub fn jvm_class() -> Self {
        Self {
            ser_bandwidth: 700.0 * MB,
            deser_bandwidth: 900.0 * MB,
            per_object_overhead: Duration::from_micros(20),
        }
    }

    /// Returns a copy with all charges multiplied by `factor` (matching
    /// [`sparker_net::profile::NetProfile::scaled`]).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0);
        Self {
            ser_bandwidth: self.ser_bandwidth / factor,
            deser_bandwidth: self.deser_bandwidth / factor,
            per_object_overhead: self.per_object_overhead.mul_f64(factor),
        }
    }

    /// Time to serialize `bytes`.
    pub fn ser_time(&self, bytes: usize) -> Duration {
        self.charge_time(bytes, self.ser_bandwidth)
    }

    /// Time to deserialize `bytes`.
    pub fn deser_time(&self, bytes: usize) -> Duration {
        self.charge_time(bytes, self.deser_bandwidth)
    }

    fn charge_time(&self, bytes: usize, bw: f64) -> Duration {
        if bw.is_infinite() {
            // per_object_overhead is only meaningful for a modeled serializer.
            return Duration::ZERO;
        }
        self.per_object_overhead + Duration::from_secs_f64(bytes as f64 / bw)
    }

    /// Occupies the calling thread for the serialization of `bytes`.
    pub fn charge_ser(&self, bytes: usize) {
        wait_for(self.ser_time(bytes));
    }

    /// Occupies the calling thread for the deserialization of `bytes`.
    pub fn charge_deser(&self, bytes: usize) {
        wait_for(self.deser_time(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_charges_nothing() {
        let c = SerdeCost::free();
        assert_eq!(c.ser_time(1 << 30), Duration::ZERO);
        assert_eq!(c.deser_time(1 << 30), Duration::ZERO);
    }

    #[test]
    fn ser_time_is_linear_in_bytes() {
        let c = SerdeCost {
            ser_bandwidth: 1e6,
            deser_bandwidth: 2e6,
            per_object_overhead: Duration::ZERO,
        };
        assert_eq!(c.ser_time(1_000_000), Duration::from_secs(1));
        assert_eq!(c.deser_time(1_000_000), Duration::from_millis(500));
    }

    #[test]
    fn per_object_overhead_applies_once() {
        let c = SerdeCost {
            ser_bandwidth: 1e9,
            deser_bandwidth: 1e9,
            per_object_overhead: Duration::from_micros(100),
        };
        assert!(c.ser_time(0) >= Duration::from_micros(100));
    }

    #[test]
    fn scaled_slows_charges() {
        let c = SerdeCost::jvm_class().scaled(2.0);
        let base = SerdeCost::jvm_class();
        assert!(c.ser_time(1_000_000) > base.ser_time(1_000_000));
        let ratio = c.ser_time(10_000_000).as_secs_f64() / base.ser_time(10_000_000).as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn charge_occupies_the_thread() {
        let c = SerdeCost {
            ser_bandwidth: 1e6,
            deser_bandwidth: 1e6,
            per_object_overhead: Duration::ZERO,
        };
        let start = std::time::Instant::now();
        c.charge_ser(2_000); // 2 ms
        assert!(start.elapsed() >= Duration::from_millis(2));
    }
}
