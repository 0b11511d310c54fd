//! Aggregation run metrics.
//!
//! The paper's analysis decomposes tree aggregation into *computation* (the
//! first stage, where partition aggregators are built) and *reduction*
//! (everything after, until the driver holds one aggregator) — Figures 3, 4
//! and 18 are built on that decomposition. Every aggregation op in this
//! engine reports an [`AggMetrics`] with the same split plus byte-level
//! accounting, so benchmarks and tests can assert not just totals but *why*
//! a strategy wins (e.g. IMM's benefit shows up in `ser_bytes_to_driver`).

use std::time::Duration;

/// Which aggregation strategy produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggStrategy {
    /// Spark's `treeAggregate`: per-partition results, shuffle tree, driver merge.
    Tree,
    /// Tree aggregation with In-Memory Merge in the compute stage.
    TreeImm,
    /// Sparker's split aggregation: IMM + ring reduce-scatter + gather.
    Split,
    /// Split aggregation with recursive halving instead of the ring.
    SplitHalving,
    /// Split aggregation with the two-level (intra-node fold + inter-node
    /// ring) hierarchical reduce-scatter.
    SplitHier,
}

impl AggStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            AggStrategy::Tree => "tree",
            AggStrategy::TreeImm => "tree+imm",
            AggStrategy::Split => "split",
            AggStrategy::SplitHalving => "split-halving",
            AggStrategy::SplitHier => "split-hier",
        }
    }
}

/// Timing and traffic decomposition of one aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggMetrics {
    pub strategy: AggStrategy,
    /// Wall time of the compute stage (paper: "Agg-compute").
    pub compute: Duration,
    /// Wall time from compute-stage completion to the driver holding the
    /// final value (paper: "Agg-reduce").
    pub reduce: Duration,
    /// Portion of `reduce` the driver spent deserializing + merging.
    pub driver_merge: Duration,
    /// Aggregator bytes serialized anywhere (shuffle + results + ring).
    pub ser_bytes: u64,
    /// Aggregator bytes that crossed into the driver.
    pub bytes_to_driver: u64,
    /// Aggregator-carrying messages sent.
    pub messages: u64,
    /// Stages executed (including resubmissions).
    pub stages: u32,
    /// Task attempts executed (retries included).
    pub task_attempts: u32,
    /// True when the collective path exhausted its gang attempts and the
    /// result was produced by the degraded (tree-style) fallback instead.
    /// `ser_bytes` and `messages` then count the fallback alone, the same
    /// pair a forced `Algo::Tree` op reads.
    pub downgraded: bool,
    /// Scheduler job this aggregation ran under, making rows from concurrent
    /// jobs attributable in merged CSVs. Single-job runs emit 0.
    pub job_id: u64,
}

impl AggMetrics {
    pub fn new(strategy: AggStrategy) -> Self {
        Self {
            strategy,
            compute: Duration::ZERO,
            reduce: Duration::ZERO,
            driver_merge: Duration::ZERO,
            ser_bytes: 0,
            bytes_to_driver: 0,
            messages: 0,
            stages: 0,
            task_attempts: 0,
            downgraded: false,
            job_id: 0,
        }
    }

    /// Total aggregation wall time.
    pub fn total(&self) -> Duration {
        self.compute + self.reduce
    }

    /// The single wire-bytes number benches compare across strategies and
    /// representations: every aggregator byte serialized anywhere (shuffle,
    /// results, ring/halving exchanges, fallback frames). Since
    /// `Segment::payload_bytes` defaults to the exact `Payload::size_hint`,
    /// this is the same accounting the `sparse.wire_bytes` metric uses.
    pub fn wire_bytes(&self) -> u64 {
        self.ser_bytes
    }

    /// Column names matching [`AggMetrics::csv_row`]. Bench bins prepend
    /// their own key columns (dimension, executors, …) to both.
    pub fn csv_header() -> &'static str {
        "strategy,compute_s,reduce_s,driver_merge_s,total_s,ser_bytes,wire_bytes,bytes_to_driver,messages,stages,task_attempts,downgraded,job_id"
    }

    /// One CSV row of every field, in [`AggMetrics::csv_header`] order.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{:.9},{:.9},{:.9},{:.9},{},{},{},{},{},{},{},{}",
            self.strategy.name(),
            self.compute.as_secs_f64(),
            self.reduce.as_secs_f64(),
            self.driver_merge.as_secs_f64(),
            self.total().as_secs_f64(),
            self.ser_bytes,
            self.wire_bytes(),
            self.bytes_to_driver,
            self.messages,
            self.stages,
            self.task_attempts,
            self.downgraded as u8,
            self.job_id,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(AggStrategy::Tree.name(), "tree");
        assert_eq!(AggStrategy::TreeImm.name(), "tree+imm");
        assert_eq!(AggStrategy::Split.name(), "split");
        assert_eq!(AggStrategy::SplitHalving.name(), "split-halving");
        assert_eq!(AggStrategy::SplitHier.name(), "split-hier");
    }

    #[test]
    fn total_is_compute_plus_reduce() {
        let mut m = AggMetrics::new(AggStrategy::Tree);
        m.compute = Duration::from_millis(10);
        m.reduce = Duration::from_millis(5);
        assert_eq!(m.total(), Duration::from_millis(15));
    }

    #[test]
    fn csv_row_matches_header_arity_and_values() {
        let mut m = AggMetrics::new(AggStrategy::Split);
        m.compute = Duration::from_millis(250);
        m.reduce = Duration::from_millis(750);
        m.ser_bytes = 1024;
        m.bytes_to_driver = 128;
        m.messages = 7;
        m.stages = 2;
        m.task_attempts = 9;
        m.downgraded = true;
        m.job_id = 42;
        let header: Vec<&str> = AggMetrics::csv_header().split(',').collect();
        let row = m.csv_row();
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(header.len(), cells.len(), "row arity matches header");
        assert_eq!(cells[0], "split");
        assert_eq!(cells[4], "1.000000000"); // total_s
        assert_eq!(cells[5], "1024"); // ser_bytes
        assert_eq!(cells[6], "1024"); // wire_bytes mirrors the unified accounting
        assert_eq!(cells[11], "1"); // downgraded
        assert_eq!(cells[12], "42"); // job_id, last column so older indices hold
    }

    #[test]
    fn single_job_rows_emit_job_id_zero() {
        let m = AggMetrics::new(AggStrategy::Tree);
        let row = m.csv_row();
        assert_eq!(row.split(',').next_back(), Some("0"));
    }
}
