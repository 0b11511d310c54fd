//! Actions: the operations that trigger execution.
//!
//! * [`basic`] — `collect`, `count`, and plain `aggregate` (every partition
//!   result ships straight to the driver).
//! * [`tree_aggregate`] — Spark's `treeAggregate` baseline, with optional
//!   In-Memory Merge in the compute stage.
//! * [`split_aggregate`] — Sparker's contribution: IMM + ring reduce-scatter
//!   over the PDR + gather/concat at the driver.
//! * [`reduce`] — the one dispatch of [`sparker_collectives::Algo`] to a
//!   reduce-scatter, shared by split aggregation and the multi-process
//!   executor.

pub mod basic;
pub mod reduce;
pub mod split_aggregate;
pub mod tree_aggregate;
