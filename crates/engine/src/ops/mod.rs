//! Actions: the operations that trigger execution.
//!
//! * [`basic`] — `collect`, `count`, and plain `aggregate` (every partition
//!   result ships straight to the driver).
//! * [`tree_aggregate`] — Spark's `treeAggregate` baseline, with optional
//!   In-Memory Merge in the compute stage.
//! * [`split_aggregate`] — Sparker's contribution: IMM + ring reduce-scatter
//!   over the PDR + gather/concat at the driver.
//! * [`allreduce_aggregate`] — extension past the paper: finish with a ring
//!   allgather so the reduced value stays resident on every executor and
//!   the driver stops being a fan-in point.
//! * [`reduce`] — the one dispatch of [`sparker_tuner::Algo`] to a
//!   reduce-scatter, shared by split aggregation and the multi-process
//!   executor.

pub mod allreduce_aggregate;
pub mod basic;
pub mod reduce;
pub mod split_aggregate;
pub mod tree_aggregate;
