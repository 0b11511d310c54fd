//! # sparker-tuner
//!
//! Auto-tuning for Sparker's collective family: which reduction algorithm
//! should a given aggregation job run?
//!
//! The paper fixes one algorithm (the topology-aware ring) and wins 2.76×
//! over the naive ordering; but the best algorithm is a function of the
//! job — segment size, density, executor count, node topology. This crate
//! closes the loop:
//!
//! 1. [`cost`] — a two-link-class alpha-beta model (intra-node,
//!    inter-node, plus merge throughput) with closed-form predictions for
//!    `{flat ring, chunked ring C, halving, tree, hierarchical}`.
//! 2. [`calibrate`] — an offline pass fitting those parameters from the
//!    `collective.step` span family (`ring.step`, `hier.fold`, …) that
//!    every collective already records through `sparker-obs`.
//! 3. [`select`] — a deterministic [`Selector`] ranking the candidate
//!    menu per job, exporting `tuner.selected.{algo}` counters.
//!
//! The engine runs the one algorithm it is handed (`SplitAggOpts::algo`);
//! a caller that wants the model's pick passes `Selector::select(&shape).algo`.
//! `crates/sim` asserts ground truth at paper scale: the selector is never
//! worse than the best static choice by more than the calibrated margin.
//! See DESIGN.md §5j for the normative spec.

pub mod calibrate;
pub mod cost;
pub mod select;

pub use calibrate::{calibrate_from_samples, calibrate_from_spans, Calibration};
pub use cost::{Algo, CostModel, JobShape, LinkParams};
pub use select::{Decision, Selector};
