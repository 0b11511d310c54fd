//! # sparker-sim
//!
//! A discrete-event simulator of the paper's two clusters, used where the
//! real (threaded, in-process) engine cannot go: 10 nodes × 96 cores,
//! 256 MB aggregators, 120-executor rings. The threaded engine and this
//! simulator consume the **same** network profiles and the same algorithm
//! step structure, so shapes agree between backends (an ablation bench
//! checks this); the simulator simply replaces wall-clock waiting with
//! virtual time.
//!
//! Architecture:
//!
//! * [`des`] — the event engine: ops with dependencies, multi-slot core
//!   pools, serial NIC/stream resources, earliest-ready-first scheduling.
//! * [`cluster`] — Table 1 as a simulation config (BIC / AWS presets).
//! * [`aggsim`] — op-graph builders for the three aggregation strategies
//!   (Tree, Tree+IMM, Split) and the reduce-scatter primitive; produces the
//!   paper's compute/reduce decomposition.
//! * [`algosim`] — op-graph builders for the tuner's full algorithm menu
//!   ([`sparker_tuner::Algo`]); the DES ground truth the calibrated
//!   selector is judged against at paper scale.
//! * [`p2p`] — closed-form point-to-point latency/throughput model
//!   (Figures 12–13).
//! * [`mlrun`] — end-to-end training-loop model for the nine Table 2 × 3
//!   workloads (Figures 1–4, 17, 18).
//! * [`workloads`] — the Table 2 × Table 3 workload grid (dataset profile ×
//!   model) [`eval`] sweeps, with the paper-anchored cost
//!   constants of the calibration ledger (EXPERIMENTS.md).
//! * [`elastic`] — elastic/fault scenarios at paper scale: the DES replays
//!   [`sparker_net::fault::NetFaultPlan`] schedules (leave, join,
//!   straggler, flapping link, lost frame) against the ring collective.
//! * [`eval`] — the paper-parity evaluation harness (DESIGN.md §5k): one
//!   deterministic sweep regenerating every headline figure with each
//!   claim encoded as a named, self-asserting bound.
//!
//! The event engine is exact for uncontended chains — useful as a sanity
//! anchor before trusting contended runs:
//!
//! ```
//! use sparker_sim::des::{DesParams, OpGraph};
//!
//! let params = DesParams {
//!     executors: 1,
//!     cores_per_executor: 1,
//!     node_of_executor: vec![0],
//!     nodes: 1,
//!     stream_bandwidth: 1000.0,
//!     nic_bandwidth: 2000.0,
//!     intra_bandwidth: 10_000.0,
//!     latency: 0.01,
//!     intra_latency: 0.001,
//! };
//! let mut g = OpGraph::new();
//! let a = g.compute(0, 1.0, vec![]);
//! let b = g.compute(0, 2.0, vec![a]);
//! let r = g.run(&params);
//! assert!((r.finish[b] - 3.0).abs() < 1e-9);
//! assert!((r.makespan - 3.0).abs() < 1e-9);
//! ```

pub mod aggsim;
pub mod algosim;
pub mod cluster;
pub mod des;
pub mod elastic;
pub mod eval;
pub mod mlrun;
pub mod p2p;
pub mod workloads;

pub use aggsim::{simulate_aggregation, AggSimResult, Strategy};
pub use algosim::{ground_truth_margin, model_for, simulate_algo, simulate_rank};
pub use cluster::SimCluster;
pub use eval::{run_paper_eval, BoundCheck, BoundOp, BoundViolation, EvalConfig, EvalReport, EvalScale};
pub use mlrun::{simulate_training, TrainingBreakdown};
pub use workloads::{Workload, WorkloadKind};
