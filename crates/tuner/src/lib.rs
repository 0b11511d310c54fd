//! # sparker-tuner
//!
//! The model crate: the paper's clusters as numbers, a discrete-event
//! simulator (DES) that runs the aggregation op-DAGs on them at paper scale
//! (10 nodes × 96 cores, 256 MB aggregators, 120-executor rings), and the
//! cost model and selector that rank the collective family. No runtime
//! crate depends on it: the engine runs the one
//! [`Algo`](sparker_collectives::Algo) it is handed, and wall-clock cost is
//! only ever measured on real threads and sockets.
//!
//! * [`profile`] — network profiles: per-link latency/bandwidth, per-channel
//!   caps, NIC line rate and per-transport software overheads, with the
//!   closed-form point-to-point latency and throughput of Figures 12–13.
//!   Presets reproduce the paper's BIC and AWS clusters.
//! * [`cost`] — a two-link-class alpha-beta model with closed-form
//!   predictions for every [`Algo`](sparker_collectives::Algo), derived
//!   from a profile or fitted by [`calibrate`] from the `collective.step`
//!   spans every collective records through `sparker-obs`.
//! * [`select`] — a deterministic [`Selector`] ranking the candidate menu
//!   per job (DESIGN.md §5j); a caller that wants the model's pick passes
//!   `Selector::select(&shape).algo` as the engine's `SplitAggOpts::algo`.
//! * [`des`] — the event engine: ops with dependencies, multi-slot core
//!   pools, serial NIC/stream resources, earliest-ready-first scheduling.
//! * [`cluster`] — Table 1 as a simulation config (BIC / AWS presets).
//! * [`aggsim`] — op-graphs of the three aggregation strategies (Tree,
//!   Tree+IMM, Split) and the reduce-scatter primitive.
//! * [`algosim`] — op-graphs of the full algorithm menu: the ground truth
//!   the selector is judged against at paper scale.
//! * [`mlrun`] and [`workloads`] — the end-to-end training-loop model over
//!   the Table 2 × Table 3 workload grid (Figures 1–4, 17, 18).
//! * [`elastic`] — the DES replays [`sparker_net::fault::NetFaultPlan`]
//!   schedules (leave, join, straggler, flapping link, lost frame) against
//!   the ring collective.
//! * [`eval`] — the paper-parity harness (DESIGN.md §5k): one deterministic
//!   sweep regenerating every headline figure, each claim a named bound.
//!
//! The event engine is exact for uncontended chains:
//!
//! ```
//! use sparker_tuner::des::{DesParams, OpGraph};
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
pub mod calibrate;
pub mod cluster;
pub mod cost;
pub mod des;
pub mod elastic;
pub mod eval;
pub mod mlrun;
pub mod profile;
pub mod select;
pub mod workloads;

pub use calibrate::{calibrate_from_spans, Calibration};
pub use cost::{CostModel, JobShape, LinkParams};
pub use select::{Decision, Selector};
