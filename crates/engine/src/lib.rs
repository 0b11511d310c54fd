//! # sparker-engine
//!
//! A mini Spark-like distributed dataflow engine — the substrate the Sparker
//! paper modifies. Executors are OS-thread pools inside one process,
//! inter-executor and executor↔driver traffic flows through the in-process
//! mesh transports of `sparker-net`, and every value crossing an executor
//! boundary passes the explicit serialization codec. The engine reproduces
//! the Spark execution structure the paper's costs hang off:
//!
//! * **RDDs with lineage** ([`rdd`], [`rdds`]) — lazy transformations over
//!   partitioned datasets, plus `MEMORY_ONLY` caching in per-executor block
//!   stores.
//! * **Stages and tasks** ([`cluster`], [`task`]) — the driver turns actions
//!   into stages of tasks, schedules them on executor core slots, retries
//!   failed tasks, and fetches serialized task results over the
//!   BlockManager-class transport (exactly Spark's result path).
//! * **Tree aggregation** ([`ops::tree_aggregate`]) — Spark's
//!   `treeAggregate`: per-partition aggregators, log-depth shuffle rounds
//!   that serialize whole aggregators between executors, and a final
//!   sequential merge at the driver. This is the paper's baseline.
//! * **In-Memory Merge** ([`objects`], the IMM stage of
//!   [`ops::split_aggregate`]) — the paper's §3.2:
//!   tasks on the same executor merge their results into a shared in-memory
//!   value *before* serialization (a "reduced-result stage"); task failure
//!   invalidates the shared value and the whole stage resubmits.
//! * **Split aggregation** ([`ops::split_aggregate`]) — the paper's §3.1/§4:
//!   an IMM stage materializes one aggregator per executor, a statically
//!   scheduled stage (the paper's `SpawnRDD`) runs ring reduce-scatter over
//!   the parallel directed ring via the scalable communicator, and the
//!   driver concatenates the gathered segments with the user's `concatOp`.
//!
//! The user-facing API mirrors the paper's Figure 6 and lives in the
//! `sparker` facade crate; this crate is the machinery.

pub mod blockstore;
pub mod broadcast;
pub mod cluster;
pub mod config;
pub mod dataset;
pub mod history;
pub mod metrics;
pub mod multiproc;
pub mod objects;
pub mod ops;
pub mod rdd;
pub mod rdds;
pub mod task;

pub use broadcast::Broadcast;
pub use cluster::LocalCluster;
pub use config::ClusterSpec;
pub use dataset::Dataset;
pub use metrics::AggMetrics;
pub use ops::split_aggregate::{SelectorOpts, SplitAggOpts};
pub use ops::tree_aggregate::TreeAggOpts;
pub use rdd::{Data, Rdd, RddId};
pub use task::EngineError;
