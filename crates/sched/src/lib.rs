//! # sparker-sched
//!
//! The job-scheduling layer between clients and the engine: where the
//! engine runs *one* aggregation at a time, this crate admits and
//! dispatches *many* concurrent `split_aggregate` jobs from many clients.
//!
//! The normative spec is DESIGN.md §5i. The shape:
//!
//! * **Bounded admission** — [`Scheduler::submit`] either admits a job or
//!   rejects it *typed* ([`SchedError::QueueFull`]); it never blocks the
//!   client and never drops silently.
//! * **FIFO dispatch** — one worker per backend lane takes the oldest
//!   pending job.
//! * **Epoch namespaces** — every live job holds a distinct namespace in
//!   `1..NS_COUNT` ([`sparker_net::epoch::namespaced`]), folded into the
//!   attempt word of its collective frames, so concurrent rings can never
//!   accept each other's traffic. Namespaces are recycled only after the
//!   job completes.
//! * **Backends** ([`backend`]) — the scheduler core is generic over where
//!   jobs run; the one production backend runs them on per-lane in-process
//!   clusters ([`backend::EngineBackend`]).
//!
//! Everything is instrumented as `sched.*` counters/gauges/histograms in
//! [`sparker_obs`], plus a gated `sched.job` span per dispatch.
//!
//! ```
//! use sparker_sched::{AggJob, EngineBackend, Fifo, JobRequest, SchedConfig, Scheduler};
//!
//! // One engine lane (a LocalCluster of 2 executors × 1 core).
//! let sched = Scheduler::new(EngineBackend::new(1, 2, 1), Box::new(Fifo), SchedConfig::default());
//! let job = AggJob { seed: 7, dim: 64, parts: 2 };
//! let handle = sched.submit(JobRequest::new(/* client */ 0, job))?;
//! // Bit-exact vs the serial oracle, or a typed SchedError.
//! assert_eq!(handle.wait()?, EngineBackend::oracle(&job));
//! # Ok::<(), sparker_sched::SchedError>(())
//! ```

pub mod backend;
pub mod error;
pub mod scheduler;

pub use backend::{AggJob, Backend, EngineBackend, JobCtx};
pub use error::SchedError;
pub use scheduler::{ClientId, Fifo, JobHandle, JobRequest, SchedConfig, Scheduler};
