//! Typed scheduler errors.
//!
//! Every way a job can fail to produce a result is a variant here — the
//! acceptance discipline is "typed error or exact answer, never a hang,
//! never a wrong answer", same as the engine's.

use std::fmt;

/// Why a job was rejected or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The bounded admission queue is full; retry later or shed load
    /// upstream. `capacity` is the configured bound that was hit.
    QueueFull { capacity: usize },
    /// Never produced; kept only because `benchmark/src/jobs.rs` still
    /// matches on it.
    PoolSaturated { pressure_permille: u64, limit_permille: u64 },
    /// The job was admitted and dispatched but the backend could not
    /// produce an exact result (e.g. a view change with the fallback
    /// disabled). Carries the backend's own typed error, stringified.
    TaskFailed { job: u64, reason: String },
    /// The scheduler shut down before (or while) the job ran.
    Shutdown,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            SchedError::PoolSaturated { pressure_permille, limit_permille } => write!(
                f,
                "frame pool saturated: pressure {pressure_permille}permille >= limit {limit_permille}permille"
            ),
            SchedError::TaskFailed { job, reason } => write!(f, "job {job} failed: {reason}"),
            SchedError::Shutdown => write!(f, "scheduler shut down"),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        assert!(SchedError::QueueFull { capacity: 8 }.to_string().contains("capacity 8"));
        assert!(SchedError::PoolSaturated { pressure_permille: 2500, limit_permille: 2000 }
            .to_string()
            .contains("2500"));
        assert!(SchedError::TaskFailed { job: 3, reason: "x".into() }
            .to_string()
            .contains("job 3"));
        assert!(SchedError::Shutdown.to_string().contains("shut down"));
    }
}
