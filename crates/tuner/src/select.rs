//! The algorithm selector: rank the candidate menu under the cost model.
//!
//! Deterministic by construction — candidates are scanned in canonical
//! order ([`Algo::candidates`]) with a strict `<` comparison, so for a
//! fixed calibration the same shape always yields the same decision. Every
//! decision bumps a `tuner.selected.{algo}` counter, and feeding the
//! measured wall-clock back via [`Selector::observe`] publishes the
//! `tuner.predict_vs_actual_permille` gauge, making mispredictions visible
//! in exported traces next to the spans they mispredicted.

use crate::cost::{Algo, CostModel, JobShape};

/// What the selector decided for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    pub algo: Algo,
    /// Whether the density-adaptive sparse representation is predicted to
    /// cut wire bytes for this shape.
    pub sparse: bool,
    /// The model's predicted reduce-scatter seconds for `algo`.
    pub predicted_secs: f64,
}

/// A calibrated, deterministic algorithm selector.
#[derive(Debug, Clone)]
pub struct Selector {
    model: CostModel,
}

impl Selector {
    pub fn new(model: CostModel) -> Self {
        Self { model }
    }

    /// Selector over the uncalibrated default model.
    pub fn default_selector() -> Self {
        Self::new(CostModel::default_model())
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Predicted seconds for every candidate, in canonical order (the
    /// decision-table view; used by benches and the DES ground truth).
    pub fn rank(&self, shape: &JobShape) -> Vec<(Algo, f64)> {
        Algo::candidates()
            .into_iter()
            .map(|a| (a, self.model.predict(a, shape)))
            .collect()
    }

    /// Picks the predicted-fastest algorithm for `shape` and records the
    /// decision in the metrics registry.
    pub fn select(&self, shape: &JobShape) -> Decision {
        let mut best = (Algo::FlatRing, f64::INFINITY);
        for (algo, secs) in self.rank(shape) {
            if secs < best.1 {
                best = (algo, secs);
            }
        }
        let (algo, predicted_secs) = best;
        selected_counter(algo).inc();
        Decision { algo, sparse: self.model.prefers_sparse(shape), predicted_secs }
    }

    /// Publishes predicted/actual (permille) for a completed job. 1000
    /// means the model was exact; large deviations flag a stale
    /// calibration. Ignored for non-positive actuals.
    pub fn observe(&self, decision: &Decision, actual_secs: f64) {
        if actual_secs > 0.0 {
            let permille = (decision.predicted_secs / actual_secs * 1000.0).round();
            sparker_obs::metrics::gauge("tuner.predict_vs_actual_permille")
                .set(permille.clamp(0.0, i64::MAX as f64) as i64);
        }
    }
}

fn selected_counter(algo: Algo) -> std::sync::Arc<sparker_obs::metrics::Counter> {
    match algo {
        Algo::FlatRing => sparker_obs::metrics::counter("tuner.selected.ring"),
        Algo::ChunkedRing(_) => sparker_obs::metrics::counter("tuner.selected.chunked_ring"),
        Algo::Halving => sparker_obs::metrics::counter("tuner.selected.halving"),
        Algo::Tree => sparker_obs::metrics::counter("tuner.selected.tree"),
        Algo::Hierarchical => sparker_obs::metrics::counter("tuner.selected.hier"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_for_a_fixed_calibration() {
        let shapes = [
            JobShape::dense(1 << 10, 8, 2, 2),
            JobShape::dense(1 << 20, 48, 8, 4),
            JobShape::dense(4 << 20, 120, 10, 4),
            JobShape { density_permille: 5, ..JobShape::dense(1 << 20, 24, 4, 2) },
        ];
        for shape in &shapes {
            let d1 = Selector::default_selector().select(shape);
            assert_eq!(
                d1.sparse,
                CostModel::default_model().prefers_sparse(shape),
                "the wire-format choice follows the model"
            );
            for _ in 0..3 {
                let d2 = Selector::default_selector().select(shape);
                assert_eq!(d1, d2, "same calibration, same shape, same decision");
            }
        }
    }

    #[test]
    fn selected_is_the_argmin_of_rank() {
        let sel = Selector::default_selector();
        let shape = JobShape::dense(1 << 20, 48, 8, 4);
        let d = sel.select(&shape);
        let best = sel
            .rank(&shape)
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(d.algo, best.0);
        assert_eq!(d.predicted_secs, best.1);
    }

    #[test]
    fn decisions_are_recorded_as_counters() {
        let sel = Selector::default_selector();
        let shape = JobShape::dense(4 << 20, 120, 10, 4);
        let d = sel.select(&shape);
        let snap = sparker_obs::metrics::snapshot();
        let name = format!("tuner.selected.{}", d.algo.name());
        assert!(
            snap.iter().any(|m| m.name == name),
            "counter {name} missing from {snap:?}"
        );
        sel.observe(&d, d.predicted_secs); // exact prediction -> 1000
        let snap = sparker_obs::metrics::snapshot();
        assert!(snap.iter().any(|m| m.name == "tuner.predict_vs_actual_permille"));
    }

    #[test]
    fn big_multi_node_dense_prefers_hierarchical() {
        let sel = Selector::default_selector();
        let d = sel.select(&JobShape::dense(4 << 20, 120, 10, 4));
        assert_eq!(d.algo, Algo::Hierarchical);
        assert!(!d.sparse);
    }

    #[test]
    fn tiny_jobs_avoid_per_chunk_overhead() {
        let sel = Selector::default_selector();
        let d = sel.select(&JobShape::dense(1 << 10, 8, 2, 2));
        assert_eq!(d.algo.chunks(), 1, "1 KiB cannot pay 8 chunk alphas: {d:?}");
    }
}
