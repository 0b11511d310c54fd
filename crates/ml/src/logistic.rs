//! Logistic regression (the paper's LR workload, Table 3:
//! `regParam = 0`, `elasticNetParam = 0`).

use sparker_engine::dataset::Dataset;
use sparker_engine::task::EngineResult;

use crate::glm::{run_gradient_descent, AggregationMode, GdConfig, GradientKind, TrainRecord};

use crate::point::LabeledPoint;

/// Logistic-regression trainer.
#[derive(Debug, Clone, Copy)]
pub struct LogisticRegression {
    pub iterations: usize,
    pub step_size: f64,
    /// Paper setting: 0.0.
    pub reg_param: f64,
    pub mode: AggregationMode,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self { iterations: 20, step_size: 1.0, reg_param: 0.0, mode: AggregationMode::Tree }
    }
}

/// Trained logistic model.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    pub weights: Vec<f64>,
}

impl LogisticModel {
    /// P(y = +1 | x).
    pub fn predict_probability(&self, p: &LabeledPoint) -> f64 {
        1.0 / (1.0 + (-p.margin(&self.weights)).exp())
    }

    /// Hard ±1 prediction.
    pub fn predict(&self, p: &LabeledPoint) -> f64 {
        if p.margin(&self.weights) > 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Fraction of correctly classified points.
    pub fn accuracy(&self, points: &[LabeledPoint]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        let ok = points.iter().filter(|p| self.predict(p) == p.label).count();
        ok as f64 / points.len() as f64
    }
}

impl LogisticRegression {
    pub fn with_mode(mut self, mode: AggregationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Trains on `data` with feature dimension `dim`.
    pub fn train(
        &self,
        data: &Dataset<LabeledPoint>,
        dim: usize,
    ) -> EngineResult<(LogisticModel, Vec<TrainRecord>)> {
        let cfg = GdConfig {
            iterations: self.iterations,
            step_size: self.step_size,
            reg_param: self.reg_param,
            mini_batch_fraction: 1.0,
            mode: self.mode,
        };
        let (weights, records) = run_gradient_descent(data, dim, GradientKind::Logistic, cfg)?;
        Ok((LogisticModel { weights }, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_data::synth::ClassificationGen;
    use sparker_engine::cluster::LocalCluster;

    #[test]
    fn trains_on_synthetic_dataset_and_beats_chance() {
        let cluster = LocalCluster::local(2, 2);
        let gen = ClassificationGen::new(7, 64, 8);
        let dim = 64;
        let gen2 = gen.clone();
        let ds = cluster.generate(4, move |p| {
            gen2.partition(p, 4, 2000)
                .into_iter()
                .map(LabeledPoint::from)
                .collect()
        });
        let (model, records) = LogisticRegression { iterations: 40, ..Default::default() }
            .train(&ds, dim)
            .unwrap();
        let test: Vec<LabeledPoint> =
            (2000..2600).map(|i| LabeledPoint::from(gen.sample(i))).collect();
        let acc = model.accuracy(&test);
        assert!(acc >= 0.68, "test accuracy {acc}");
        assert!(records.last().unwrap().loss < records[0].loss);
    }

    #[test]
    fn split_mode_trains_identically() {
        let cluster = LocalCluster::local(3, 2);
        let gen = ClassificationGen::new(9, 32, 5);
        let mk = |g: ClassificationGen| {
            cluster.generate(3, move |p| {
                g.partition(p, 3, 300).into_iter().map(LabeledPoint::from).collect()
            })
        };
        let ds = mk(gen.clone());
        let lr = LogisticRegression { iterations: 5, ..Default::default() };
        let (m_tree, _) = lr.train(&ds, 32).unwrap();
        let (m_split, _) = lr.with_mode(AggregationMode::split()).train(&ds, 32).unwrap();
        for (a, b) in m_tree.weights.iter().zip(&m_split.weights) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn probability_is_monotone_in_margin() {
        let model = LogisticModel { weights: vec![1.0, 0.0] };
        let hi = LabeledPoint::new(1.0, vec![0], vec![3.0]);
        let lo = LabeledPoint::new(1.0, vec![0], vec![-3.0]);
        assert!(model.predict_probability(&hi) > 0.9);
        assert!(model.predict_probability(&lo) < 0.1);
        assert_eq!(model.predict(&hi), 1.0);
        assert_eq!(model.predict(&lo), -1.0);
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let model = LogisticModel { weights: vec![1.0] };
        assert_eq!(model.accuracy(&[]), 0.0);
    }
}
