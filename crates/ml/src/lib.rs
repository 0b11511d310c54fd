//! # sparker-ml
//!
//! An MLlib-like machine learning library on the Sparker engine — the three
//! workloads the paper evaluates (Table 3):
//!
//! * [`logistic`] — Logistic Regression (`regParam = 0`,
//!   `elasticNetParam = 0`), gradient descent;
//! * [`svm`] — linear SVM (`miniBatchFraction = 1.0`, `regParam = 0.01`),
//!   hinge-loss subgradient descent;
//! * [`lda`] — LDA topic model (`K = 100` at paper scale), EM over a
//!   topic-mixture model whose per-iteration sufficient statistics are a
//!   dense `K × V` matrix — the huge aggregator that makes LDA-N the
//!   paper's flagship scalability case.
//!
//! Every model's per-iteration aggregator is a **dense `f64` vector** (a
//! gradient plus loss/count scalars, or a flattened count matrix), exactly
//! like MLlib's `RDDLossFunction` aggregators in the paper's Figure 7. That
//! shared shape means one splittable-object implementation serves all
//! models: `splitOp` slices the vector, `reduceOp` adds element-wise,
//! `concatOp` concatenates ([`aggregator`]). Each trainer takes an
//! [`glm::AggregationMode`] switch — `Tree`, `TreeImm`, or `Split` — which
//! is the paper's "MLlib users only need a configuration parameter".

pub mod aggregator;
pub mod eval;
pub mod glm;
pub mod lda;
pub mod linalg;
pub mod logistic;
pub mod point;
pub mod svm;

pub use aggregator::DenseAgg;
pub use glm::{AggregationMode, GdConfig, TrainRecord};
pub use lda::{LdaConfig, LdaModel};
pub use logistic::LogisticRegression;
pub use point::LabeledPoint;
pub use svm::LinearSvm;
