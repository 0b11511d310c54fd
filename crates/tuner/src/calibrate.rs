//! Offline calibration: fit alpha-beta link parameters from obs step spans.
//!
//! Every collective step emits a `Layer::Step` span (`ring.step`,
//! `allgather.step`, `hier.fold`) carrying `rank`, `peer`,
//! and byte counts — the `collective.step` family. Given a run's span
//! snapshot and a way to classify each (rank, peer) pair as intra- or
//! inter-node, this module least-squares-fits `time = alpha + beta·bytes`
//! per link class. Calibration is a *pass over recorded data*: it never
//! touches the network, so it can run after any traced job, and
//! [`Calibration::apply`] folds the fit into a [`CostModel`].

use sparker_net::topology::LinkClass;
use sparker_obs::{Layer, SpanRecord};

use crate::cost::{CostModel, LinkParams};

/// Step-span names that count as the `collective.step` family.
const STEP_NAMES: [&str; 3] = ["ring.step", "allgather.step", "hier.fold"];

/// One fitted run: parameters per class plus how much data backed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    pub intra: LinkParams,
    pub inter: LinkParams,
    pub intra_samples: usize,
    pub inter_samples: usize,
}

impl Calibration {
    /// Folds this fit into `base`, keeping `base`'s merge cost and margin.
    /// A class with no samples keeps `base`'s parameters (you cannot fit a
    /// link class the traced run never exercised).
    pub fn apply(&self, base: &CostModel) -> CostModel {
        let mut model = *base;
        if self.intra_samples > 0 {
            model.intra = self.intra;
        }
        if self.inter_samples > 0 {
            model.inter = self.inter;
        }
        model
    }
}

/// Fits link parameters from `spans`. `link_of(rank, peer)` classifies each
/// step's link (ranks are ring ranks, as recorded in the span args);
/// return `None` for pairs that should be skipped (e.g. unknown members).
pub fn calibrate_from_spans<F>(spans: &[SpanRecord], link_of: F) -> Calibration
where
    F: Fn(u64, u64) -> Option<LinkClass>,
{
    let mut intra: Vec<(f64, f64)> = Vec::new();
    let mut inter: Vec<(f64, f64)> = Vec::new();
    for s in spans {
        if s.layer != Layer::Step || !STEP_NAMES.contains(&s.name.as_str()) || s.dur_ns == 0 {
            continue;
        }
        let (Some(rank), Some(peer)) = (s.arg("rank"), s.arg("peer")) else { continue };
        let bytes = s.arg("send_bytes").unwrap_or(0).max(s.arg("recv_bytes").unwrap_or(0));
        if bytes == 0 {
            continue;
        }
        let Some(class) = link_of(rank, peer) else { continue };
        let sample = (bytes as f64, s.dur_ns as f64 / 1e9);
        match class {
            LinkClass::IntraNode => intra.push(sample),
            LinkClass::InterNode => inter.push(sample),
        }
    }
    let defaults = CostModel::default_model();
    Calibration {
        intra: fit(&intra).unwrap_or(defaults.intra),
        inter: fit(&inter).unwrap_or(defaults.inter),
        intra_samples: intra.len(),
        inter_samples: inter.len(),
    }
}

/// Fits link parameters from raw `(bytes, seconds)` samples per class —
/// the span-free entry point used when the samples come from somewhere
/// other than a live traced run, e.g. the DES: `sparker_sim` replays
/// point-to-point transfers through its event engine and feeds the
/// simulated timings here, so the paper-parity selector is calibrated
/// from *DES traces* exactly the way the live selector is calibrated
/// from obs spans. A class with fewer than two samples falls back to the
/// default model's parameters (same rule as [`calibrate_from_spans`]).
pub fn calibrate_from_samples(intra: &[(f64, f64)], inter: &[(f64, f64)]) -> Calibration {
    let defaults = CostModel::default_model();
    Calibration {
        intra: fit(intra).unwrap_or(defaults.intra),
        inter: fit(inter).unwrap_or(defaults.inter),
        intra_samples: intra.len(),
        inter_samples: inter.len(),
    }
}

/// Ordinary least squares for `t = alpha + beta·b`, clamped to physical
/// values (alpha, beta >= 0). Returns `None` without at least two samples;
/// with no spread in `b` the slope is unidentifiable, so beta = 0 and
/// alpha = mean(t).
fn fit(samples: &[(f64, f64)]) -> Option<LinkParams> {
    if samples.len() < 2 {
        return None;
    }
    let n = samples.len() as f64;
    let mean_b = samples.iter().map(|(b, _)| b).sum::<f64>() / n;
    let mean_t = samples.iter().map(|(_, t)| t).sum::<f64>() / n;
    let var_b: f64 = samples.iter().map(|(b, _)| (b - mean_b).powi(2)).sum();
    if var_b == 0.0 {
        return Some(LinkParams { alpha_s: mean_t.max(0.0), beta_s_per_byte: 0.0 });
    }
    let cov: f64 = samples.iter().map(|(b, t)| (b - mean_b) * (t - mean_t)).sum();
    let beta = (cov / var_b).max(0.0);
    let alpha = (mean_t - beta * mean_b).max(0.0);
    Some(LinkParams { alpha_s: alpha, beta_s_per_byte: beta })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_span(name: &str, rank: u64, peer: u64, bytes: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id: 1,
            parent: 0,
            scope: 0,
            tid: 0,
            layer: Layer::Step,
            name: name.to_string(),
            start_ns: 0,
            dur_ns,
            args: vec![("rank", rank), ("peer", peer), ("send_bytes", bytes)],
        }
    }

    /// Synthetic spans generated from known (alpha, beta) must fit back to
    /// those parameters.
    #[test]
    fn fit_recovers_synthetic_parameters() {
        let (alpha, beta) = (50e-6, 1.0 / 2e9);
        let spans: Vec<SpanRecord> = [1024u64, 4096, 65536, 1 << 20]
            .iter()
            .map(|&b| {
                let t = alpha + b as f64 * beta;
                step_span("ring.step", 0, 1, b, (t * 1e9) as u64)
            })
            .collect();
        let cal = calibrate_from_spans(&spans, |_, _| Some(LinkClass::InterNode));
        assert_eq!(cal.inter_samples, 4);
        assert_eq!(cal.intra_samples, 0);
        assert!((cal.inter.alpha_s - alpha).abs() / alpha < 0.01, "{:?}", cal.inter);
        assert!((cal.inter.beta_s_per_byte - beta).abs() / beta < 0.01, "{:?}", cal.inter);
    }

    #[test]
    fn classes_fit_independently_and_apply_respects_empties() {
        let spans = vec![
            step_span("ring.step", 0, 1, 1000, 10_000),
            step_span("ring.step", 0, 1, 2000, 11_000),
            step_span("hier.fold", 2, 0, 1000, 1_000),
            step_span("hier.fold", 2, 0, 3000, 1_200),
        ];
        let cal = calibrate_from_spans(&spans, |_, peer| {
            Some(if peer == 0 { LinkClass::IntraNode } else { LinkClass::InterNode })
        });
        assert_eq!((cal.inter_samples, cal.intra_samples), (2, 2));
        assert!(cal.inter.alpha_s > cal.intra.alpha_s);

        // A run with no intra traffic keeps the base model's intra params.
        let inter_only: Vec<SpanRecord> =
            spans.iter().filter(|s| s.name == "ring.step").cloned().collect();
        let cal2 = calibrate_from_spans(&inter_only, |_, _| Some(LinkClass::InterNode));
        let base = CostModel::default_model();
        let applied = cal2.apply(&base);
        assert_eq!(applied.intra, base.intra);
        assert_eq!(applied.inter, cal2.inter);
    }

    #[test]
    fn non_step_spans_and_zero_bytes_are_ignored() {
        let mut s1 = step_span("ring.step", 0, 1, 1024, 5_000);
        s1.layer = Layer::Stage;
        let s2 = step_span("ring.step", 0, 1, 0, 5_000);
        let s3 = step_span("unrelated", 0, 1, 1024, 5_000);
        let cal = calibrate_from_spans(&[s1, s2, s3], |_, _| Some(LinkClass::InterNode));
        assert_eq!(cal.inter_samples, 0);
        assert_eq!(cal.inter, CostModel::default_model().inter, "defaults survive");
    }

    #[test]
    fn sample_calibration_matches_span_calibration() {
        // The same data through both entry points must fit identically.
        let (alpha, beta) = (80e-6, 1.0 / 1e9);
        let raw: Vec<(f64, f64)> = [512u64, 4096, 65536]
            .iter()
            .map(|&b| (b as f64, alpha + b as f64 * beta))
            .collect();
        let spans: Vec<SpanRecord> = raw
            .iter()
            .map(|&(b, t)| step_span("ring.step", 0, 1, b as u64, (t * 1e9) as u64))
            .collect();
        let from_spans = calibrate_from_spans(&spans, |_, _| Some(LinkClass::InterNode));
        let from_samples = calibrate_from_samples(&[], &raw);
        assert_eq!(from_samples.inter_samples, from_spans.inter_samples);
        assert!((from_samples.inter.alpha_s - from_spans.inter.alpha_s).abs() < 1e-9);
        assert!(
            (from_samples.inter.beta_s_per_byte - from_spans.inter.beta_s_per_byte).abs() < 1e-15
        );
        // Empty intra class keeps the defaults.
        assert_eq!(from_samples.intra, CostModel::default_model().intra);
    }

    #[test]
    fn constant_bytes_fit_degenerates_to_pure_alpha() {
        let spans = vec![
            step_span("ring.step", 0, 1, 4096, 20_000),
            step_span("ring.step", 0, 1, 4096, 22_000),
            step_span("ring.step", 0, 1, 4096, 24_000),
        ];
        let cal = calibrate_from_spans(&spans, |_, _| Some(LinkClass::InterNode));
        assert_eq!(cal.inter.beta_s_per_byte, 0.0);
        assert!((cal.inter.alpha_s - 22e-6).abs() < 1e-9);
    }
}
