//! Small dense/sparse linear-algebra kernels used by the trainers.

/// Dense dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sparse·dense dot product.
pub fn sparse_dot(indices: &[u32], values: &[f64], w: &[f64]) -> f64 {
    indices
        .iter()
        .zip(values)
        .map(|(&i, &v)| w.get(i as usize).copied().unwrap_or(0.0) * v)
        .sum()
}

/// `y[i] += alpha * v` for sparse `(i, v)` pairs.
pub fn sparse_axpy(alpha: f64, indices: &[u32], values: &[f64], y: &mut [f64]) {
    for (&i, &v) in indices.iter().zip(values) {
        if let Some(slot) = y.get_mut(i as usize) {
            *slot += alpha * v;
        }
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Numerically-stable log(1 + e^x).
pub fn log1p_exp(x: f64) -> f64 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn sparse_dot_skips_missing() {
        let w = [1.0, 2.0, 3.0];
        assert_eq!(sparse_dot(&[0, 2], &[10.0, 1.0], &w), 13.0);
        // Out-of-range index contributes 0, not a panic.
        assert_eq!(sparse_dot(&[5], &[1.0], &w), 0.0);
    }

    #[test]
    fn sparse_axpy_adds_scaled_pairs() {
        let mut y = vec![3.0, 1.0, -1.0];
        sparse_axpy(10.0, &[1], &[0.5], &mut y);
        assert_eq!(y, vec![3.0, 6.0, -1.0]);
    }

    #[test]
    fn log1p_exp_is_stable_and_correct() {
        for x in [-700.0, -10.0, -1.0, 0.0, 1.0, 10.0, 700.0] {
            let got = log1p_exp(x);
            assert!(got.is_finite(), "x={x}");
            if x.abs() < 20.0 {
                let want = (1.0 + x.exp()).ln();
                assert!((got - want).abs() < 1e-12, "x={x}: {got} vs {want}");
            }
        }
        // Large x: log(1+e^x) ~ x.
        assert!((log1p_exp(700.0) - 700.0).abs() < 1e-9);
        // Very negative: ~ e^x ~ 0.
        assert!(log1p_exp(-700.0) >= 0.0);
    }
}
