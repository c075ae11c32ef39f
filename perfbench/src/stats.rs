//! Order statistics over samples.

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (`q` in `[0, 1]`); `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The Harrell–Davis estimate of the `q`-quantile of `values` (`q` in
/// `(0, 1)`): a weighted mean of all order statistics, the `i`-th of `n`
/// weighted by the mass the Beta(`q(n+1)`, `(1-q)(n+1)`) distribution puts
/// on `[(i-1)/n, i/n]`. It estimates the same quantile as [`quantile`] with
/// a smaller run-to-run variance, because it does not hinge on the one or
/// two samples next to the rank. `NaN` when `values` is empty.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = q.clamp(1e-9, 1.0 - 1e-9);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, value) in sorted.iter().enumerate() {
        let upto = incomplete_beta(a, b, (i + 1) as f64 / n as f64);
        estimate += (upto - below) * value;
        below = upto;
    }
    estimate
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFICIENTS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut sum = COEFFICIENTS[0];
    for (i, c) in COEFFICIENTS.iter().enumerate().skip(1) {
        sum += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// Mean of `total` over `count` items, or 0 when there are none.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn harrell_davis_weights_order_statistics() {
        assert!((incomplete_beta(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
        let (a, b, x) = (700.0, 18.0, 0.97);
        assert!((incomplete_beta(a, b, x) + incomplete_beta(b, a, 1.0 - x) - 1.0).abs() < 1e-9);
        assert_eq!(hd_quantile(&[7.0], 0.9), 7.0);
        assert!((hd_quantile(&[3.0; 50], 0.8) - 3.0).abs() < 1e-9);
        assert!((hd_quantile(&[4.0, 1.0, 3.0, 2.0], 0.5) - 2.5).abs() < 1e-9);
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((hd_quantile(&values, 0.9) - quantile(&values, 0.9)).abs() < 1.0);
        assert!(hd_quantile(&values, 0.975) > hd_quantile(&values, 0.9));
        assert!(hd_quantile(&[], 0.5).is_nan());
    }
}
