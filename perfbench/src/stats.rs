//! Order statistics shared by every phase.

use crate::Json;

/// Nearest-rank quantile of `values` for `q` in `[0, 1]`: the smallest
/// sample with at least a `q` share of the samples at or below it. Works
/// with `f64::INFINITY` entries (refused requests) and returns `NaN` for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q` quantile within consecutive windows of at least `window`
/// samples (in arrival order), one value per window. A host stall that
/// hits one window then moves one value, not the figure: report the
/// median over windows.
pub fn window_quantiles(values: &[f64], window: usize, q: f64) -> Vec<f64> {
    let windows = (values.len() / window.max(1)).max(1);
    let size = values.len().div_ceil(windows).max(1);
    values.chunks(size).map(|w| quantile(w, q)).collect()
}

/// Midpoint median (the mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here read the
/// same as the ones computed over repeated runs. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let v = values.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |j: usize| {
        let m = n + 1;
        let pos = j * m;
        let i = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - i as f64;
        sorted[i - 1] + (sorted[i] - sorted[i - 1]) * delta
    };
    (at(1), at(3))
}

/// A median with its interquartile range and sample count, for the
/// diagnostic lines.
pub fn summary(values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values);
    obj! {
        "median" => median(values),
        "q1" => q1,
        "q3" => q3,
        "samples" => values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0, f64::INFINITY], 0.99), f64::INFINITY);
    }

    #[test]
    fn windows_split_evenly_in_arrival_order() {
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        // Two windows of at least 10: 13 and 12 samples.
        assert_eq!(window_quantiles(&v, 10, 1.0), vec![13.0, 25.0]);
        assert_eq!(window_quantiles(&v[..5], 10, 1.0), vec![5.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }
}
