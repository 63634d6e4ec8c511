//! Order statistics over full sample vectors (no histograms).

/// The `p`-quantile (`0.0..=1.0`) of `len` sorted values read through `at`,
/// interpolating linearly between neighbours. `None` when there are none.
fn interpolate(len: usize, p: f64, at: impl Fn(usize) -> f64) -> Option<f64> {
    let last = len.checked_sub(1)?;
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(at(lo) + (at(hi) - at(lo)) * (pos - lo as f64))
}

/// The `p`-quantile of `sorted` samples.
pub fn quantile(sorted: &[u64], p: f64) -> Option<f64> {
    interpolate(sorted.len(), p, |i| sorted[i] as f64)
}

/// Median and 99th percentile of `samples` (sorted in place), in the
/// samples' own unit; zeros when empty.
pub fn p50_p99(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    (
        quantile(samples, 0.50).unwrap_or(0.0),
        quantile(samples, 0.99).unwrap_or(0.0),
    )
}

/// Median of a few floating-point measurements; zero when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The 10th percentile of some measurements, interpolating; zero when
/// empty. Interference only slows a measurement down, so the best tenth is
/// the machine left alone.
pub fn best_tenth(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    interpolate(values.len(), 0.10, |i| values[i]).unwrap_or(0.0)
}

/// `(first quartile, median, third quartile)` by the exclusive method,
/// which is what Python's `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&s, 0.5), Some(30.0));
        assert_eq!(quantile(&s, 0.0), Some(10.0));
        assert_eq!(quantile(&s, 1.0), Some(50.0));
        assert_eq!(quantile(&s, 0.125), Some(15.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn best_tenths() {
        let mut v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(best_tenth(&mut v), 1.0);
        assert_eq!(best_tenth(&mut [3.0, 1.0, 2.0]), 1.2);
        assert_eq!(best_tenth(&mut [7.0]), 7.0);
        assert_eq!(best_tenth(&mut []), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }
}
