//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. With 110
/// samples `p = 90` selects index 98, leaving 11 samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of `(value, weight)` pairs: the smallest value
/// with at least `p` percent of the total weight at or below it.
pub fn weighted_percentile(pairs: &[(f64, f64)], p: f64) -> f64 {
    assert!(!pairs.is_empty(), "percentile of no samples");
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = sorted.iter().map(|(_, w)| w).sum();
    let mut below = 0.0;
    for (value, weight) in &sorted {
        below += weight;
        if below >= p / 100.0 * total - 1e-9 {
            return *value;
        }
    }
    sorted[sorted.len() - 1].0
}

/// The smallest sample. Repetitions of identical work differ only by what
/// the host did to them, so the fastest one is the least disturbed.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median with the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spread this harness
/// prints is the number the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 55.0);
        // p90 of 110 samples leaves exactly 11 beyond it.
        assert_eq!(percentile(&v, 90.0), 99.0);
        assert_eq!(v.iter().filter(|x| **x > percentile(&v, 90.0)).count(), 11);
        assert_eq!(percentile(&v, 100.0), 110.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 1.0);
    }

    #[test]
    fn weighted_percentile_agrees_with_the_expanded_sample() {
        // 3 × 10, 1 × 30, 1 × 20: the weights of rst_canonical's classes.
        let pairs = [(10.0, 3.0), (30.0, 1.0), (20.0, 1.0)];
        let mut expanded = vec![10.0, 10.0, 10.0, 30.0, 20.0];
        sort(&mut expanded);
        for p in [1.0, 50.0, 60.0, 61.0, 80.0, 90.0, 100.0] {
            assert_eq!(
                weighted_percentile(&pairs, p),
                percentile(&expanded, p),
                "p{p}"
            );
        }
        assert_eq!(weighted_percentile(&pairs, 50.0), 10.0);
        assert_eq!(weighted_percentile(&pairs, 90.0), 30.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }
}
