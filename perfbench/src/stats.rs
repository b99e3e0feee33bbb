//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between the two nearest ranks. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Whether a percentile `q` of `n` samples has at least ten samples beyond
/// it, the rule the latency percentiles follow.
pub fn tail_supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs rounding in 1 − q (100 × (1 − 0.9) < 10).
    (n as f64) * (1.0 - q) + 1e-9 >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
    }
}
