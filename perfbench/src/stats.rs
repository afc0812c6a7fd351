//! Small summary statistics over timing samples.

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated between
/// order statistics; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Whether `n` samples leave at least ten beyond their `q`-quantile, the
/// least a tail percentile needs to mean anything.
pub fn tail_is_resolved(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!tail_is_resolved(99, 0.9));
        assert!(tail_is_resolved(100, 0.9));
        assert!(tail_is_resolved(20, 0.5));
    }
}
