//! Sample summaries: nearest-rank percentiles over wall-clock samples.

/// The `q`-quantile (`0 < q ≤ 1`) of `samples` by nearest rank; 0 for an
/// empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The smallest of `samples`; 0 for an empty sample.
pub fn min(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
    }
}
