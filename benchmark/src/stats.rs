//! Percentiles within a round first, then a quantile across rounds.

/// Nearest-rank percentile (`p` in `(0, 100]`) of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Interquartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    (percentile(samples, 75.0) - percentile(samples, 25.0)) / median(samples)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        // three samples: p50 is the middle one, p95 the largest
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 95.0), 3.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn extremes_and_spread() {
        let rounds = [10.0, 12.0, 9.5, 30.0, 11.0];
        assert_eq!(min(&rounds), 9.5);
        assert_eq!(max(&rounds), 30.0);
        assert_eq!(median(&rounds), 11.0);
        // quartiles by nearest rank: q1 = 10, q3 = 12
        assert!((iqr_share(&rounds) - 2.0 / 11.0).abs() < 1e-12);
    }
}
