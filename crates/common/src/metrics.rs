//! Latency histograms.
//!
//! §9.3 of the paper stresses real-time monitoring for every component.
//! A [`Histogram`] is cheap enough to keep enabled on the record path: the
//! freshness tracer keeps one per traced hop.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-bucket latency histogram with power-of-two-ish bucket bounds in
/// microseconds; good enough for p50/p99 style queries without allocation
/// on the hot path.
///
/// An observation costs one atomic add when it raises neither the sum nor
/// the max: the count is the sum of the buckets, a zero adds nothing to the
/// sum, and the max is loaded before it is ever written.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Bucket bounds: 1us .. ~17min in x2 steps.
const BOUNDS: u32 = 31;

impl Default for Histogram {
    fn default() -> Self {
        let bounds: Vec<u64> = (0..BOUNDS).map(|i| 1u64 << i).collect();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket of `value`: the first whose bound `2^i` is at least `value`,
/// or the overflow bucket past the last bound.
fn bucket_of(value: u64) -> usize {
    let ceil_log2 = match value {
        0 | 1 => 0,
        v => u64::BITS - (v - 1).leading_zeros(),
    };
    ceil_log2.min(BOUNDS) as usize
}

impl Histogram {
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` samples of one value with one update (a batch observer
    /// folds a run of equal dwells into one call).
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        let total = value.saturating_mul(n);
        if total != 0 {
            self.sum.fetch_add(total, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A recorder that folds consecutive equal values into one
    /// [`record_n`](Self::record_n) each; the last run is recorded when it
    /// drops.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            hist: self,
            value: 0,
            n: 0,
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / c as f64
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile (returns the upper bound of the bucket holding
    /// the q-th sample).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // at least one sample must be covered: ceil(0 * n) = 0 would
        // otherwise satisfy `seen >= target` at the first (possibly empty)
        // bucket and report bound 1 for q = 0 regardless of the data
        let target = (((q.clamp(0.0, 1.0)) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max()
                };
            }
        }
        self.max()
    }
}

/// A run of equal values on its way into a [`Histogram`] (see
/// [`Histogram::runs`]).
pub struct Runs<'a> {
    hist: &'a Histogram,
    value: u64,
    n: u64,
}

impl Runs<'_> {
    pub fn record(&mut self, value: u64) {
        if value != self.value {
            self.hist.record_n(self.value, self.n);
            (self.value, self.n) = (value, 0);
        }
        self.n += 1;
    }
}

impl Drop for Runs<'_> {
    fn drop(&mut self) {
        self.hist.record_n(self.value, self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_ordered() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max() * 2);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (one_by_one, folded) = (Histogram::default(), Histogram::default());
        for (value, n) in [(3u64, 5u64), (700, 1), (0, 2), (9, 0)] {
            (0..n).for_each(|_| one_by_one.record(value));
            folded.record_n(value, n);
        }
        let read = |h: &Histogram| {
            (
                h.count(),
                h.mean(),
                h.max(),
                h.quantile(0.5),
                h.quantile(1.0),
            )
        };
        assert_eq!(read(&folded), read(&one_by_one));
        assert_eq!(folded.count(), 8);
    }

    #[test]
    fn runs_read_as_one_record_per_value() {
        // runs of zeros, of exact bounds, past the last bound, and singles
        let mut values = Vec::new();
        for (i, v) in [0u64, 0, 3, 1024, 1025, 0, 7, 7, 1 << 35, 2, 0]
            .into_iter()
            .enumerate()
        {
            values.extend(std::iter::repeat_n(v, i % 4 + 1));
        }
        let (one_by_one, through_runs) = (Histogram::default(), Histogram::default());
        values.iter().for_each(|&v| one_by_one.record(v));
        let mut runs = through_runs.runs();
        values.iter().for_each(|&v| runs.record(v));
        drop(runs);
        let read = |h: &Histogram| {
            let quantiles: Vec<u64> = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
                .into_iter()
                .map(|q| h.quantile(q))
                .collect();
            (h.count(), h.mean(), h.max(), quantiles)
        };
        assert_eq!(read(&through_runs), read(&one_by_one));
        assert_eq!(through_runs.count(), values.len() as u64);
        // an unused recorder records nothing
        drop(Histogram::default().runs());
    }

    #[test]
    fn bucket_of_is_the_first_bound_at_or_above() {
        let h = Histogram::default();
        let mut probes: Vec<u64> = (0..64).flat_map(|i| [1u64 << i, (1u64 << i) + 1]).collect();
        probes.extend([0, 3, 1000, u64::MAX]);
        for v in probes {
            let (Ok(expected) | Err(expected)) = h.bounds.binary_search(&v);
            assert_eq!(bucket_of(v), expected, "{v}");
        }
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_zero_value_lands_in_first_bucket() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0);
        // bucket upper-bound semantics: the first bucket's bound is 1
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn histogram_exact_bound_reports_exact_bound() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(1024); // exactly bounds[10]
        }
        // Ok(i) indexing: the value sits in the bucket it bounds, so the
        // reported quantile is exact, not the next power of two
        assert_eq!(h.quantile(0.5), 1024);
        assert_eq!(h.quantile(0.99), 1024);
        // one past the bound rolls into the next bucket
        let h2 = Histogram::default();
        h2.record(1025);
        assert_eq!(h2.quantile(0.99), 2048);
    }

    #[test]
    fn histogram_above_largest_bound_reports_observed_max() {
        let h = Histogram::default();
        let big = (1u64 << 30) + 123; // past the largest bound (2^30)
        h.record(big);
        h.record(1u64 << 35);
        assert_eq!(h.quantile(0.99), 1u64 << 35);
        // the overflow bucket reports the observed max, never saturates
        assert_eq!(h.max(), 1u64 << 35);
    }

    #[test]
    fn histogram_quantile_zero_is_lowest_occupied_bucket() {
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(1000); // all samples in the (512, 1024] bucket
        }
        // q=0 must report the first bucket actually holding a sample, not
        // the first bucket of the histogram
        assert_eq!(h.quantile(0.0), 1024);
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
    }
}
