//! The one metric kind a snapshot cannot read off its owner's books: a
//! log-scale histogram of `u64` samples, plain data that its owner
//! records into through `&mut self`. Under the `telemetry-off` cargo
//! feature the recording bodies compile to nothing, so the instrumented
//! binary carries no cost.

use super::snapshot::HistogramSnapshot;
use super::MetricSpec;

/// Number of histogram buckets: one underflow bucket for the value `0`
/// plus one bucket per power of two up to `u64::MAX`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket base-2 log-scale histogram of `u64` samples.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`. 65 buckets cover the whole `u64` range with no
/// dynamic allocation. Alongside the buckets the histogram tracks exact
/// `count`, `sum`, `min` and `max`, so means are exact and only
/// quantiles are bucket-approximate (error ≤ 2× by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

/// Index of the bucket that holds `v`: 0 for 0, else `64 - leading_zeros`.
#[cfg(any(test, not(feature = "telemetry-off")))]
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (used when reporting quantiles).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the value `v` at once: the snapshot is
    /// identical to `n` calls of [`Self::record`] (`sum` grows by `v·n`,
    /// wrapping), at the cost of one. `n = 0` records nothing.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        if n > 0 {
            self.count += n;
            self.sum = self.sum.wrapping_add(v.wrapping_mul(n));
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.buckets[bucket_index(v)] += n;
        }
        #[cfg(feature = "telemetry-off")]
        let _ = (v, n);
    }

    /// The histogram's snapshot entry under `spec`: its exact aggregates
    /// and its non-empty buckets, ascending.
    pub(crate) fn snapshot(&self, spec: MetricSpec) -> HistogramSnapshot {
        HistogramSnapshot {
            name: spec.name.to_string(),
            component: spec.component.to_string(),
            unit: spec.unit.to_string(),
            count: self.count,
            sum: self.sum,
            min: (self.count > 0).then_some(self.min),
            max: (self.count > 0).then_some(self.max),
            buckets: (self.buckets.iter().enumerate())
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: MetricSpec = MetricSpec::new("h", "test", "us");

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_bounds_bracket_their_indices() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn histogram_tracks_exact_aggregates() {
        let mut h = Histogram::default();
        for v in [3u64, 5, 0, 100] {
            h.record(v);
        }
        let snap = h.snapshot(SPEC);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 108);
        assert_eq!(snap.min, Some(0));
        assert_eq!(snap.max, Some(100));
        assert_eq!(snap.mean(), Some(27.0));
        // 0, 3, 5 and 100 land in buckets 0, 2, 3 and 7.
        assert_eq!(snap.buckets, [(0, 1), (2, 1), (3, 1), (7, 1)]);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn record_n_matches_n_single_records() {
        // (v, n) runs, interleaved with single records: a zero run, a
        // zero value, and a run whose v·n wraps the sum.
        let runs = [
            (7u64, 3u64),
            (0, 4),
            (5, 0),
            (u64::MAX, 3),
            (1, 1),
            (300, 2),
        ];
        let (mut batched, mut single) = (Histogram::default(), Histogram::default());
        for (i, &(v, n)) in runs.iter().enumerate() {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
            batched.record(i as u64);
            single.record(i as u64);
            assert_eq!(batched, single, "after run {i}");
        }
        let snap = batched.snapshot(SPEC);
        assert_eq!(snap.count, 19);
        assert_eq!(
            snap.sum, 634,
            "7·3 + 1 + 300·2 + Σ0..6, less 3 for u64::MAX·3"
        );
    }

    #[test]
    fn record_n_of_nothing_leaves_a_histogram_empty() {
        let mut h = Histogram::default();
        h.record_n(9, 0);
        assert_eq!(h, Histogram::default());
        let snap = h.snapshot(SPEC);
        assert_eq!((snap.min, snap.max), (None, None));
    }

    /// With the feature on, a live histogram records nothing either way.
    #[cfg(feature = "telemetry-off")]
    #[test]
    fn record_n_is_compiled_out() {
        let mut h = Histogram::default();
        h.record_n(9, 4);
        h.record(9);
        assert_eq!(h, Histogram::default());
    }
}
