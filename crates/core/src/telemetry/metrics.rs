//! Lock-free metric primitives: counters, gauges and log-scale
//! histograms.
//!
//! All recording operations are wait-free single atomic RMW ops with
//! `Relaxed` ordering — there is no cross-metric consistency guarantee,
//! only per-metric monotonicity, which is all a snapshot needs. Under
//! the `telemetry-off` cargo feature every recording method compiles to
//! an empty body so the instrumented binary carries zero runtime cost.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one underflow bucket for the value `0`
/// plus one bucket per power of two up to `u64::MAX`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
///
/// Values saturate at `u64::MAX` in practice (wrapping would require
/// ~5.8e11 years of nanosecond increments); overflow is not handled.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(super) fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        self.value.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "telemetry-off")]
        let _ = n;
    }

    /// Current value. Always 0 under `telemetry-off`.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement (an `f64` stored as raw
/// bits in an atomic, so reads and writes are lock-free and tear-free).
///
/// Non-finite values are silently ignored by [`Gauge::set`] so a NaN
/// produced by a degenerate window can never poison a snapshot.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub(super) fn new() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Stores `v`, unless `v` is NaN or infinite (then the call is a
    /// no-op and the previous value is kept).
    #[inline]
    pub fn set(&self, v: f64) {
        #[cfg(not(feature = "telemetry-off"))]
        if v.is_finite() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
        #[cfg(feature = "telemetry-off")]
        let _ = v;
    }

    /// Current value. Always 0.0 under `telemetry-off`.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket base-2 log-scale histogram of `u64` samples.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`. 65 buckets cover the whole `u64` range with no
/// dynamic allocation and ~3 ns per record. Alongside the buckets the
/// histogram tracks exact `count`, `sum`, `min` and `max`, so means are
/// exact and only quantiles are bucket-approximate (error ≤ 2× by
/// construction).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
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

impl Histogram {
    pub(super) fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.min.fetch_min(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(feature = "telemetry-off")]
        let _ = v;
    }

    /// Records `n` samples of the value `v` at once: the snapshot is
    /// identical to `n` calls of [`Self::record`] (`sum` grows by `v·n`,
    /// wrapping), at the cost of one. `n = 0` records nothing.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        if n > 0 {
            self.count.fetch_add(n, Ordering::Relaxed);
            self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
            self.min.fetch_min(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
            self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        }
        #[cfg(feature = "telemetry-off")]
        let _ = (v, n);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or `None` if the histogram is empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded sample, or `None` if the histogram is empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Mean of the recorded samples (exact, from `sum`/`count`), or
    /// `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.sum() as f64 / n as f64)
        }
    }

    /// Copies the bucket counts out (index = [`bucket_index`]).
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let h = Histogram::new();
        for v in [3u64, 5, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.mean(), Some(27.0));
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[2], 1); // 3
        assert_eq!(buckets[3], 1); // 5
        assert_eq!(buckets[7], 1); // 100
    }

    /// Everything a snapshot reads off a histogram.
    fn aggregates(h: &Histogram) -> (u64, u64, Option<u64>, Option<u64>, [u64; HISTOGRAM_BUCKETS]) {
        (h.count(), h.sum(), h.min(), h.max(), h.bucket_counts())
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
        let (batched, single) = (Histogram::new(), Histogram::new());
        for (i, &(v, n)) in runs.iter().enumerate() {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
            batched.record(i as u64);
            single.record(i as u64);
            assert_eq!(aggregates(&batched), aggregates(&single), "after run {i}");
        }
        assert_eq!(batched.count(), 19);
        assert_eq!(
            batched.sum(),
            634,
            "7·3 + 1 + 300·2 + Σ0..6, less 3 for u64::MAX·3"
        );
    }

    #[test]
    fn record_n_of_nothing_leaves_a_histogram_empty() {
        let h = Histogram::new();
        h.record_n(9, 0);
        assert_eq!(aggregates(&h), aggregates(&Histogram::new()));
        assert_eq!((h.min(), h.max()), (None, None));
    }

    /// With the feature on, a live histogram records nothing either way.
    #[cfg(feature = "telemetry-off")]
    #[test]
    fn record_n_is_compiled_out() {
        let h = Histogram::new();
        h.record_n(9, 4);
        h.record(9);
        assert_eq!(h.count(), 0);
        assert_eq!(h.bucket_counts(), [0; HISTOGRAM_BUCKETS]);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn gauge_ignores_non_finite() {
        let g = Gauge::new();
        g.set(2.5);
        g.set(f64::NAN);
        g.set(f64::INFINITY);
        assert_eq!(g.get(), 2.5);
    }
}
