//! Latency histograms and summaries.
//!
//! §5's headline operational claim is "a latency of under 2 seconds" at
//! production event rates; the X4 experiment needs tail percentiles, so
//! the histogram keeps power-of-two buckets from 1 µs to ~68 s and
//! answers percentile queries without storing samples. Lock-free
//! recording (atomics) so every worker thread can record on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: bucket i counts values in
/// `[2^i, 2^(i+1))` µs; the last bucket absorbs overflow.
pub const BUCKETS: usize = 36;

/// A concurrent power-of-two latency histogram (microsecond domain).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one sample in microseconds.
    pub fn record(&self, us: u64) {
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// Maximum recorded value.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts (index i covers `[2^i, 2^(i+1))` µs; the
    /// last bucket absorbs overflow). The exposition path turns these
    /// into cumulative `le` buckets.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Upper bound (exclusive) of bucket `i`, µs.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// Approximate percentile (`0.0 < p <= 1.0`): upper bound of the bucket
    /// containing the p-th sample. Returns 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1); // bucket upper bound
            }
        }
        self.max_us()
    }

    /// Snapshot (count, mean, p50, p95, p99, max) for reporting.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            mean_us: self.mean_us(),
            p50_us: self.percentile_us(0.50),
            p95_us: self.percentile_us(0.95),
            p99_us: self.percentile_us(0.99),
            max_us: self.max_us(),
        }
    }
}

/// A point-in-time latency digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean, µs.
    pub mean_us: u64,
    /// Median bucket upper bound, µs.
    pub p50_us: u64,
    /// 95th percentile bucket upper bound, µs.
    pub p95_us: u64,
    /// 99th percentile bucket upper bound, µs.
    pub p99_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={}µs p50={}µs p95={}µs p99={}µs max={}µs",
            self.count, self.mean_us, self.p50_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0);
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn single_sample() {
        let h = Histogram::new();
        h.record(100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean_us(), 100);
        assert_eq!(h.max_us(), 100);
        // 100 lives in bucket [64, 128): upper bound 128.
        assert_eq!(h.percentile_us(0.5), 128);
    }

    #[test]
    fn percentiles_order_correctly() {
        let h = Histogram::new();
        for _ in 0..990 {
            h.record(10); // bucket [8,16)
        }
        for _ in 0..10 {
            h.record(1_000_000); // ~1s outliers
        }
        assert!(h.percentile_us(0.50) <= 16);
        assert!(h.percentile_us(0.99) <= 16, "99th of 1000 samples is still fast");
        assert!(h.percentile_us(0.999) >= 1_000_000 / 2, "tail catches the outliers");
        assert!(h.max_us() >= 1_000_000);
    }

    #[test]
    fn zero_valued_samples_count() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert!(h.percentile_us(1.0) >= 1);
    }

    #[test]
    fn huge_samples_clamp_to_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_us(), u64::MAX);
        assert!(h.percentile_us(0.5) > 0);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        let h = Histogram::new();
        // A value of exactly 2^i lands in bucket i (range [2^i, 2^(i+1))),
        // and 2^i - 1 lands in bucket i-1: the boundary is inclusive
        // below, exclusive above.
        for i in 1..20usize {
            let v = 1u64 << i;
            let h2 = Histogram::new();
            h2.record(v);
            h2.record(v - 1);
            let counts = h2.bucket_counts();
            assert_eq!(counts[i], 1, "2^{i} must land in bucket {i}");
            assert_eq!(counts[i - 1], 1, "2^{i}-1 must land in bucket {}", i - 1);
        }
        // 0 and 1 both land in bucket 0 ([1, 2) with the max(1) clamp).
        h.record(0);
        h.record(1);
        assert_eq!(h.bucket_counts()[0], 2);
        // Upper bounds line up with percentile answers.
        assert_eq!(Histogram::bucket_upper_bound(0), 2);
        assert_eq!(Histogram::bucket_upper_bound(6), 128);
        let h3 = Histogram::new();
        h3.record(100);
        assert_eq!(h3.percentile_us(1.0), Histogram::bucket_upper_bound(6));
    }

    #[test]
    fn bucket_counts_sum_to_count() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 70, 5000, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let total: u64 = h.bucket_counts().iter().sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i % 1000);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
    }

    #[test]
    fn summary_display_is_readable() {
        let h = Histogram::new();
        h.record(1500);
        let s = h.summary().to_string();
        assert!(s.contains("n=1"), "{s}");
        assert!(s.contains("max=1500µs"), "{s}");
    }
}
