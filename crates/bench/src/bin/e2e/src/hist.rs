//! Lock-free log-linear histogram: 32 linear sub-buckets per octave, so a
//! bucket is never wider than 1/32 = 3.125 % of its lower bound. The
//! registry's `obs::Histogram` resolves to a factor of two, which cannot
//! carry a p99; this one can, and it is the bench's own so no program
//! file changes.
//!
//! Percentiles interpolate by rank inside the bucket that holds them, so
//! a reported value moves continuously with the samples instead of
//! snapping to a bucket edge.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^40 (12 days in µs).
const MAX_VALUE: u64 = (1 << 40) - 1;
const BUCKETS: usize = ((40 - SUB_BITS as usize) + 1) * SUB as usize;

fn index_of(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) & (SUB - 1)) as usize
}

/// Lower bound and width of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    ((SUB + (i as u64 & (SUB - 1))) << shift, 1 << shift)
}

/// The lowest `f` over the non-empty histograms of `windows`: a phase's
/// best second. Interference from the box only ever adds latency, so the
/// best window is the estimate it disturbs least (README, "Steadiness").
pub fn lowest_over(windows: &[Hist], f: impl Fn(&Hist) -> f64) -> f64 {
    let lowest = windows.iter().filter(|h| h.count() > 0).map(f).fold(f64::INFINITY, f64::min);
    if lowest.is_finite() {
        lowest
    } else {
        0.0
    }
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it in a sample of `n`.
pub fn tail_percentile(n: u64) -> f64 {
    // ⟨percentile, one sample in this many lies beyond it⟩
    [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10)]
        .into_iter()
        .find(|(_, one_in)| n / one_in >= 10)
        .map_or(0.5, |(p, _)| p)
}

pub struct Hist {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist::default()
    }

    // Every field is a statistic that publishes no other data: Relaxed.
    pub fn record(&self, v: u64) {
        self.buckets[index_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Samples strictly above `limit`'s bucket (so at most one bucket width
    /// of values above `limit` go uncounted).
    pub fn count_above(&self, limit: u64) -> u64 {
        self.buckets[index_of(limit) + 1..].iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Add `other`'s samples to this histogram.
    pub fn merge(&self, other: &Hist) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// The value at percentile `p` in 0..=1, interpolated by rank inside
    /// its bucket; 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * n as f64).ceil().max(1.0);
        let mut before = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (lo, width) = bounds_of(i);
                if width == 1 {
                    return lo as f64; // below 64 µs every value has its own bucket
                }
                let frac = (rank - before as f64 - 0.5) / c as f64;
                return lo as f64 + width as f64 * frac;
            }
            before += c;
        }
        self.max() as f64
    }

    /// The tail this sample supports: ⟨percentile, value⟩ by the
    /// ten-samples-beyond rule.
    pub fn tail(&self) -> (f64, f64) {
        let p = tail_percentile(self.count());
        (p, self.percentile(p))
    }

    /// p99, or the highest percentile the sample supports when it is too
    /// small to carry one.
    pub fn p99(&self) -> f64 {
        self.percentile(tail_percentile(self.count()).min(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_at_most_one_32nd_wide() {
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds_of(i);
            assert_eq!(lo, expect_lo, "bucket {i} starts where {} ended", i.saturating_sub(1));
            assert_eq!(index_of(lo), i);
            assert_eq!(index_of(lo + width - 1), i);
            assert!(width == 1 || width as f64 / lo as f64 <= 1.0 / 32.0, "bucket {i} too wide");
            expect_lo = lo + width;
        }
        assert_eq!(expect_lo, MAX_VALUE + 1);
    }

    #[test]
    fn single_values_read_back_within_3_2_percent() {
        let mut v = 1u64;
        while v < MAX_VALUE / 3 {
            for x in [v, v + v / 3, v + v / 2 + 1] {
                let h = Hist::new();
                h.record(x);
                let got = h.percentile(0.5);
                let err = (got - x as f64).abs() / x as f64;
                assert!(err <= 0.032, "{x} read back as {got} ({:.2} % off)", err * 100.0);
            }
            v *= 2;
        }
    }

    #[test]
    fn percentiles_of_a_uniform_run_interpolate() {
        let h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [0.5, 0.9, 0.99, 0.999] {
            let want = p * 100_000.0;
            let got = h.percentile(p);
            assert!((got - want).abs() / want < 0.005, "p{p}: {got} vs {want}");
        }
        assert_eq!(h.count_above(50_000), 100_000 - bounds_of(index_of(50_000) + 1).0 + 1);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (a, b, both) = (Hist::new(), Hist::new(), Hist::new());
        for v in 0..5_000u64 {
            let x = v * v % 77_777;
            if v % 2 == 0 { &a } else { &b }.record(x);
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        for p in [0.1, 0.5, 0.99] {
            assert_eq!(a.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(999), 0.9);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
        assert_eq!(tail_percentile(1_000_000), 0.9999);
        let h = Hist::new();
        for v in 0..500 {
            h.record(v);
        }
        assert_eq!(h.tail().0, 0.9);
        assert_eq!(h.p99(), h.percentile(0.9));
    }
}
