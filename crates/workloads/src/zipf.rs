//! Zipfian sampling over a finite universe.
//!
//! §5: "The distribution of event keys can be strongly skewed (e.g.,
//! follow a Zipfian distribution). Consequently, updaters can receive
//! widely varying loads." The hotspot experiments (X5, X12) need exactly
//! that skew, with a controllable exponent.
//!
//! Implementation: precomputed CDF + binary search. O(n) setup, O(log n)
//! per sample, exact distribution — fine for universes up to a few million
//! keys.

use muppet_core::event::{Event, Key};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The stream [`zipf_events`] emits on.
pub const ZIPF_STREAM: &str = "zipf_counts";

/// A deterministic stream of `len` unit-count events over a Zipf(`s`)
/// key universe of `n_keys` ranks: key `k<rank>` (rank 0 hottest),
/// value `"1"` (one unit, foldable by decimal sum), timestamps
/// `1..=len` on [`ZIPF_STREAM`]. `s = 0` degenerates to uniform. The
/// shared skewed input of e2e's `counters_skew` and the combiner
/// exactness suites (PR 10) — same seed, same events, everywhere.
pub fn zipf_events(n_keys: usize, s: f64, len: usize, seed: u64) -> Vec<Event> {
    let zipf = Zipf::new(n_keys, s);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let rank = zipf.sample(&mut rng);
            Event::new(ZIPF_STREAM, (i + 1) as u64, Key::from(format!("k{rank}")), &b"1"[..])
        })
        .collect()
}

/// A Zipf(s) sampler over ranks `0..n` (rank 0 is the most popular).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s` (`s = 0` is
    /// uniform; `s ≈ 1` is classic web-ish skew; larger is hotter).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty universe");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite and non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        // Normalize; final entry exactly 1.0 to make sampling total.
        for v in cdf.iter_mut() {
            *v /= total;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Universe size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (the constructor rejects empty universes).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sample a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The probability mass of `rank` (diagnostics and tests).
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(z: &Zipf, samples: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; z.len()];
        for _ in 0..samples {
            counts[z.sample(&mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn uniform_when_s_is_zero() {
        let z = Zipf::new(10, 0.0);
        let counts = histogram(&z, 100_000, 42);
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1500, "uniform-ish: {counts:?}");
        }
    }

    #[test]
    fn skewed_when_s_is_large() {
        let z = Zipf::new(100, 1.2);
        let counts = histogram(&z, 100_000, 7);
        assert!(
            counts[0] > counts[10] && counts[10] > counts[99].saturating_sub(5),
            "monotone-ish decay: head={} mid={} tail={}",
            counts[0],
            counts[10],
            counts[99]
        );
        assert!(counts[0] as f64 / 100_000.0 > 0.15, "rank 0 dominates at s=1.2");
    }

    #[test]
    fn pmf_sums_to_one_and_matches_theory() {
        let z = Zipf::new(50, 1.0);
        let total: f64 = (0..50).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // p(rank 0) / p(rank 1) == 2 for s = 1.
        assert!((z.pmf(0) / z.pmf(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(1000, 1.1);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_universe() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn zipf_events_are_deterministic_unit_counts() {
        let a = zipf_events(50, 1.2, 500, 9);
        let b = zipf_events(50, 1.2, 500, 9);
        assert_eq!(a, b, "same seed, same events");
        assert_eq!(a.len(), 500);
        let mut head = 0usize;
        for (i, ev) in a.iter().enumerate() {
            assert_eq!(ev.stream.as_str(), ZIPF_STREAM);
            assert_eq!(ev.ts, (i + 1) as u64);
            assert_eq!(ev.value.as_ref(), b"1");
            if ev.key.as_bytes() == b"k0" {
                head += 1;
            }
        }
        assert!(head > 100, "rank 0 dominates at s=1.2: {head}");
        assert_ne!(a, zipf_events(50, 1.2, 500, 10), "seed changes the stream");
    }

    #[test]
    fn single_rank_universe() {
        let z = Zipf::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(z.sample(&mut rng), 0);
        assert!((z.pmf(0) - 1.0).abs() < 1e-12);
    }
}
