//! Exact order statistics and small numeric helpers.
//!
//! End-to-end quantiles are exact nearest-rank quantiles over every
//! timed operation of a run, never read from the telemetry histograms:
//! a histogram bucket midpoint moves in 1/16 octave steps, which alone
//! is a ~6% jump between adjacent readings.

use std::time::Instant;

/// Latency samples of one timed segment, in nanoseconds.
#[derive(Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of
    /// all samples at or below it.
    pub fn quantile(&mut self, q: f64) -> u64 {
        self.ns.sort_unstable();
        nearest_rank(&self.ns, q)
    }

    /// How many samples lie strictly above `value`.
    pub fn count_above(&self, value: u64) -> usize {
        self.ns.iter().filter(|&&x| x > value).count()
    }

    pub fn mean(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&x| x as f64).sum::<f64>() / self.ns.len() as f64
    }
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of floats (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds between two instants (0 if `b` precedes `a`).
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// SplitMix64: the benchmark's own seeded generator for event schedules
/// and sub-seeds, so its inputs depend on `--seed` and nothing else.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed derived from `seed` and a stream label.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&[7u64], 0.99), 7);
    }

    #[test]
    fn samples_quantiles_cover_every_sample() {
        let mut s = Samples::default();
        for x in (1..=1000).rev() {
            s.push(x);
        }
        assert_eq!(s.quantile(0.50), 500);
        assert_eq!(s.quantile(0.99), 990);
        assert_eq!(s.count_above(990), 10);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
