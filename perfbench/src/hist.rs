//! Log-linear latency histogram with a fraction-argument quantile.
//!
//! Buckets are exact below 128 and then 128 per power of two (under 0.8%
//! relative width). [`Hist::quantile`] takes `q` as a fraction in
//! `[0, 1]` and panics on anything else, so a percent passed by mistake
//! (`99.0` for p99) fails loudly instead of silently reading the maximum.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (e - SUB_BITS)) - SUB;
    (SUB + (e - SUB_BITS) as u64 * SUB + sub) as usize
}

/// `[lo, lo + width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The value below which a fraction `q` of the samples fall,
    /// interpolated by rank inside its bucket. `q` is a fraction:
    /// `0.5` is the median, `0.99` the 99th percentile.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]` (a percent passed where a fraction is
    /// expected).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile takes a fraction in [0, 1], got {q}"
        );
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, width) = bounds(i);
                let pos = (rank - seen) as f64 - 0.5;
                return (lo + width * pos / c as f64).min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456_789,
            u64::MAX / 3,
        ] {
            let (lo, w) = bounds(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v} not in [{lo}, +{w})"
            );
        }
    }

    #[test]
    fn p50_below_p99_below_max_on_a_spread_distribution() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let (p50, p99, max) = (h.quantile(0.5), h.quantile(0.99), h.max() as f64);
        assert!(p50 < p99 && p99 <= max, "p50 {p50} p99 {p99} max {max}");
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
    }

    #[test]
    #[should_panic(expected = "fraction in [0, 1]")]
    fn a_percent_is_rejected() {
        let mut h = Hist::default();
        h.record(1);
        h.quantile(99.0);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000);
    }
}
