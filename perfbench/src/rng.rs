//! The benchmark's own seeded generator: SplitMix64 for uniform draws,
//! Fisher–Yates for permutations, and YCSB's Zipfian sampler scrambled
//! through a seeded permutation so the hot keys are spread over the key
//! space instead of clustered at its low end.

/// SplitMix64: one `u64` of state, passes BigCrush, trivially seedable.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed: `stream` separates
    /// the prefill order, each thread's op stream and the ladder's.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64(); // decorrelate nearby seeds before the first draw
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (Lemire's multiply-shift; bias below 2^-40
    /// for the key spaces used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser, also used to derive values from keys.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniformly random permutation of `0..n`.
pub fn permutation(n: u64, rng: &mut Rng) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// YCSB's Zipfian generator (Gray et al., SIGMOD 1994) over ranks
/// `0..n`, with rank `r` mapped to key `perm[r]`.
#[derive(Clone, Debug)]
pub struct ScrambledZipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    perm: Vec<u64>,
}

impl ScrambledZipf {
    pub fn new(n: u64, theta: f64, perm: Vec<u64>) -> Self {
        assert_eq!(
            perm.len() as u64,
            n,
            "the scramble must permute the key space"
        );
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let nf = n as f64;
        ScrambledZipf {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            perm,
        }
    }

    /// Probability of the hottest key.
    #[cfg(test)]
    pub fn top_share(&self) -> f64 {
        1.0 / self.zetan
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.perm.len() as u64 - 1)
        };
        self.perm[rank as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(1000, &mut Rng::new(7, 0));
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_hottest_key_gets_about_eight_percent() {
        let n = 1 << 16;
        let z = ScrambledZipf::new(n, 0.99, permutation(n, &mut Rng::new(1, 1)));
        assert!((0.07..0.09).contains(&z.top_share()), "{}", z.top_share());
        let mut rng = Rng::new(1, 2);
        let hot = z.perm[0];
        let hits = (0..100_000).filter(|_| z.sample(&mut rng) == hot).count();
        assert!(
            (6_000..10_000).contains(&hits),
            "hottest key drawn {hits} times"
        );
    }
}
