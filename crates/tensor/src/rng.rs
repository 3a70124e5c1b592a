//! Deterministic pseudo-random number generation.
//!
//! Every experiment in the harness is seeded, so the numbers in
//! EXPERIMENTS.md regenerate bit-for-bit. We implement xoshiro256++ (public
//! domain construction by Blackman & Vigna) seeded through SplitMix64, plus
//! the distributions the workloads need: uniform, Gaussian (Box–Muller, as
//! assumed i.i.d. N(µ,σ) in Proposition 4.2), Zipf (for the synthetic
//! language model corpus) and Fisher–Yates shuffles.

/// xoshiro256++ pseudo-random generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of Box–Muller.
    gauss_spare: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed. Different seeds give
    /// independent-looking streams; the all-zero internal state is impossible
    /// by construction.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Derive an independent child generator (for per-worker streams).
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform() as f32
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection method
    /// (unbiased).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below(0)");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (n as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box–Muller (cached pair).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with mean `mu` and standard deviation `sigma`, as `f32`.
    #[inline]
    pub fn normal(&mut self, mu: f32, sigma: f32) -> f32 {
        (mu as f64 + sigma as f64 * self.gaussian()) as f32
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s > 0`, via inverse
    /// CDF over precomputed weights. For repeated sampling prefer
    /// [`ZipfTable`].
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        ZipfTable::new(n, s).sample(self)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n);
        // Partial Fisher–Yates.
        let mut p: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            p.swap(i, j);
        }
        p.truncate(k);
        p
    }
}

/// Precomputed cumulative table for fast repeated Zipf sampling.
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build the table for ranks `0..n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> ZipfTable {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfTable { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_unbiased_small_n() {
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 5];
        let trials = 100_000;
        for _ in 0..trials {
            counts[rng.below(5)] += 1;
        }
        for &c in &counts {
            let expected = trials / 5;
            assert!(
                (c as i64 - expected as i64).abs() < (expected as f64 * 0.05) as i64,
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(11);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let z = rng.gaussian();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn zipf_monotone_frequencies() {
        let mut rng = Rng::new(5);
        let table = ZipfTable::new(50, 1.1);
        let mut counts = vec![0usize; 50];
        for _ in 0..50_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate rank 10 must dominate rank 40.
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[40]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(9);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng::new(13);
        let ks = rng.sample_indices(100, 30);
        assert_eq!(ks.len(), 30);
        let mut s = ks.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(1);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
