//! Deterministic, portable pseudo-random number generation.
//!
//! §4.4 of the paper: *"Because of our primary reliance on randomization and
//! deterministic procedures in the construction of the PCR-compatible index
//! tree, we do not need to store the tree. We only need to remember the seed
//! used for the randomization of its construction."*
//!
//! That design constraint means the generator must be **bit-for-bit stable
//! forever** — a library upgrade must never silently re-shuffle every index
//! tree in an archive. We therefore implement the well-specified SplitMix64
//! and Xoshiro256\*\* algorithms here rather than depend on an external crate
//! whose stream may change between versions, and we pin their behaviour with
//! golden-value tests.
//!
//! [`DetRng`] also carries the handful of samplers the wetlab simulator
//! needs (Bernoulli, binomial, Poisson, normal, log-normal).

/// SplitMix64: a tiny, high-quality 64-bit generator, used for seeding and
/// for deriving independent streams (one per partition, §4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Produces the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The workhorse generator: Xoshiro256\*\* seeded via SplitMix64, with
/// simulation-oriented samplers.
///
/// # Examples
///
/// ```
/// use dna_seq::rng::DetRng;
///
/// let mut a = DetRng::seed_from_u64(42);
/// let mut b = DetRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
///
/// let mut rng = DetRng::seed_from_u64(7);
/// let x = rng.gen_range(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seeds the generator from a single `u64` by expanding it through
    /// SplitMix64 (the canonical Xoshiro seeding procedure).
    pub fn seed_from_u64(seed: u64) -> DetRng {
        let mut sm = SplitMix64::new(seed);
        DetRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Derives an independent child generator identified by `stream`.
    ///
    /// Used to give every partition / experiment phase its own stream from a
    /// single archive-level seed without correlated output.
    pub fn derive(&self, stream: u64) -> DetRng {
        // Hash the full state with the stream id through SplitMix64.
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.s[2].rotate_left(17))
                ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        DetRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the raw Xoshiro256\*\* state, for persistence.
    ///
    /// A store image must capture generators mid-stream so that a restored
    /// archive continues the *same* random sequence (§4.4 demands the tree
    /// be re-derivable from the seed; shard RNGs additionally advance with
    /// every operation, so their live state is part of the image).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`DetRng::state`].
    ///
    /// The resulting generator continues the exact stream the captured one
    /// would have produced.
    pub fn from_state(s: [u64; 4]) -> DetRng {
        DetRng { s }
    }

    /// Produces the next 64-bit output (Xoshiro256\*\*).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range requires n > 0");
        // Multiply-shift with rejection (Lemire).
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_between(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "gen_range_between requires lo < hi");
        lo + self.gen_range(hi - lo)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i + 1);
            slice.swap(i, j);
        }
    }

    /// Standard normal via Box–Muller (one value per call; the sibling value
    /// is discarded to keep state evolution simple and reproducible).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Avoid ln(0).
        let u1 = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u1 = if u1 <= f64::MIN_POSITIVE {
            f64::MIN_POSITIVE
        } else {
            u1
        };
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal sample: `exp(N(mu, sigma))`.
    ///
    /// The synthesis simulator uses this for per-molecule copy-number skew —
    /// Fig. 9a shows copy counts uniform "within 2×", which corresponds to a
    /// small sigma.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Binomial sample: number of successes in `n` trials of probability `p`.
    ///
    /// Exact inversion for small `n·p`, normal approximation for large.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mean = n as f64 * p;
        if n <= 64 {
            // Direct simulation.
            let mut k = 0;
            for _ in 0..n {
                if self.gen_bool(p) {
                    k += 1;
                }
            }
            return k;
        }
        if mean < 12.0 || n as f64 * (1.0 - p) < 12.0 {
            // Inversion on the smaller tail via Poisson-like geometric walk
            // would be intricate; direct per-trial simulation is fine up to a
            // few thousand trials which covers our use.
            if n <= 8192 {
                let mut k = 0;
                for _ in 0..n {
                    if self.gen_bool(p) {
                        k += 1;
                    }
                }
                return k;
            }
        }
        // Normal approximation with continuity correction.
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let x = self.normal(mean, sd).round();
        x.clamp(0.0, n as f64) as u64
    }

    /// Poisson sample with rate `lambda`.
    ///
    /// Knuth's product method for small `lambda`, normal approximation above
    /// 64. Used to draw per-molecule read counts at a given coverage.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 64.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
                if k > 10_000 {
                    return k; // numeric safety net
                }
            }
        }
        let x = self.normal(lambda, lambda.sqrt()).round();
        x.max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values pin the exact output stream: these must NEVER change,
    /// or archived index trees become unrecoverable (§4.4).
    #[test]
    fn splitmix64_golden_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn xoshiro_is_deterministic_and_stable() {
        let mut a = DetRng::seed_from_u64(0xDEADBEEF);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let mut b = DetRng::seed_from_u64(0xDEADBEEF);
        let second: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
        // Golden value: guards against accidental algorithm changes.
        let mut c = DetRng::seed_from_u64(0);
        let v = c.next_u64();
        assert_eq!(v, 11091344671253066420);
    }

    #[test]
    fn derive_produces_distinct_streams() {
        let root = DetRng::seed_from_u64(99);
        let mut a = root.derive(0);
        let mut b = root.derive(1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // Re-deriving the same stream reproduces it.
        let mut a2 = root.derive(0);
        let va2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        assert_eq!(va, va2);
    }

    #[test]
    fn state_roundtrip_continues_the_stream() {
        let mut a = DetRng::seed_from_u64(0x5EED);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = DetRng::from_state(a.state());
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb, "restored state must continue the same stream");
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = rng.gen_range(7);
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(6);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = DetRng::seed_from_u64(8);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-0.5));
        assert!(rng.gen_bool(1.5));
    }

    #[test]
    fn binomial_mean_is_right() {
        let mut rng = DetRng::seed_from_u64(9);
        let trials = 2000;
        let mut total = 0u64;
        for _ in 0..trials {
            total += rng.binomial(100, 0.3);
        }
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - 30.0).abs() < 1.0,
            "binomial mean {mean} should be ~30"
        );
    }

    #[test]
    fn binomial_large_n_normal_path() {
        let mut rng = DetRng::seed_from_u64(19);
        let mut total = 0u64;
        for _ in 0..200 {
            let x = rng.binomial(1_000_000, 0.25);
            assert!(x <= 1_000_000);
            total += x;
        }
        let mean = total as f64 / 200.0;
        assert!((mean - 250_000.0).abs() < 2_000.0);
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = DetRng::seed_from_u64(10);
        for lambda in [0.5, 5.0, 30.0, 200.0] {
            let trials = 2000;
            let mut total = 0u64;
            for _ in 0..trials {
                total += rng.poisson(lambda);
            }
            let mean = total as f64 / trials as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt().max(0.5) * 0.2 + 0.2,
                "poisson mean {mean} should be ~{lambda}"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::seed_from_u64(11);
        let n = 4000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal(10.0, 2.0);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.15);
        assert!((var - 4.0).abs() < 0.5);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = DetRng::seed_from_u64(12);
        for _ in 0..100 {
            assert!(rng.lognormal(0.0, 0.3) > 0.0);
        }
    }
}
