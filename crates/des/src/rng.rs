//! Deterministic random-number streams.
//!
//! Every source of randomness in a simulation run derives from a single root
//! seed. Each actor (and the network fabric) receives its own *stream*,
//! derived by mixing the root seed with a stream index through SplitMix64.
//! This gives two properties the experiment harness relies on:
//!
//! * **replayability** — the same `--seed` reproduces a run bit-for-bit;
//! * **partial independence** — adding an actor does not perturb the random
//!   streams of existing actors (common random numbers across scenarios,
//!   which sharpens A/B comparisons such as SAPP vs. DCPP on "the same"
//!   network weather).

/// SplitMix64 mixing step — a high-quality 64-bit finalizer used to derive
/// stream seeds from `(root, stream)` pairs.
#[must_use]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed for stream `stream` of root seed `root`.
#[must_use]
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    // Two rounds of SplitMix64 over a mixed input; one round already passes
    // PractRand at this usage level, the second is cheap insurance against
    // related-key artefacts when (root, stream) differ in one bit.
    splitmix64(splitmix64(root ^ stream.rotate_left(32)).wrapping_add(stream))
}

/// A deterministic random stream — a self-contained xoshiro256++ generator
/// (no external crates, so the bit stream is pinned by this file alone) with
/// the distribution helpers the protocols and workloads need.
#[derive(Debug, Clone)]
pub struct StreamRng {
    state: [u64; 4],
}

impl StreamRng {
    /// Creates stream `stream` of root seed `root`.
    #[must_use]
    pub fn new(root: u64, stream: u64) -> Self {
        // Expand the derived 64-bit seed into the 256-bit xoshiro state with
        // SplitMix64, exactly as the xoshiro authors recommend.
        // splitmix64(z) computes mix(z + GOLDEN), so stepping z by GOLDEN
        // between calls reproduces the sequential SplitMix64 stream.
        let mut z = derive_seed(root, stream);
        let mut state = [0u64; 4];
        for s in &mut state {
            *s = splitmix64(z);
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        Self { state }
    }

    /// Uniform `u64` in `[0, bound)` by rejection sampling (unbiased).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        // 53 random mantissa bits — the standard uniform-double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `low >= high`.
    #[inline]
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(
            low.is_finite() && high.is_finite() && low < high,
            "bad uniform bounds"
        );
        let x = low + self.uniform01() * (high - low);
        // Guard the half-open contract against floating-point rounding.
        if x >= high {
            high.next_down().max(low)
        } else {
            x
        }
    }

    /// Uniform integer in the **inclusive** range `[low, high]` — the paper's
    /// Figure 5 workload draws the CP population size from `U{1..60}`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform_inclusive_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low <= high, "bad uniform integer bounds");
        let span = high - low;
        if span == u64::MAX {
            return self.next_u64();
        }
        low + self.below(span + 1)
    }

    /// Exponentially distributed sample with the given `rate` (λ), via
    /// inverse transform. The paper's churn workload resamples the CP
    /// population at exponentially distributed intervals with rate 0.05.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        // 1 - U in (0, 1] avoids ln(0).
        let u = 1.0 - self.uniform01();
        -u.ln() / rate
    }

    /// Bernoulli trial with success probability `p ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.uniform01() < p
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty collection");
        self.below(len as u64) as usize
    }

    /// Raw uniform `u64` (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = StreamRng::new(42, 7);
        let mut b = StreamRng::new(42, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_distinct() {
        let mut a = StreamRng::new(42, 0);
        let mut b = StreamRng::new(42, 1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent streams should not collide");
    }

    #[test]
    fn roots_are_distinct() {
        let mut a = StreamRng::new(1, 0);
        let mut b = StreamRng::new(2, 0);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_seed_avalanche() {
        // Flipping one bit of the stream index should change about half the
        // seed bits on average.
        let base = derive_seed(0xdead_beef, 5);
        let mut total = 0u32;
        for bit in 0..64 {
            let flipped = derive_seed(0xdead_beef, 5 ^ (1u64 << bit));
            total += (base ^ flipped).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((avg - 32.0).abs() < 6.0, "avalanche average {avg}");
    }

    #[test]
    fn uniform01_in_range_and_spread() {
        let mut r = StreamRng::new(9, 0);
        let mut acc = 0.0;
        for _ in 0..10_000 {
            let x = r.uniform01();
            assert!((0.0..1.0).contains(&x));
            acc += x;
        }
        let mean = acc / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut r = StreamRng::new(1, 1);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 3.5);
            assert!((2.0..3.5).contains(&x));
        }
    }

    #[test]
    fn uniform_inclusive_hits_both_ends() {
        let mut r = StreamRng::new(3, 3);
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..10_000 {
            match r.uniform_inclusive_u64(1, 60) {
                1 => saw_low = true,
                60 => saw_high = true,
                x => assert!((1..=60).contains(&x)),
            }
        }
        assert!(
            saw_low && saw_high,
            "U{{1..60}} should reach both endpoints"
        );
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = StreamRng::new(11, 0);
        let rate = 0.05; // the paper's churn rate → mean 20 s
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "exp mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let mut r = StreamRng::new(5, 5);
        for _ in 0..10_000 {
            assert!(r.exponential(10.0) >= 0.0);
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = StreamRng::new(2, 4);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = StreamRng::new(6, 0);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut r = StreamRng::new(0, 0);
        let _ = r.exponential(0.0);
    }

    #[test]
    fn index_covers_range() {
        let mut r = StreamRng::new(8, 8);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
