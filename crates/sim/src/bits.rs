//! Biased random bit generation for 64-lane parallel simulation.
//!
//! The sampling backends need, for every biased input and every 64-pattern
//! block, a word whose bits are independent Bernoulli(p) draws. Generating these
//! bit-by-bit would dominate the runtime, so [`BiasedBits`] uses the classic
//! binary-expansion construction: writing `p = 0.b₁b₂…b_k` in binary and
//! folding fresh uniform words `u_t` from the least significant digit up,
//!
//! ```text
//! r ← 0;  for t = k..1:  r ← if b_t { u_t | r } else { u_t & r }
//! ```
//!
//! yields `P(bit set) = Σ b_t 2^-t = p` exactly (to the chosen resolution),
//! at a cost of one RNG word per digit.

use rand::RngCore;

/// Default resolution (binary digits of `p`) used by the Monte Carlo engine.
pub const DEFAULT_RESOLUTION: u32 = 24;

/// Generator of 64-bit words whose bits are independent `Bernoulli(p)`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use relogic_sim::BiasedBits;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let gen = BiasedBits::new(0.25, 24);
/// let mut ones = 0u32;
/// for _ in 0..1024 {
///     ones += gen.next_word(&mut rng).count_ones();
/// }
/// let mean = f64::from(ones) / (1024.0 * 64.0);
/// assert!((mean - 0.25).abs() < 0.02);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BiasedBits {
    /// `p` quantized to `resolution` binary digits, stored as an integer in
    /// `[0, 2^resolution]`.
    quantized: u64,
    resolution: u32,
}

impl BiasedBits {
    /// Creates a generator for probability `p`, quantized to `resolution`
    /// binary digits (1 ..= 32).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or `resolution` is out of range.
    #[must_use]
    pub fn new(p: f64, resolution: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        assert!(
            (1..=32).contains(&resolution),
            "resolution {resolution} out of 1..=32"
        );
        let scale = f64::from(u32::try_from(1u64 << resolution).unwrap_or(u32::MAX));
        let scale = if resolution == 32 {
            4_294_967_296.0
        } else {
            scale
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let quantized = (p * scale).round() as u64;
        BiasedBits {
            quantized,
            resolution,
        }
    }

    /// `p` quantized to `resolution` binary digits, as an integer in
    /// `[0, 2^resolution]`. The tape executor reuses this so its fault
    /// masks realize the same quantized probability as
    /// [`BiasedBits::next_word`].
    pub(crate) fn quantized(&self) -> u64 {
        self.quantized
    }

    /// The probability actually realized after quantization.
    #[must_use]
    pub fn effective_probability(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let q = self.quantized as f64;
        q / f64::from(self.resolution).exp2()
    }

    /// Draws one 64-lane biased word.
    #[inline]
    pub fn next_word<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.quantized == 0 {
            return 0;
        }
        if self.quantized >= 1u64 << self.resolution {
            return u64::MAX;
        }
        // Skip trailing zero digits of the quantized probability: they only
        // AND in uniform words below every set digit, which is equivalent to
        // starting the fold at the lowest set digit.
        let tz = self.quantized.trailing_zeros();
        let mut r = rng.next_u64();
        for t in (tz + 1)..self.resolution {
            let u = rng.next_u64();
            r = if self.quantized >> t & 1 == 1 {
                u | r
            } else {
                u & r
            };
        }
        r
    }
}

/// Statistical helpers for Monte Carlo estimates.
pub mod stats {
    /// Standard error of an estimated proportion `p` from `n` samples.
    #[must_use]
    pub fn proportion_std_error(p: f64, n: u64) -> f64 {
        if n == 0 {
            return f64::NAN;
        }
        #[allow(clippy::cast_precision_loss)]
        let nf = n as f64;
        (p.clamp(0.0, 1.0) * (1.0 - p.clamp(0.0, 1.0)) / nf).sqrt()
    }

    /// Half-width of the ~95% normal-approximation confidence interval.
    #[must_use]
    pub fn ci95_half_width(p: f64, n: u64) -> f64 {
        1.96 * proportion_std_error(p, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn measured_mean(p: f64, resolution: u32, words: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(0xDEADBEEF);
        let gen = BiasedBits::new(p, resolution);
        let ones: u64 = (0..words)
            .map(|_| u64::from(gen.next_word(&mut rng).count_ones()))
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let total = (words * 64) as f64;
        #[allow(clippy::cast_precision_loss)]
        let ones = ones as f64;
        ones / total
    }

    #[test]
    fn extremes_are_exact() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(BiasedBits::new(0.0, 24).next_word(&mut rng), 0);
        assert_eq!(BiasedBits::new(1.0, 24).next_word(&mut rng), u64::MAX);
    }

    #[test]
    fn dyadic_probabilities_have_no_quantization_error() {
        for &(p, res) in &[(0.5, 8), (0.25, 8), (0.125, 24), (0.75, 4)] {
            let gen = BiasedBits::new(p, res);
            assert!((gen.effective_probability() - p).abs() < 1e-15, "{p}");
        }
    }

    #[test]
    fn means_converge_for_various_probabilities() {
        for &p in &[0.05, 0.1, 0.3, 0.5, 0.7, 0.95] {
            let mean = measured_mean(p, 24, 20_000);
            assert!((mean - p).abs() < 0.005, "p={p} measured mean {mean}");
        }
    }

    #[test]
    fn low_resolution_quantizes_visibly() {
        let gen = BiasedBits::new(0.3, 2);
        // 0.3 * 4 rounds to 1 -> effective 0.25
        assert!((gen.effective_probability() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn lanes_are_independent_ish() {
        // Check adjacent-lane correlation is near zero for p = 0.5.
        let mut rng = SmallRng::seed_from_u64(3);
        let gen = BiasedBits::new(0.5, 24);
        let mut both = 0u64;
        let mut n = 0u64;
        for _ in 0..10_000 {
            let w = gen.next_word(&mut rng);
            both += (w & (w >> 1) & 0x7FFF_FFFF_FFFF_FFFF).count_ones() as u64;
            n += 63;
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = both as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "pairwise rate {rate}");
    }

    #[test]
    fn stats_helpers() {
        let se = stats::proportion_std_error(0.5, 10_000);
        assert!((se - 0.005).abs() < 1e-12);
        assert!(stats::ci95_half_width(0.5, 10_000) > se);
        assert!(stats::proportion_std_error(0.5, 0).is_nan());
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn invalid_probability_panics() {
        let _ = BiasedBits::new(1.5, 24);
    }
}
