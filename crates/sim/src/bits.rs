//! Quantized Bernoulli probabilities for 64-lane parallel simulation.
//!
//! Every biased word the simulator draws (fault masks at ε, biased input
//! words) has independent `Bernoulli(q / 2^r)` bits, where [`BiasedBits`]
//! fixes `q = ⌊p·2^r⌉` for a probability `p` and a resolution of `r`
//! binary digits. The words themselves come from the tape executor's
//! position-addressed stream, which compares each lane's uniform `r`-digit
//! fraction with `q` digit plane by digit plane.

/// Resolution (binary digits of `p`) of every biased input word.
pub const DEFAULT_RESOLUTION: u32 = 24;

/// A probability quantized to a whole number of binary digits: the
/// probability every simulated `Bernoulli(p)` word realizes.
///
/// # Examples
///
/// ```
/// use relogic_sim::BiasedBits;
///
/// // 0.3 at two binary digits rounds to 1/4.
/// assert_eq!(BiasedBits::new(0.3, 2).effective_probability(), 0.25);
/// assert_eq!(BiasedBits::new(0.25, 24).effective_probability(), 0.25);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BiasedBits {
    /// `p` quantized to `resolution` binary digits, stored as an integer in
    /// `[0, 2^resolution]`.
    quantized: u64,
    resolution: u32,
}

impl BiasedBits {
    /// Quantizes probability `p` to `resolution` binary digits
    /// (1 ..= 32).
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
    /// `[0, 2^resolution]`: the comparison value of the tape executor's
    /// biased words.
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

    #[test]
    fn dyadic_probabilities_have_no_quantization_error() {
        for &(p, res) in &[(0.5, 8), (0.25, 8), (0.125, 24), (0.75, 4)] {
            let gen = BiasedBits::new(p, res);
            assert!((gen.effective_probability() - p).abs() < 1e-15, "{p}");
        }
    }

    #[test]
    fn low_resolution_quantizes_visibly() {
        let gen = BiasedBits::new(0.3, 2);
        // 0.3 * 4 rounds to 1 -> effective 0.25
        assert!((gen.effective_probability() - 0.25).abs() < 1e-15);
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
