//! Critical-ε exploration: deterministic bisection for the uniform gate
//! error rate at which output error δ crosses a threshold.
//!
//! Runs entirely on the compiled [`SweepTape`], whose point evaluation is
//! bit-identical across thread counts, so the bisection trace — and the
//! final bracket — is reproducible to the last bit on any machine. The
//! closed form δ(ε) is monotone non-decreasing in a uniform ε, which is
//! what makes bisection the right tool; the search still converges to a
//! crossing of the final bracket even where the tape's δ is only
//! approximately monotone.

use relogic::{CancelToken, GateEps, RelogicError, SweepTape};
use relogic_netlist::Circuit;

/// Default bisection depth. 60 halvings of `[0, ½]` put the bracket width
/// below the f64 ulp around any critical point, so the default always runs
/// to the fixed point where the midpoint stops moving.
pub const DEFAULT_BISECTION_STEPS: usize = 60;

/// Which summary of the per-output δ vector the threshold applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CriticalMetric {
    /// The worst (largest) per-output δ.
    Max,
    /// The arithmetic mean over all outputs.
    Mean,
}

impl CriticalMetric {
    /// Stable lower-case name used on the CLI and serve wire surfaces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CriticalMetric::Max => "max",
            CriticalMetric::Mean => "mean",
        }
    }

    /// Parses the wire name accepted by [`CriticalMetric::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "max" => Some(CriticalMetric::Max),
            "mean" => Some(CriticalMetric::Mean),
            _ => None,
        }
    }

    fn apply(self, per_output: &[f64]) -> f64 {
        match self {
            CriticalMetric::Max => per_output.iter().fold(0.0f64, |a, &d| a.max(d)),
            CriticalMetric::Mean => {
                let n = per_output.len().max(1);
                per_output.iter().sum::<f64>() / n as f64
            }
        }
    }
}

/// The outcome of a [`critical_eps`] search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CriticalEpsReport {
    /// The δ summary the threshold was applied to.
    pub metric: CriticalMetric,
    /// The δ threshold searched for.
    pub threshold: f64,
    /// Whether δ crosses the threshold anywhere in `ε ∈ [0, ½]`.
    pub crossed: bool,
    /// The smallest bracketed ε at which δ ≥ threshold (the bracket's
    /// upper edge), or `None` when δ never reaches the threshold.
    pub critical: Option<f64>,
    /// Final bracket lower edge: δ(`lo`) < threshold (unless the circuit
    /// crosses already at ε = 0).
    pub lo: f64,
    /// Final bracket upper edge: δ(`hi`) ≥ threshold when `crossed`.
    pub hi: f64,
    /// δ at the final `lo`.
    pub delta_lo: f64,
    /// δ at the final `hi`.
    pub delta_hi: f64,
    /// Bisection steps actually taken (0 when the endpoints already
    /// decide the answer).
    pub steps: usize,
}

/// Bisects `ε ∈ [0, ½]` for the smallest gate error rate at which the
/// tape's output error δ — summarized by `metric` — reaches `threshold`.
///
/// `max_steps = 0` selects [`DEFAULT_BISECTION_STEPS`]. A δ that never
/// reaches the threshold is a valid answer (`crossed = false`,
/// `critical = None`), not an error.
///
/// Deterministic: the evaluation sequence is a pure function of the
/// circuit, tape, metric, and threshold, and each tape point is
/// bit-identical across thread counts.
///
/// # Errors
///
/// [`RelogicError::NumericRange`] if `threshold` is not a finite value in
/// `(0, ½)`; any tape evaluation error is passed through.
pub fn critical_eps(
    circuit: &Circuit,
    tape: &SweepTape,
    metric: CriticalMetric,
    threshold: f64,
    max_steps: usize,
) -> Result<CriticalEpsReport, RelogicError> {
    let never = CancelToken::new();
    critical_eps_cancellable(circuit, tape, metric, threshold, max_steps, &never)
}

/// Like [`critical_eps`], checking `cancel` before every tape point
/// evaluation (each bisection step is one point). A search that completes
/// before the token fires returns a report bit-identical to an
/// uncancelled search.
///
/// # Errors
///
/// [`RelogicError::Cancelled`] once the token fires, otherwise as
/// [`critical_eps`].
pub fn critical_eps_cancellable(
    circuit: &Circuit,
    tape: &SweepTape,
    metric: CriticalMetric,
    threshold: f64,
    max_steps: usize,
    cancel: &CancelToken,
) -> Result<CriticalEpsReport, RelogicError> {
    if !threshold.is_finite() || threshold <= 0.0 || threshold >= 0.5 {
        return Err(RelogicError::NumericRange {
            context: "critical-eps threshold",
            value: threshold,
            lo: 0.0,
            hi: 0.5,
        });
    }
    let max_steps = if max_steps == 0 {
        DEFAULT_BISECTION_STEPS
    } else {
        max_steps
    };
    let eval = |e: f64| -> Result<f64, RelogicError> {
        cancel.check("critical_step")?;
        let point = tape.try_run_point(&GateEps::try_uniform(circuit, e)?)?;
        Ok(metric.apply(point.per_output()))
    };

    let (mut lo, mut hi) = (0.0f64, 0.5f64);
    let mut delta_lo = eval(lo)?;
    let mut delta_hi = eval(hi)?;
    let done = |crossed: bool, critical: Option<f64>, lo, hi, delta_lo, delta_hi, steps| {
        CriticalEpsReport {
            metric,
            threshold,
            crossed,
            critical,
            lo,
            hi,
            delta_lo,
            delta_hi,
            steps,
        }
    };
    if delta_hi < threshold {
        return Ok(done(false, None, lo, hi, delta_lo, delta_hi, 0));
    }
    if delta_lo >= threshold {
        return Ok(done(true, Some(0.0), lo, hi, delta_lo, delta_hi, 0));
    }

    let mut steps = 0usize;
    while steps < max_steps {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        let delta_mid = eval(mid)?;
        if delta_mid >= threshold {
            hi = mid;
            delta_hi = delta_mid;
        } else {
            lo = mid;
            delta_lo = delta_mid;
        }
        steps += 1;
    }
    Ok(done(true, Some(hi), lo, hi, delta_lo, delta_hi, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic::{Backend, InputDistribution, Weights};

    fn xor_chain(len: usize) -> Circuit {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let mut cur = c.xor([a, b]);
        for _ in 1..len {
            cur = c.xor([cur, b]);
        }
        c.add_output("y", cur);
        c
    }

    fn tape_for(c: &Circuit) -> SweepTape {
        let w = Weights::try_compute(c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        SweepTape::try_new(c, &w).unwrap()
    }

    #[test]
    fn finds_the_analytic_crossing_of_a_xor_chain() {
        // A chain of k noisy XORs has δ(ε) = ½(1 − (1 − 2ε)^k): every
        // gate is fully observable. Invert for the exact critical ε.
        let k = 5;
        let c = xor_chain(k);
        let tape = tape_for(&c);
        let threshold = 0.2f64;
        let expected = 0.5 * (1.0 - (1.0 - 2.0 * threshold).powf(1.0 / k as f64));
        let report = critical_eps(&c, &tape, CriticalMetric::Max, threshold, 0).unwrap();
        assert!(report.crossed);
        let critical = report.critical.unwrap();
        assert!(
            (critical - expected).abs() < 1e-9,
            "critical {critical} vs analytic {expected}"
        );
        assert!(report.delta_hi >= threshold && report.delta_lo < threshold);
        assert!(report.hi - report.lo < 1e-9);
    }

    #[test]
    fn non_crossing_is_a_valid_answer() {
        // One output is a bare (noise-free) input, the other a noisy XOR:
        // the mean δ caps at ¼ even at ε = ½, so a 0.3 threshold is never
        // reached — a valid answer, not an error.
        let mut c = Circuit::new("mixed");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.xor([a, b]);
        c.add_output("clean", a);
        c.add_output("noisy", g);
        let tape = tape_for(&c);
        let report = critical_eps(&c, &tape, CriticalMetric::Mean, 0.3, 0).unwrap();
        assert!(!report.crossed);
        assert_eq!(report.critical, None);
        assert!(report.delta_hi < 0.3, "mean δ(½) = {}", report.delta_hi);
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn mean_and_max_agree_on_single_output() {
        let c = xor_chain(3);
        let tape = tape_for(&c);
        let a = critical_eps(&c, &tape, CriticalMetric::Max, 0.1, 0).unwrap();
        let b = critical_eps(&c, &tape, CriticalMetric::Mean, 0.1, 0).unwrap();
        assert_eq!(a.critical, b.critical);
    }

    #[test]
    fn bisection_is_bit_deterministic_across_repeats() {
        let c = xor_chain(4);
        let tape = tape_for(&c);
        let a = critical_eps(&c, &tape, CriticalMetric::Max, 0.15, 0).unwrap();
        let b = critical_eps(&c, &tape, CriticalMetric::Max, 0.15, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.critical.map(f64::to_bits), b.critical.map(f64::to_bits));
    }

    #[test]
    fn step_cap_bounds_the_work() {
        let c = xor_chain(4);
        let tape = tape_for(&c);
        let report = critical_eps(&c, &tape, CriticalMetric::Max, 0.15, 8).unwrap();
        assert_eq!(report.steps, 8);
        assert!(report.hi - report.lo <= 0.5 / 256.0 + 1e-15);
    }

    #[test]
    fn cancelled_search_returns_typed_error_and_completed_search_is_identical() {
        let c = xor_chain(4);
        let tape = tape_for(&c);
        let fired = CancelToken::new();
        fired.cancel();
        let err =
            critical_eps_cancellable(&c, &tape, CriticalMetric::Max, 0.15, 0, &fired).unwrap_err();
        assert!(matches!(err, RelogicError::Cancelled(_)), "{err}");
        let plain = critical_eps(&c, &tape, CriticalMetric::Max, 0.15, 0).unwrap();
        let generous = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let under =
            critical_eps_cancellable(&c, &tape, CriticalMetric::Max, 0.15, 0, &generous).unwrap();
        assert_eq!(plain, under);
        assert_eq!(
            plain.critical.map(f64::to_bits),
            under.critical.map(f64::to_bits)
        );
    }

    #[test]
    fn rejects_out_of_range_thresholds() {
        let c = xor_chain(2);
        let tape = tape_for(&c);
        for bad in [0.0, -0.1, 0.5, 0.7, f64::NAN] {
            let err = critical_eps(&c, &tape, CriticalMetric::Max, bad, 0).unwrap_err();
            assert!(matches!(err, RelogicError::NumericRange { .. }), "{bad}");
        }
    }
}
