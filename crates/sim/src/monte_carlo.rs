//! Monte Carlo fault-injection reliability estimation — the paper's
//! reference method.
//!
//! Every node `i` (gate or primary input) is a binary symmetric channel
//! that flips its computed value with probability `ε_i`, independently per
//! pattern. Reliability `δ_y(ε⃗)` of output `y` is estimated as the fraction
//! of sampled patterns on which the noisy circuit's value of `y` differs
//! from the fault-free value.
//!
//! Every estimate runs on the compiled instruction tape
//! ([`crate::try_estimate_tape`]): each random word is a pure function of
//! the seed and its position, so the estimate is **bit-identical for every
//! thread count** (the stream protocol is documented in `tape_exec.rs`).

use crate::tape_exec::FaultCounts;
use crate::{CircuitTape, SimError};
use relogic_netlist::Circuit;

/// Configuration for [`try_estimate`].
#[derive(Clone, Debug)]
pub struct MonteCarloConfig {
    /// Number of random input patterns (rounded up to a multiple of 64).
    pub patterns: u64,
    /// RNG seed; the same seed reproduces the same estimate exactly.
    pub seed: u64,
    /// Binary digits of resolution for the ε-biased bit generators
    /// (1 ..= 32).
    pub bit_resolution: u32,
    /// Output-index pairs whose joint error probability should be tracked.
    pub joint_pairs: Vec<(usize, usize)>,
    /// Track per-node conditional error statistics (doubles memory traffic;
    /// used to cross-validate the analytical engines).
    pub track_nodes: bool,
    /// Independent per-input signal probabilities (`None` = uniform).
    pub input_probs: Option<Vec<f64>>,
    /// Worker threads for fault injection; `0` auto-detects the machine's
    /// parallelism. The estimate is bit-identical for every value — only
    /// wall-clock time changes.
    pub threads: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            patterns: 65_536,
            seed: 0x5EED_0001,
            bit_resolution: crate::bits::DEFAULT_RESOLUTION,
            joint_pairs: Vec::new(),
            track_nodes: false,
            input_probs: None,
            threads: 0,
        }
    }
}

/// Per-node conditional error statistics gathered during fault injection.
///
/// For node `i`, `p01(i)` estimates `Pr(noisy = 1 | fault-free = 0)` and
/// `p10(i)` estimates `Pr(noisy = 0 | fault-free = 1)` — exactly the
/// quantities the single-pass algorithm propagates, so these are the ground
/// truth for validating it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeErrorStats {
    clean0: Vec<u64>,
    clean1: Vec<u64>,
    err01: Vec<u64>,
    err10: Vec<u64>,
}

impl NodeErrorStats {
    pub(crate) fn new(n: usize) -> Self {
        NodeErrorStats {
            clean0: vec![0; n],
            clean1: vec![0; n],
            err01: vec![0; n],
            err10: vec![0; n],
        }
    }

    /// Tallies one 64-pattern block of node `i`: `cw` is the fault-free
    /// word, `nw` the noisy word.
    pub(crate) fn accumulate(&mut self, i: usize, cw: u64, nw: u64) {
        let diff = cw ^ nw;
        self.clean1[i] += u64::from(cw.count_ones());
        self.clean0[i] += u64::from(cw.count_zeros());
        self.err01[i] += u64::from((diff & !cw).count_ones());
        self.err10[i] += u64::from((diff & cw).count_ones());
    }

    /// Adds another tally into this one.
    pub(crate) fn merge(&mut self, other: &NodeErrorStats) {
        debug_assert_eq!(self.clean0.len(), other.clean0.len());
        for (a, b) in self.clean0.iter_mut().zip(&other.clean0) {
            *a += b;
        }
        for (a, b) in self.clean1.iter_mut().zip(&other.clean1) {
            *a += b;
        }
        for (a, b) in self.err01.iter_mut().zip(&other.err01) {
            *a += b;
        }
        for (a, b) in self.err10.iter_mut().zip(&other.err10) {
            *a += b;
        }
    }

    /// Estimated `Pr(0→1 error | fault-free value 0)` at node `i`
    /// (`NaN` if the fault-free value is never 0).
    #[must_use]
    pub fn p01(&self, i: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.clean0[i] == 0 {
            f64::NAN
        } else {
            self.err01[i] as f64 / self.clean0[i] as f64
        }
    }

    /// Estimated `Pr(1→0 error | fault-free value 1)` at node `i`
    /// (`NaN` if the fault-free value is never 1).
    #[must_use]
    pub fn p10(&self, i: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.clean1[i] == 0 {
            f64::NAN
        } else {
            self.err10[i] as f64 / self.clean1[i] as f64
        }
    }

    /// Estimated fault-free signal probability `Pr(node = 1)`.
    #[must_use]
    pub fn signal_probability(&self, i: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.clean1[i] as f64 / (self.clean0[i] + self.clean1[i]) as f64
        }
    }

    /// Unconditional error probability at node `i`.
    #[must_use]
    pub fn error_probability(&self, i: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            (self.err01[i] + self.err10[i]) as f64 / (self.clean0[i] + self.clean1[i]) as f64
        }
    }
}

/// Result of a Monte Carlo reliability run.
#[derive(Clone, Debug, PartialEq)]
pub struct ReliabilityEstimate {
    patterns: u64,
    per_output: Vec<f64>,
    any_output: f64,
    joint: Vec<((usize, usize), f64)>,
    node_stats: Option<NodeErrorStats>,
}

impl ReliabilityEstimate {
    /// Number of patterns actually simulated.
    #[must_use]
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Estimated `δ_y` for each primary output, in declaration order.
    #[must_use]
    pub fn per_output(&self) -> &[f64] {
        &self.per_output
    }

    /// Estimated probability that *at least one* output is in error — the
    /// paper's "consolidated output error".
    #[must_use]
    pub fn any_output(&self) -> f64 {
        self.any_output
    }

    /// Joint error probability for a tracked output pair, if it was
    /// requested in [`MonteCarloConfig::joint_pairs`].
    #[must_use]
    pub fn joint(&self, a: usize, b: usize) -> Option<f64> {
        let key = (a.min(b), a.max(b));
        self.joint.iter().find(|(k, _)| *k == key).map(|&(_, p)| p)
    }

    /// Per-node conditional error statistics, if tracking was enabled.
    #[must_use]
    pub fn node_stats(&self) -> Option<&NodeErrorStats> {
        self.node_stats.as_ref()
    }

    /// Standard error of the `δ` estimate for output `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range. Estimates produced by
    /// [`try_estimate`] always carry a nonzero pattern count, so the value
    /// is finite.
    #[must_use]
    pub fn std_error(&self, k: usize) -> f64 {
        crate::bits::stats::proportion_std_error(self.per_output[k], self.patterns)
    }
}

/// Runs Monte Carlo fault injection on `circuit`.
///
/// `node_eps[i]` is the BSC crossover probability of node `i` (use 0 for
/// noise-free nodes; primary inputs may be given nonzero values to model
/// noisy inputs).
///
/// Fault injection runs on a freshly compiled [`CircuitTape`] with
/// [`MonteCarloConfig::threads`] worker threads; for a fixed `(seed,
/// patterns)` pair the estimate is bit-identical regardless of the thread
/// count.
///
/// Validates the ε vector, the joint-pair indices, and the pattern budget
/// up front, returning a typed [`SimError`] for invalid input.
///
/// # Errors
///
/// * [`SimError::ZeroPatternBudget`] — `config.patterns == 0` (the estimate
///   would be `0/0`).
/// * [`SimError::EpsLengthMismatch`] — `node_eps` does not cover the
///   circuit.
/// * [`SimError::InvalidEpsilon`] — an ε entry is non-finite or outside
///   `[0, 1]`.
/// * [`SimError::JointPairOutOfRange`] — a tracked pair names a
///   nonexistent output.
/// * [`SimError::InputProbsMismatch`] — `config.input_probs` does not cover
///   the circuit's inputs.
/// * [`SimError::InvalidInputProbability`] — an input bias is non-finite or
///   outside `[0, 1]`.
/// * [`SimError::InvalidBitResolution`] — `config.bit_resolution` is
///   outside `1 ..= 32`.
///
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic_sim::{try_estimate, MonteCarloConfig};
///
/// let mut c = Circuit::new("inv");
/// let a = c.add_input("a");
/// let g = c.not(a);
/// c.add_output("y", g);
///
/// // Only the inverter is noisy: δ must equal ε exactly (in expectation).
/// let eps = vec![0.0, 0.1];
/// let r = try_estimate(&c, &eps, &MonteCarloConfig::default())?;
/// assert!((r.per_output()[0] - 0.1).abs() < 0.01);
/// # Ok::<(), relogic_sim::SimError>(())
/// ```
pub fn try_estimate(
    circuit: &Circuit,
    node_eps: &[f64],
    config: &MonteCarloConfig,
) -> Result<ReliabilityEstimate, SimError> {
    crate::try_estimate_tape(
        circuit,
        &CircuitTape::compile(circuit),
        node_eps,
        config,
        &crate::CancelToken::new(),
    )
}

/// Up-front validation of a Monte Carlo run: checks the pattern budget,
/// the ε vector, the joint-pair indices, the input-bias vector, and the
/// bit resolution, returning the output node indices in declaration order.
pub(crate) fn validate_run(
    circuit: &Circuit,
    node_eps: &[f64],
    config: &MonteCarloConfig,
) -> Result<Vec<usize>, SimError> {
    if config.patterns == 0 {
        return Err(SimError::ZeroPatternBudget);
    }
    if node_eps.len() != circuit.len() {
        return Err(SimError::EpsLengthMismatch {
            expected: circuit.len(),
            actual: node_eps.len(),
        });
    }
    for (i, &e) in node_eps.iter().enumerate() {
        if !e.is_finite() || !(0.0..=1.0).contains(&e) {
            return Err(SimError::InvalidEpsilon { index: i, value: e });
        }
    }
    let outputs: Vec<usize> = circuit.outputs().iter().map(|o| o.node().index()).collect();
    for &(a, b) in &config.joint_pairs {
        if a >= outputs.len() || b >= outputs.len() {
            return Err(SimError::JointPairOutOfRange {
                a,
                b,
                outputs: outputs.len(),
            });
        }
    }
    if let Some(p) = &config.input_probs {
        if p.len() != circuit.input_count() {
            return Err(SimError::InputProbsMismatch {
                expected: circuit.input_count(),
                actual: p.len(),
            });
        }
        for (i, &v) in p.iter().enumerate() {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SimError::InvalidInputProbability { index: i, value: v });
            }
        }
    }
    if !(1..=32).contains(&config.bit_resolution) {
        return Err(SimError::InvalidBitResolution {
            resolution: config.bit_resolution,
        });
    }
    Ok(outputs)
}

/// Turns merged integer tallies into the final probability estimate.
pub(crate) fn finalize_counts(
    total: u64,
    counts: FaultCounts,
    joint_pairs: &[(usize, usize)],
) -> ReliabilityEstimate {
    #[allow(clippy::cast_precision_loss)]
    let tf = total as f64;
    #[allow(clippy::cast_precision_loss)]
    let per_output: Vec<f64> = counts.out_err.iter().map(|&c| c as f64 / tf).collect();
    #[allow(clippy::cast_precision_loss)]
    let joint: Vec<((usize, usize), f64)> = joint_pairs
        .iter()
        .zip(&counts.joint_err)
        .map(|(&(a, b), &c)| ((a.min(b), a.max(b)), c as f64 / tf))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let any_output = counts.any_err as f64 / tf;

    ReliabilityEstimate {
        patterns: total,
        per_output,
        any_output,
        joint,
        node_stats: counts.node_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_eps(circuit: &Circuit, eps: f64) -> Vec<f64> {
        circuit
            .iter()
            .map(|(_, n)| if n.kind().is_gate() { eps } else { 0.0 })
            .collect()
    }

    #[test]
    fn single_noisy_inverter_matches_epsilon() {
        let mut c = Circuit::new("inv");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let r = try_estimate(&c, &[0.0, 0.2], &MonteCarloConfig::default()).unwrap();
        assert!(
            (r.per_output()[0] - 0.2).abs() < 0.01,
            "{}",
            r.per_output()[0]
        );
        assert!((r.any_output() - 0.2).abs() < 0.01);
    }

    #[test]
    fn chain_of_inverters_composes_errors() {
        // Two noisy inverters in series: output errs iff exactly one flips:
        // δ = 2ε(1-ε).
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let g1 = c.not(a);
        let g2 = c.not(g1);
        c.add_output("y", g2);
        let eps = 0.1;
        let r = try_estimate(&c, &[0.0, eps, eps], &MonteCarloConfig::default()).unwrap();
        let expect = 2.0 * eps * (1.0 - eps);
        assert!(
            (r.per_output()[0] - expect).abs() < 0.01,
            "{} vs {expect}",
            r.per_output()[0]
        );
    }

    #[test]
    fn noise_free_circuit_never_errs() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let r = try_estimate(&c, &uniform_eps(&c, 0.0), &MonteCarloConfig::default()).unwrap();
        assert_eq!(r.per_output()[0], 0.0);
        assert_eq!(r.any_output(), 0.0);
    }

    #[test]
    fn estimates_are_reproducible_by_seed() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.nand([a, b]);
        c.add_output("y", g);
        let eps = uniform_eps(&c, 0.15);
        let cfg = MonteCarloConfig {
            patterns: 4096,
            ..MonteCarloConfig::default()
        };
        let r1 = try_estimate(&c, &eps, &cfg).unwrap();
        let r2 = try_estimate(&c, &eps, &cfg).unwrap();
        assert_eq!(r1.per_output(), r2.per_output());
        assert_eq!(r1.patterns(), 4096);
    }

    #[test]
    fn joint_pairs_track_correlated_outputs() {
        // Two outputs of the same noisy gate err together always.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y1", g);
        c.add_output("y2", g);
        let cfg = MonteCarloConfig {
            joint_pairs: vec![(0, 1)],
            ..MonteCarloConfig::default()
        };
        let r = try_estimate(&c, &[0.0, 0.25], &cfg).unwrap();
        let j = r.joint(0, 1).unwrap();
        assert!((j - r.per_output()[0]).abs() < 1e-12);
        assert!(r.joint(1, 0).is_some(), "pair lookup is order-insensitive");
        assert!(r.joint(0, 0).is_none());
    }

    #[test]
    fn node_stats_match_closed_form_for_and_gate() {
        // AND gate with only itself noisy: p01 = p10 = ε by the BSC model.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let cfg = MonteCarloConfig {
            track_nodes: true,
            patterns: 1 << 17,
            ..MonteCarloConfig::default()
        };
        let r = try_estimate(&c, &[0.0, 0.0, 0.3], &cfg).unwrap();
        let stats = r.node_stats().unwrap();
        assert!((stats.p01(g.index()) - 0.3).abs() < 0.01);
        assert!((stats.p10(g.index()) - 0.3).abs() < 0.01);
        assert!((stats.signal_probability(g.index()) - 0.25).abs() < 0.01);
        // Unconditional error probability is ε regardless of signal prob.
        assert!((stats.error_probability(g.index()) - 0.3).abs() < 0.01);
    }

    #[test]
    fn noisy_inputs_are_supported() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.buf(a);
        c.add_output("y", g);
        let r = try_estimate(&c, &[0.1, 0.0], &MonteCarloConfig::default()).unwrap();
        assert!((r.per_output()[0] - 0.1).abs() < 0.01);
    }

    #[test]
    fn wrong_eps_length_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        c.add_output("y", a);
        let err = try_estimate(&c, &[0.0, 0.0], &MonteCarloConfig::default()).unwrap_err();
        assert!(err.to_string().contains("need one ε per node"), "{err}");
    }

    #[test]
    fn try_estimate_returns_typed_errors() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        // Zero pattern budget.
        let cfg = MonteCarloConfig {
            patterns: 0,
            ..MonteCarloConfig::default()
        };
        assert_eq!(
            try_estimate(&c, &[0.0, 0.1], &cfg),
            Err(SimError::ZeroPatternBudget)
        );
        // Length mismatch.
        assert_eq!(
            try_estimate(&c, &[0.0], &MonteCarloConfig::default()),
            Err(SimError::EpsLengthMismatch {
                expected: 2,
                actual: 1
            })
        );
        // Non-finite and out-of-range ε.
        assert!(matches!(
            try_estimate(&c, &[0.0, f64::NAN], &MonteCarloConfig::default()),
            Err(SimError::InvalidEpsilon { index: 1, .. })
        ));
        assert!(matches!(
            try_estimate(&c, &[-0.1, 0.0], &MonteCarloConfig::default()),
            Err(SimError::InvalidEpsilon { index: 0, .. })
        ));
        // Bad joint pair.
        let cfg = MonteCarloConfig {
            joint_pairs: vec![(0, 7)],
            ..MonteCarloConfig::default()
        };
        assert!(matches!(
            try_estimate(&c, &[0.0, 0.1], &cfg),
            Err(SimError::JointPairOutOfRange { b: 7, .. })
        ));
        // Bad input-bias vector.
        let cfg = MonteCarloConfig {
            input_probs: Some(vec![0.5, 0.5]),
            ..MonteCarloConfig::default()
        };
        assert!(matches!(
            try_estimate(&c, &[0.0, 0.1], &cfg),
            Err(SimError::InputProbsMismatch { .. })
        ));
        // A valid configuration still works.
        let r = try_estimate(&c, &[0.0, 0.2], &MonteCarloConfig::default()).unwrap();
        assert!((r.per_output()[0] - 0.2).abs() < 0.01);
    }

    #[test]
    fn bad_input_bias_and_resolution_are_typed_errors() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        for bad in [1.5, -0.25, f64::NAN, f64::INFINITY] {
            let cfg = MonteCarloConfig {
                input_probs: Some(vec![bad]),
                ..MonteCarloConfig::default()
            };
            let err = try_estimate(&c, &[0.0, 0.1], &cfg).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidInputProbability { index: 0, value } if value.to_bits() == bad.to_bits()),
                "{bad}: {err:?}"
            );
        }
        for resolution in [0, 33] {
            let cfg = MonteCarloConfig {
                bit_resolution: resolution,
                ..MonteCarloConfig::default()
            };
            assert_eq!(
                try_estimate(&c, &[0.0, 0.1], &cfg),
                Err(SimError::InvalidBitResolution { resolution })
            );
        }
    }

    #[test]
    fn std_error_shrinks_with_patterns() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let small = try_estimate(
            &c,
            &[0.0, 0.3],
            &MonteCarloConfig {
                patterns: 1024,
                ..MonteCarloConfig::default()
            },
        )
        .unwrap();
        let large = try_estimate(
            &c,
            &[0.0, 0.3],
            &MonteCarloConfig {
                patterns: 1 << 16,
                ..MonteCarloConfig::default()
            },
        )
        .unwrap();
        assert!(large.std_error(0) < small.std_error(0));
    }
}
