//! Multi-output error consolidation.
//!
//! The paper's application studies (Figs. 5 and 8) report the *consolidated
//! output error*: the probability that **at least one** primary output is in
//! error. Output error events are correlated — both through shared logic and
//! through shared noise — so the naive `1 − Π(1 − δ_y)` is biased. Following
//! §4.1, the single-pass correlation coefficients between output signals,
//! combined with the joint fault-free value distribution of each output
//! pair, give a pairwise-corrected estimate.

use crate::exact::exact_joint_probs;
use crate::{Backend, Diagnostics, ErrorEvent, InputDistribution, RelogicError, SinglePassResult};
use relogic_netlist::{Circuit, NodeId};
use std::collections::HashMap;

/// Precomputed joint fault-free value distributions for output pairs.
///
/// Joint distributions are ε-independent, so one `Consolidator` serves an
/// entire ε sweep.
///
/// # Examples
///
/// ```
/// use relogic::{
///     consolidate::Consolidator, Backend, Diagnostics, GateEps, InputDistribution, SinglePass,
///     SinglePassOptions, Weights,
/// };
/// use relogic_netlist::Circuit;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.and([a, b]);
/// let h = c.not(g);
/// c.add_output("y1", g);
/// c.add_output("y2", h);
///
/// let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd)?;
/// let engine = SinglePass::try_new(&c, &w, SinglePassOptions::default())?;
/// let r = engine.try_run(&GateEps::try_uniform(&c, 0.1)?)?;
/// let cons = Consolidator::try_new(&c, &InputDistribution::Uniform, Backend::Bdd)?;
/// let any = cons.try_any_output_error(&r, &mut Diagnostics::new())?;
/// assert!(any >= r.per_output()[0].max(r.per_output()[1]) - 1e-9);
/// assert!(any <= r.per_output()[0] + r.per_output()[1] + 1e-9);
/// # Ok::<(), relogic::RelogicError>(())
/// ```
#[derive(Debug)]
pub struct Consolidator {
    output_nodes: Vec<NodeId>,
    /// Joint value distribution per output pair `(a, b)` with `a < b`
    /// (output indices): entry `vb << 1 | va`.
    pair_values: HashMap<(usize, usize), [f64; 4]>,
}

impl Consolidator {
    /// Builds joint value distributions for every pair of primary outputs.
    ///
    /// Cost is one symbolic circuit construction plus `O(outputs²)`
    /// conjunction queries with [`Backend::Bdd`], or one sampling pass with
    /// [`Backend::Simulation`] — the same joint-distribution call weight
    /// vectors make, with output pairs as the node tuples. For circuits
    /// with very many outputs prefer [`Consolidator::try_for_pairs`].
    ///
    /// # Errors
    ///
    /// [`RelogicError::DistributionMismatch`] if the input distribution
    /// does not match the circuit.
    pub fn try_new(
        circuit: &Circuit,
        dist: &InputDistribution,
        backend: Backend,
    ) -> Result<Self, RelogicError> {
        let m = circuit.output_count();
        let pairs: Vec<(usize, usize)> = (0..m)
            .flat_map(|a| ((a + 1)..m).map(move |b| (a, b)))
            .collect();
        Self::try_for_pairs(circuit, &pairs, dist, backend)
    }

    /// Builds joint value distributions for the given output-index pairs.
    ///
    /// # Errors
    ///
    /// [`RelogicError::InvalidOutputPair`] if a pair index is out of range
    /// or not strictly increasing, or
    /// [`RelogicError::DistributionMismatch`] if the input distribution
    /// does not match the circuit.
    pub fn try_for_pairs(
        circuit: &Circuit,
        pairs: &[(usize, usize)],
        dist: &InputDistribution,
        backend: Backend,
    ) -> Result<Self, RelogicError> {
        let output_nodes: Vec<NodeId> = circuit.outputs().iter().map(|o| o.node()).collect();
        for &(a, b) in pairs {
            if a >= b || b >= output_nodes.len() {
                return Err(RelogicError::InvalidOutputPair {
                    a,
                    b,
                    outputs: output_nodes.len(),
                });
            }
        }
        let probs = dist.try_position_probs(circuit)?;
        let tuples: Vec<[NodeId; 2]> = pairs
            .iter()
            .map(|&(a, b)| [output_nodes[a], output_nodes[b]])
            .collect();
        let (joint, _) = match backend {
            Backend::Bdd => exact_joint_probs(circuit, &probs, &tuples)?,
            Backend::Simulation { patterns, seed } => {
                relogic_sim::sample_joint_probs(circuit, &probs, patterns, seed, &tuples)
            }
        };
        let pair_values = pairs
            .iter()
            .zip(joint)
            .map(|(&p, v)| (p, [v[0], v[1], v[2], v[3]]))
            .collect();
        Ok(Consolidator {
            output_nodes,
            pair_values,
        })
    }

    /// Joint probability that outputs `a` and `b` are *both* in error, using
    /// the single-pass error probabilities and correlation coefficients.
    /// Clamp events are accumulated into `diag`.
    ///
    /// # Errors
    ///
    /// [`RelogicError::MissingOutputPair`] if the pair was not precomputed.
    pub fn try_joint_error(
        &self,
        result: &SinglePassResult,
        a: usize,
        b: usize,
        diag: &mut Diagnostics,
    ) -> Result<f64, RelogicError> {
        let (a, b) = (a.min(b), a.max(b));
        let values = self
            .pair_values
            .get(&(a, b))
            .ok_or(RelogicError::MissingOutputPair { a, b })?;
        let na = self.output_nodes[a];
        let nb = self.output_nodes[b];
        let coeffs = result.correlation(na, nb);
        let q = |node: NodeId, value: usize| -> (f64, ErrorEvent) {
            if value == 0 {
                (result.p01(node), ErrorEvent::Rise)
            } else {
                (result.p10(node), ErrorEvent::Fall)
            }
        };
        let mut joint = 0.0f64;
        for va in 0..2usize {
            for vb in 0..2usize {
                let w = values[vb << 1 | va];
                if w <= 0.0 {
                    continue;
                }
                let (pa, ev_a) = q(na, va);
                let (pb, ev_b) = q(nb, vb);
                let c = coeffs.map_or(1.0, |c| match (ev_a, ev_b) {
                    (ErrorEvent::Rise, ErrorEvent::Rise) => c[0][0],
                    (ErrorEvent::Rise, ErrorEvent::Fall) => c[0][1],
                    (ErrorEvent::Fall, ErrorEvent::Rise) => c[1][0],
                    (ErrorEvent::Fall, ErrorEvent::Fall) => c[1][1],
                });
                joint += w * diag.clamp_coeff(pa * pb * c, 0.0, pa.min(pb));
            }
        }
        let da = delta_of(result, na, values, true);
        let db = delta_of(result, nb, values, false);
        Ok(diag.clamp_prob(joint, 0.0, da.min(db)))
    }

    /// Probability that at least one of outputs `a`, `b` is in error — the
    /// quantity plotted in the paper's Fig. 5. Clamp events of the joint
    /// term are accumulated into `diag`, as in
    /// [`Consolidator::try_joint_error`].
    ///
    /// # Errors
    ///
    /// [`RelogicError::MissingOutputPair`] if the pair was not precomputed.
    pub fn try_pair_error(
        &self,
        result: &SinglePassResult,
        a: usize,
        b: usize,
        diag: &mut Diagnostics,
    ) -> Result<f64, RelogicError> {
        let da = result.per_output()[a];
        let db = result.per_output()[b];
        let joint = self.try_joint_error(result, a, b, diag)?;
        Ok((da + db - joint).clamp(da.max(db), (da + db).min(1.0)))
    }

    /// Probability that at least one primary output is in error (the
    /// paper's "consolidated output error curve", Fig. 8), via a
    /// pairwise-corrected product over outputs. Clamp events — in
    /// particular the θ guard-rail clamps of the Kirkwood correction — are
    /// accumulated into `diag`.
    ///
    /// # Errors
    ///
    /// [`RelogicError::MissingOutputPair`] if the consolidator was built
    /// with [`Consolidator::try_for_pairs`] and does not cover all output
    /// pairs.
    pub fn try_any_output_error(
        &self,
        result: &SinglePassResult,
        diag: &mut Diagnostics,
    ) -> Result<f64, RelogicError> {
        let deltas = result.per_output();
        let m = deltas.len();
        if m == 0 {
            return Ok(0.0);
        }
        if m == 1 {
            return Ok(deltas[0]);
        }
        // ln P(no error) ≈ Σ ln(1−δ_k) + Σ_{a<b} ln θ_ab, the pairwise
        // (Kirkwood superposition) correction.
        let mut log_none = 0.0f64;
        for &d in deltas {
            if d >= 1.0 {
                return Ok(1.0);
            }
            log_none += (1.0 - d).ln();
        }
        for a in 0..m {
            for b in (a + 1)..m {
                let ok_a = 1.0 - deltas[a];
                let ok_b = 1.0 - deltas[b];
                if ok_a <= 0.0 || ok_b <= 0.0 {
                    return Ok(1.0);
                }
                let joint_err = self.try_joint_error(result, a, b, diag)?;
                let ok_both = (1.0 - deltas[a] - deltas[b] + joint_err).clamp(0.0, 1.0);
                let theta = diag.clamp_theta(ok_both / (ok_a * ok_b), 1e-6, 1e6);
                log_none += theta.ln();
            }
        }
        let lower = deltas.iter().cloned().fold(0.0, f64::max);
        let upper = deltas.iter().sum::<f64>().min(1.0);
        Ok((1.0 - log_none.exp()).clamp(lower, upper))
    }
}

/// Per-output δ recomputed from the pair's joint value marginals, for
/// consistency with the stored joint distribution. Falls back to the
/// result's value.
fn delta_of(result: &SinglePassResult, node: NodeId, values: &[f64; 4], first: bool) -> f64 {
    let p0 = if first {
        values[0b00] + values[0b10]
    } else {
        values[0b00] + values[0b01]
    };
    (1.0 - p0).mul_add(result.p10(node), p0 * result.p01(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateEps, SinglePass, SinglePassOptions, Weights};
    use relogic_sim::{exact_reliability, try_estimate, MonteCarloConfig};

    fn analyzed(c: &Circuit, eps: f64) -> (SinglePassResult, Consolidator, GateEps) {
        let w = Weights::try_compute(c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let e = GateEps::try_uniform(c, eps).unwrap();
        let r = SinglePass::try_new(c, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&e)
            .unwrap();
        let cons = Consolidator::try_new(c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        (r, cons, e)
    }

    fn any(cons: &Consolidator, r: &SinglePassResult) -> f64 {
        cons.try_any_output_error(r, &mut Diagnostics::new())
            .unwrap()
    }

    fn two_output_reconvergent() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("x");
        let s = c.nand([a, b]);
        let o1 = c.or([s, x]);
        let o2 = c.xor([s, x]);
        c.add_output("y1", o1);
        c.add_output("y2", o2);
        c
    }

    #[test]
    fn identical_outputs_err_together() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y1", g);
        c.add_output("y2", g);
        let (r, cons, _) = analyzed(&c, 0.2);
        // Same node: joint error = δ (they always err together)... the
        // correlation machinery reaches this via a perfectly correlated
        // pair only when tracked; identical nodes share everything.
        let j = cons
            .try_joint_error(&r, 0, 1, &mut Diagnostics::new())
            .unwrap();
        assert!(j <= r.per_output()[0] + 1e-12);
        let any = any(&cons, &r);
        assert!(any <= r.per_output()[0] + r.per_output()[1]);
        assert!(any >= r.per_output()[0] - 1e-12);
    }

    #[test]
    fn consolidated_error_close_to_exact() {
        let c = two_output_reconvergent();
        for &e in &[0.05, 0.15, 0.3] {
            let (r, cons, eps) = analyzed(&c, e);
            let exact = exact_reliability(&c, eps.as_slice());
            let any = any(&cons, &r);
            assert!(
                (any - exact.any_output).abs() < 0.05,
                "ε={e}: consolidated {any} vs exact {}",
                exact.any_output
            );
            let pair = cons
                .try_pair_error(&r, 0, 1, &mut Diagnostics::new())
                .unwrap();
            assert!((pair - exact.any_output).abs() < 0.05);
        }
    }

    #[test]
    fn correlation_correction_beats_independence_assumption() {
        let c = two_output_reconvergent();
        let mut corrected = 0.0f64;
        let mut independent = 0.0f64;
        for &e in &[0.05, 0.1, 0.2, 0.3] {
            let (r, cons, eps) = analyzed(&c, e);
            let exact = exact_reliability(&c, eps.as_slice()).any_output;
            let any = any(&cons, &r);
            let naive = 1.0 - r.per_output().iter().map(|&d| 1.0 - d).product::<f64>();
            corrected += (any - exact).abs();
            independent += (naive - exact).abs();
        }
        assert!(
            corrected <= independent + 1e-9,
            "corrected {corrected} vs independent {independent}"
        );
    }

    #[test]
    fn simulation_backend_agrees_with_bdd() {
        let c = two_output_reconvergent();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();
        let r = SinglePass::try_new(&c, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&eps)
            .unwrap();
        let exact = Consolidator::try_new(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let sampled = Consolidator::try_new(
            &c,
            &InputDistribution::Uniform,
            Backend::Simulation {
                patterns: 1 << 15,
                seed: 5,
            },
        )
        .unwrap();
        assert!((any(&exact, &r) - any(&sampled, &r)).abs() < 0.02);
    }

    #[test]
    fn consolidated_matches_monte_carlo_any() {
        let c = two_output_reconvergent();
        let (r, cons, eps) = analyzed(&c, 0.12);
        let mc = try_estimate(
            &c,
            eps.as_slice(),
            &MonteCarloConfig {
                patterns: 1 << 17,
                ..MonteCarloConfig::default()
            },
        )
        .unwrap();
        assert!(
            (any(&cons, &r) - mc.any_output()).abs() < 0.03,
            "{} vs {}",
            any(&cons, &r),
            mc.any_output()
        );
    }

    #[test]
    fn for_pairs_restricts_coverage() {
        let c = two_output_reconvergent();
        let cons =
            Consolidator::try_for_pairs(&c, &[(0, 1)], &InputDistribution::Uniform, Backend::Bdd)
                .unwrap();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let r = SinglePass::try_new(&c, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&GateEps::try_uniform(&c, 0.1).unwrap())
            .unwrap();
        let _ = cons
            .try_pair_error(&r, 0, 1, &mut Diagnostics::new())
            .unwrap();
    }

    #[test]
    fn bad_pairs_rejected() {
        let c = two_output_reconvergent();
        let err =
            Consolidator::try_for_pairs(&c, &[(1, 1)], &InputDistribution::Uniform, Backend::Bdd)
                .unwrap_err();
        assert!(err.to_string().contains("invalid output pair"), "{err}");
    }

    #[test]
    fn try_variants_surface_typed_errors() {
        let c = two_output_reconvergent();
        assert!(matches!(
            Consolidator::try_for_pairs(&c, &[(0, 7)], &InputDistribution::Uniform, Backend::Bdd),
            Err(RelogicError::InvalidOutputPair { .. })
        ));
        // A consolidator missing a pair reports it instead of panicking.
        let empty = Consolidator::try_for_pairs(&c, &[], &InputDistribution::Uniform, Backend::Bdd)
            .unwrap();
        let (r, _, _) = analyzed(&c, 0.1);
        assert!(matches!(
            empty.try_joint_error(&r, 0, 1, &mut Diagnostics::new()),
            Err(RelogicError::MissingOutputPair { a: 0, b: 1 })
        ));
        assert!(matches!(
            empty.try_pair_error(&r, 0, 1, &mut Diagnostics::new()),
            Err(RelogicError::MissingOutputPair { .. })
        ));
        let mut diag = Diagnostics::new();
        assert!(empty.try_any_output_error(&r, &mut diag).is_err());
    }

    #[test]
    fn try_any_output_error_accumulates_diagnostics() {
        let c = two_output_reconvergent();
        let (r, cons, _) = analyzed(&c, 0.3);
        let mut diag = Diagnostics::new();
        let first = cons.try_any_output_error(&r, &mut diag).unwrap();
        // The accumulator never changes the answer.
        assert_eq!(first.to_bits(), any(&cons, &r).to_bits());
        assert!(diag.worst_excursion().is_finite());
    }

    #[test]
    fn pair_error_reports_joint_clamps_to_the_caller() {
        // A random netlist whose output pair (2, 3) has a correlation
        // coefficient that overshoots at ε = 0.01: the joint term's
        // coefficient product saturates.
        let c = relogic_gen::generate(&relogic_gen::RandomCircuitConfig {
            name: "clamp".into(),
            inputs: 6,
            gates: 21,
            outputs: 5,
            seed: 11,
            max_arity: 2,
            xor_fraction: 0.3,
            locality: 4,
            global_edge_fraction: 0.3,
        });
        let (r, cons, _) = analyzed(&c, 0.01);
        let mut diag = Diagnostics::new();
        let pair = cons.try_pair_error(&r, 2, 3, &mut diag).unwrap();
        assert_eq!(diag.coeff_saturations(), 1);
        assert!(diag.worst_excursion() > 0.0);
        // The accumulator never changes the answer, and it sums across calls.
        let again = cons.try_pair_error(&r, 2, 3, &mut diag).unwrap();
        assert_eq!(pair.to_bits(), again.to_bits());
        assert_eq!(diag.coeff_saturations(), 2);
    }

    #[test]
    fn empty_and_single_output_edge_cases() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let (r, cons, _) = analyzed(&c, 0.2);
        assert!((any(&cons, &r) - r.per_output()[0]).abs() < 1e-12);
    }
}
