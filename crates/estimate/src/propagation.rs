//! The propagation-probability SER estimator (PAPERS.md #1, Asadi–Tahoori
//! style).
//!
//! Two linear passes over the netlist, both assuming fanin independence:
//!
//! 1. **Signal probabilities**, forward topological: each gate's output
//!    probability is the exact sum over its (distinct) fanin assignments,
//!    weighted by the product of the fanins' probabilities.
//! 2. **Observability estimates**, reverse topological: the per-edge
//!    *sensitization probability* `s(v→g)` — the probability that flipping
//!    `v` flips gate `g`'s output, over the other fanins' assignments — is
//!    combined over `v`'s observers as
//!    `ô_k(v) = 1 − (1 − port_k(v)) · Π_g (1 − s(v→g) · ô_k(g))`.
//!
//! Both passes treat reconvergent signals as independent, which is exactly
//! the approximation the paper's exact method exists to avoid — but the
//! cost is `O(edges · outputs)` with no symbolic blow-up, which makes this
//! the fallback tier when the exact BDD build trips its node budget. The
//! estimates fill the same [`ObservabilityMatrix`] the exact and sampled
//! backends fill, so the output error δ and the criticality ranking are
//! the matrix's own.

use relogic::{
    Diagnostics, GateEps, InputDistribution, ObservabilityMatrix, RelogicError, MAX_ANALYSIS_ARITY,
};
use relogic_netlist::{Circuit, GateKind, NodeId};

/// Gate error rate at which the propagation-vs-Monte-Carlo accuracy bound
/// ([`PROPAGATION_VS_MC_MEAN_ABS_BOUND`]) is pinned.
pub const PROPAGATION_VS_MC_BOUND_EPS: f64 = 0.02;

/// Pinned accuracy bound: on every gen-suite circuit, the mean absolute
/// per-output difference between the propagation estimate and a Monte
/// Carlo reference (2^16 patterns, seed 7) at ε =
/// [`PROPAGATION_VS_MC_BOUND_EPS`] stays under this value. Measured by the
/// `estimator_accuracy` bench — worst observed: c1908 at ~0.13, whose
/// reconvergent XOR trees are exactly where the independence assumption
/// overestimates observability; every other suite circuit stays under
/// 0.06 — and asserted by the oracle tests, the bench `--smoke` mode, and
/// CI.
pub const PROPAGATION_VS_MC_MEAN_ABS_BOUND: f64 = 0.15;

/// Signal probabilities and estimated observabilities for every node of a
/// circuit, computed by the propagation-probability estimator.
///
/// The estimate is ε-independent (like the exact [`ObservabilityMatrix`]
/// it fills), so it is cacheable per circuit and reusable across the whole
/// ε sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PropagationEstimate {
    signal_probs: Vec<f64>,
    observabilities: ObservabilityMatrix,
}

/// Distinct fanin nodes of a gate, in first-appearance pin order, plus the
/// pin → distinct-index mapping. A gate reading one node on several pins
/// flips all of those pins together, so enumeration must be over distinct
/// *nodes*, not pins.
fn distinct_fanins(fanins: &[NodeId]) -> (Vec<NodeId>, Vec<usize>) {
    let mut nodes: Vec<NodeId> = Vec::with_capacity(fanins.len());
    let mut pin_of: Vec<usize> = Vec::with_capacity(fanins.len());
    for &f in fanins {
        match nodes.iter().position(|&n| n == f) {
            Some(i) => pin_of.push(i),
            None => {
                nodes.push(f);
                pin_of.push(nodes.len() - 1);
            }
        }
    }
    (nodes, pin_of)
}

/// Evaluates `kind` with each distinct fanin `i` set to bit `i` of
/// `combo`, honouring repeated pins.
fn eval_combo_distinct(kind: GateKind, pin_of: &[usize], combo: usize) -> bool {
    let mut pins = [false; MAX_ANALYSIS_ARITY];
    for (p, &d) in pin_of.iter().enumerate() {
        pins[p] = combo >> d & 1 != 0;
    }
    kind.eval(&pins[..pin_of.len()])
}

impl PropagationEstimate {
    /// Runs both propagation passes for `circuit` under `dist`.
    ///
    /// Deterministic and single-threaded: the result is a pure function of
    /// the circuit and distribution, bit-identical for every caller.
    ///
    /// # Errors
    ///
    /// [`RelogicError::DistributionMismatch`] if the distribution does not
    /// match the circuit, or [`RelogicError::ArityExceeded`] if a gate has
    /// more fanins than the analysis enumerates.
    pub fn try_compute(circuit: &Circuit, dist: &InputDistribution) -> Result<Self, RelogicError> {
        let input_probs = dist.try_position_probs(circuit)?;
        let n = circuit.len();
        let m = circuit.output_count();
        for (id, node) in circuit.iter() {
            if node.arity() > MAX_ANALYSIS_ARITY {
                return Err(RelogicError::ArityExceeded {
                    node: id,
                    arity: node.arity(),
                    max: MAX_ANALYSIS_ARITY,
                });
            }
        }

        // Pass 1: signal probabilities, forward topological order.
        let mut probs = vec![0.0f64; n];
        let mut next_input = 0usize;
        for (id, node) in circuit.iter() {
            probs[id.index()] = match node.kind() {
                GateKind::Input => {
                    let p = input_probs[next_input];
                    next_input += 1;
                    p
                }
                GateKind::Const(v) => f64::from(u8::from(v)),
                kind => {
                    let (nodes, pin_of) = distinct_fanins(node.fanins());
                    let mut p = 0.0;
                    for combo in 0..1usize << nodes.len() {
                        if !eval_combo_distinct(kind, &pin_of, combo) {
                            continue;
                        }
                        let mut w = 1.0;
                        for (d, &f) in nodes.iter().enumerate() {
                            let pf = probs[f.index()];
                            w *= if combo >> d & 1 != 0 { pf } else { 1.0 - pf };
                        }
                        p += w;
                    }
                    p.clamp(0.0, 1.0)
                }
            };
        }

        // Observation structure: distinct gate observers per node, plus
        // the output columns whose port reads the node directly. Each
        // observer edge carries its sensitization probability.
        let mut observers: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (id, node) in circuit.iter() {
            if !node.kind().is_gate() {
                continue;
            }
            let (nodes, pin_of) = distinct_fanins(node.fanins());
            for (d, &v) in nodes.iter().enumerate() {
                // s(v→g): over assignments of the other distinct fanins,
                // the probability that the two values of v disagree at g's
                // output. Enumerating full combos and masking bit d visits
                // each other-assignment exactly twice, so halve by fixing
                // bit d to 0.
                let mut s = 0.0;
                for combo in 0..1usize << nodes.len() {
                    if combo >> d & 1 != 0 {
                        continue;
                    }
                    let lo = eval_combo_distinct(node.kind(), &pin_of, combo);
                    let hi = eval_combo_distinct(node.kind(), &pin_of, combo | 1 << d);
                    if lo == hi {
                        continue;
                    }
                    let mut w = 1.0;
                    for (e, &f) in nodes.iter().enumerate() {
                        if e == d {
                            continue;
                        }
                        let pf = probs[f.index()];
                        w *= if combo >> e & 1 != 0 { pf } else { 1.0 - pf };
                    }
                    s += w;
                }
                observers[v.index()].push((u32::try_from(id.index()).unwrap_or(u32::MAX), s));
            }
        }
        let mut ports: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (k, out) in circuit.outputs().iter().enumerate() {
            ports[out.node().index()].push(u32::try_from(k).unwrap_or(u32::MAX));
        }

        // Pass 2: per-output and any-output observability estimates,
        // reverse topological order (every observer is visited first).
        let mut per_output: Vec<Vec<f64>> = vec![vec![0.0; m]; n];
        let mut any_output = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut miss_any = 1.0f64;
            let mut miss: Vec<f64> = vec![1.0; m];
            for &(g, s) in &observers[i] {
                let g = g as usize;
                miss_any *= 1.0 - s * any_output[g];
                for (k, slot) in miss.iter_mut().enumerate() {
                    *slot *= 1.0 - s * per_output[g][k];
                }
            }
            for &k in &ports[i] {
                miss[k as usize] = 0.0;
                miss_any = 0.0;
            }
            any_output[i] = (1.0 - miss_any).clamp(0.0, 1.0);
            for (k, slot) in miss.into_iter().enumerate() {
                per_output[i][k] = (1.0 - slot).clamp(0.0, 1.0);
            }
        }

        // Every value is a clamped probability of a validated
        // distribution, so the matrix's finiteness check cannot fail.
        let observabilities =
            ObservabilityMatrix::from_parts(per_output, any_output, Diagnostics::new())
                .map_err(|message| RelogicError::DistributionMismatch { message })?;
        Ok(PropagationEstimate {
            signal_probs: probs,
            observabilities,
        })
    }

    /// Estimated signal probability of every node, indexed by
    /// [`NodeId::index`].
    #[must_use]
    pub fn signal_probs(&self) -> &[f64] {
        &self.signal_probs
    }

    /// The estimated per-output and any-output observabilities.
    #[must_use]
    pub fn observabilities(&self) -> &ObservabilityMatrix {
        &self.observabilities
    }

    /// The closed-form output error for every output, over the estimated
    /// observabilities ([`ObservabilityMatrix::closed_form`]).
    #[must_use]
    pub fn closed_form(&self, eps: &GateEps) -> Vec<f64> {
        self.observabilities.closed_form(eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic::{Backend, ObservabilityMatrix};

    /// y = (a & b) | c — fanout-free, so independence is exact.
    fn aoi() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g = c.and([a, b]);
        let y = c.or([g, x]);
        c.add_output("y", y);
        c
    }

    #[test]
    fn exact_on_fanout_free_circuits() {
        let c = aoi();
        let est = PropagationEstimate::try_compute(&c, &InputDistribution::Uniform).unwrap();
        let exact = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        for id in c.node_ids() {
            assert!(
                (est.observabilities().at_output(id, 0) - exact.at_output(id, 0)).abs() < 1e-12,
                "{id}: {} vs {}",
                est.observabilities().at_output(id, 0),
                exact.at_output(id, 0)
            );
            assert!((est.observabilities().any(id) - exact.any(id)).abs() < 1e-12);
        }
        // Signal probabilities: AND = 1/4, OR = 1/4 + 1/2·3/4 = 0.625.
        assert!((est.signal_probs()[3] - 0.25).abs() < 1e-12);
        assert!((est.signal_probs()[4] - 0.625).abs() < 1e-12);
    }

    #[test]
    fn honours_input_distribution() {
        // obs(AND gate) = Pr(c = 0); bias c to 0.9 → obs = 0.1.
        let c = aoi();
        let dist = InputDistribution::Independent(vec![0.5, 0.5, 0.9]);
        let est = PropagationEstimate::try_compute(&c, &dist).unwrap();
        assert!((est.observabilities().at_output(NodeId::from_index(3), 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn repeated_pins_flip_together() {
        // y = a XOR a is constantly 0 and a is unobservable; a naive
        // per-pin treatment would call a fully observable.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.xor([a, a]);
        c.add_output("y", g);
        let est = PropagationEstimate::try_compute(&c, &InputDistribution::Uniform).unwrap();
        assert_eq!(est.signal_probs()[g.index()], 0.0);
        assert_eq!(est.observabilities().any(a), 0.0);
    }

    #[test]
    fn multi_output_ports_and_any_column() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.not(a);
        let h = c.and([g, b]);
        c.add_output("y1", g);
        c.add_output("y2", h);
        let est = PropagationEstimate::try_compute(&c, &InputDistribution::Uniform).unwrap();
        assert!((est.observabilities().at_output(g, 0) - 1.0).abs() < 1e-12);
        assert!((est.observabilities().at_output(g, 1) - 0.5).abs() < 1e-12);
        assert!((est.observabilities().any(g) - 1.0).abs() < 1e-12);
        assert_eq!(est.observabilities().output_count(), 2);
    }

    #[test]
    fn closed_form_matches_exact_matrix_wiring() {
        let c = aoi();
        let est = PropagationEstimate::try_compute(&c, &InputDistribution::Uniform).unwrap();
        let exact = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let eps = GateEps::try_uniform(&c, 0.03).unwrap();
        let a = est.closed_form(&eps);
        let b = exact.closed_form(&eps);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }
}
