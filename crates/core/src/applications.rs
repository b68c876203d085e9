//! Redundancy-free reliability applications (§5.1 of the paper).
//!
//! The single-pass analysis yields per-node `Pr(0→1)` / `Pr(1→0)` error
//! probabilities, which the paper highlights as the enabler for two design
//! flows:
//!
//! * **Asymmetric redundancy insertion** — quadded-style schemes protect
//!   `0→1` and `1→0` errors differently, so knowing which direction
//!   dominates at each node directs cheaper, finer-grained hardening.
//! * **Selective hardening** — instead of protecting every gate, protect
//!   the few whose hardening most improves output reliability.

use crate::{GateEps, RelogicError, SinglePass, SinglePassResult, Weights};
use relogic_netlist::{Circuit, NodeId};

/// Per-node asymmetric error report entry.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeAsymmetry {
    /// The node.
    pub node: NodeId,
    /// `Pr(0→1 | fault-free 0)`.
    pub p01: f64,
    /// `Pr(1→0 | fault-free 1)`.
    pub p10: f64,
    /// Unconditional error probability of the node.
    pub delta: f64,
}

impl NodeAsymmetry {
    /// How lopsided the two error directions are: `|p01 − p10| / max`,
    /// in `[0, 1]` (0 = symmetric).
    #[must_use]
    pub fn skew(&self) -> f64 {
        let hi = self.p01.max(self.p10);
        if hi <= 0.0 {
            0.0
        } else {
            (self.p01 - self.p10).abs() / hi
        }
    }
}

/// Extracts the per-node asymmetric error report from a single-pass result,
/// sorted by descending skew (most asymmetric nodes first).
#[must_use]
pub fn asymmetry_report(circuit: &Circuit, result: &SinglePassResult) -> Vec<NodeAsymmetry> {
    let mut rows: Vec<NodeAsymmetry> = circuit
        .node_ids()
        .filter(|&id| circuit.node(id).kind().is_gate())
        .map(|id| NodeAsymmetry {
            node: id,
            p01: result.p01(id),
            p10: result.p10(id),
            delta: result.node_delta(id),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.skew()
            .partial_cmp(&a.skew())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// One step of a selective-hardening plan.
#[derive(Clone, Debug)]
pub struct HardeningStep {
    /// The gate chosen for hardening at this step.
    pub node: NodeId,
    /// Mean output δ after applying this step.
    pub mean_delta_after: f64,
}

/// Result of [`selective_hardening`].
#[derive(Clone, Debug)]
pub struct HardeningPlan {
    /// Mean output δ before any hardening.
    pub baseline: f64,
    /// Chosen gates in application order, with the δ trajectory.
    pub steps: Vec<HardeningStep>,
    /// The hardened ε vector after all steps.
    pub hardened_eps: GateEps,
}

impl HardeningPlan {
    /// Mean output δ after the full plan (the baseline if no steps fit).
    #[must_use]
    pub fn final_delta(&self) -> f64 {
        self.steps
            .last()
            .map_or(self.baseline, |s| s.mean_delta_after)
    }

    /// Relative improvement `1 − final/baseline` in `[0, 1]`.
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.baseline <= 0.0 {
            0.0
        } else {
            1.0 - self.final_delta() / self.baseline
        }
    }
}

/// Greedily selects up to `budget` gates to harden (multiplying their ε by
/// `factor`, e.g. 0.1 for a 10× more reliable cell), choosing at each step
/// the gate whose hardening most reduces the mean output error probability
/// under the single-pass analysis.
///
/// # Errors
///
/// Any error of [`SinglePass::try_new`] or [`SinglePass::try_run`]: in
/// particular [`RelogicError::LengthMismatch`] if `weights` or `eps` was
/// built for a different circuit.
///
/// # Panics
///
/// Panics if `factor` is not in `[0, 1)`.
pub fn selective_hardening(
    circuit: &Circuit,
    weights: &Weights,
    eps: &GateEps,
    budget: usize,
    factor: f64,
) -> Result<HardeningPlan, RelogicError> {
    assert!((0.0..1.0).contains(&factor), "hardening factor {factor}");
    let engine = SinglePass::try_new(circuit, weights, crate::SinglePassOptions::default())?;
    let mean = |r: &SinglePassResult| -> f64 {
        let d = r.per_output();
        if d.is_empty() {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = d.len() as f64;
            d.iter().sum::<f64>() / n
        }
    };
    let mut current = eps.clone();
    let baseline = mean(&engine.try_run(&current)?);
    let mut best_so_far = baseline;
    let mut steps = Vec::new();
    let mut already: Vec<NodeId> = Vec::new();

    for _ in 0..budget {
        let mut best: Option<(NodeId, f64)> = None;
        for id in circuit.node_ids() {
            if !circuit.node(id).kind().is_gate() || current.get(id) <= 0.0 || already.contains(&id)
            {
                continue;
            }
            let mut trial = current.clone();
            trial.try_set(id, current.get(id) * factor)?;
            let d = mean(&engine.try_run(&trial)?);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((id, d));
            }
        }
        match best {
            Some((id, d)) if d < best_so_far - 1e-15 => {
                current.try_set(id, current.get(id) * factor)?;
                already.push(id);
                best_so_far = d;
                steps.push(HardeningStep {
                    node: id,
                    mean_delta_after: d,
                });
            }
            _ => break,
        }
    }
    Ok(HardeningPlan {
        baseline,
        steps,
        hardened_eps: current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, InputDistribution, SinglePassOptions};

    fn circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("x");
        let g1 = c.and([a, b]);
        let g2 = c.or([g1, x]);
        let g3 = c.not(g2);
        c.add_output("y", g3);
        c
    }

    fn weights(c: &Circuit) -> Weights {
        Weights::try_compute(c, &InputDistribution::Uniform, Backend::Bdd).unwrap()
    }

    #[test]
    fn asymmetry_report_covers_all_gates() {
        let c = circuit();
        let w = weights(&c);
        let r = SinglePass::try_new(&c, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&GateEps::try_uniform(&c, 0.1).unwrap())
            .unwrap();
        let report = asymmetry_report(&c, &r);
        assert_eq!(report.len(), 3);
        for row in &report {
            assert!((0.0..=1.0).contains(&row.p01));
            assert!((0.0..=1.0).contains(&row.p10));
            assert!((0.0..=1.0).contains(&row.skew()));
        }
        // Sorted by skew, descending.
        for pair in report.windows(2) {
            assert!(pair[0].skew() >= pair[1].skew() - 1e-12);
        }
    }

    #[test]
    fn and_into_or_is_asymmetric() {
        // An AND feeding an OR sees mostly-0 outputs, so propagated errors
        // are direction-skewed; this is the §5.1 observation.
        let c = circuit();
        let w = weights(&c);
        let r = SinglePass::try_new(&c, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&GateEps::try_uniform(&c, 0.1).unwrap())
            .unwrap();
        let g2 = NodeId::from_index(4); // the OR gate
        assert!(
            (r.p01(g2) - r.p10(g2)).abs() > 1e-6,
            "expected direction-dependent error at the OR gate"
        );
    }

    #[test]
    fn hardening_reduces_delta_within_budget() {
        let c = circuit();
        let w = weights(&c);
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();
        let plan = selective_hardening(&c, &w, &eps, 2, 0.1).unwrap();
        assert!(plan.baseline > 0.0);
        assert_eq!(plan.steps.len(), 2);
        assert!(plan.final_delta() < plan.baseline);
        assert!(plan.improvement() > 0.0);
        // The trajectory is monotone decreasing.
        let mut prev = plan.baseline;
        for s in &plan.steps {
            assert!(s.mean_delta_after < prev);
            prev = s.mean_delta_after;
        }
    }

    #[test]
    fn first_hardened_gate_is_fully_observable() {
        // Both last-level gates (the OR and the output inverter) have
        // observability 1; the greedy step must pick one of them, never the
        // partially masked AND.
        let c = circuit();
        let w = weights(&c);
        let plan =
            selective_hardening(&c, &w, &GateEps::try_uniform(&c, 0.1).unwrap(), 1, 0.1).unwrap();
        let chosen = plan.steps[0].node;
        assert!(
            chosen == NodeId::from_index(4) || chosen == NodeId::from_index(5),
            "chose {chosen:?}"
        );
    }

    #[test]
    fn zero_budget_returns_baseline() {
        let c = circuit();
        let w = weights(&c);
        let plan =
            selective_hardening(&c, &w, &GateEps::try_uniform(&c, 0.1).unwrap(), 0, 0.1).unwrap();
        assert!(plan.steps.is_empty());
        assert_eq!(plan.final_delta(), plan.baseline);
        assert_eq!(plan.improvement(), 0.0);
    }

    #[test]
    fn noise_free_circuit_has_nothing_to_harden() {
        let c = circuit();
        let w = weights(&c);
        let plan = selective_hardening(&c, &w, &GateEps::zero(&c), 3, 0.1).unwrap();
        assert!(plan.steps.is_empty());
        assert_eq!(plan.baseline, 0.0);
    }
}
