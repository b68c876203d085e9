//! Selective-TMR hardening optimizer.
//!
//! Ranks gates by estimator criticality `ε · ô_any` (signal-probability
//! skew breaks ties: a gate whose output is strongly biased costs TMR the
//! least masking headroom), then sweeps doubling protection prefixes
//! through [`relogic_gen::tmr_selected`] under an area budget, emitting
//! the non-dominated (area, mean δ) points as the reliability-per-area
//! Pareto front.
//!
//! # Reliability model: hardened voters
//!
//! Candidates are scored under the paper's single-gate-failure closed
//! form with *hardened voters*: a protected gate's single replica failure
//! is always outvoted 2-to-1 (the replicas carry the same logic value, so
//! majority masking is exact, not probabilistic), which zeroes that
//! gate's `ε · ô` term in the product. This is the standard TMR
//! assumption — and the only self-consistent one at gate level: a voter
//! built from gates at the *same* ε ends in an OR exactly as observable
//! as the gate it protects plus four partially-observable helpers, so
//! noisy-voter TMR is strictly counterproductive in the single-error
//! model. Area, by contrast, is charged honestly from the real
//! [`tmr_selected`] transform (replicas + voter gates included), so the
//! front trades true area against hardened-voter reliability.

use crate::PropagationEstimate;
use relogic::{CancelToken, GateEps, InputDistribution, RelogicError};
use relogic_gen::tmr_selected;
use relogic_netlist::{Circuit, NodeId};

/// One evaluated hardening candidate: a protection prefix and its cost
/// and reliability scores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParetoPoint {
    /// How many ranked gates this candidate protects (0 = baseline).
    pub protected: usize,
    /// Gate count of the transformed circuit (replicas + voters included).
    pub gates: usize,
    /// Gate-count ratio versus the unprotected circuit (baseline = 1.0).
    pub area_ratio: f64,
    /// Mean per-output error δ under the propagation estimate.
    pub mean_delta: f64,
    /// Worst per-output error δ under the propagation estimate.
    pub max_delta: f64,
}

/// The outcome of a [`harden`] sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct HardenReport {
    /// The unprotected circuit's scores (area ratio 1.0).
    pub baseline: ParetoPoint,
    /// Every TMR candidate evaluated within the area budget, in
    /// increasing prefix order. Does not include the baseline.
    pub evaluated: Vec<ParetoPoint>,
    /// Non-dominated points over baseline + evaluated: increasing area,
    /// strictly decreasing mean δ.
    pub front: Vec<ParetoPoint>,
    /// The gate protection order with each gate's criticality `ε · ô_any`;
    /// `evaluated[i]` protects the first `evaluated[i].protected` entries.
    pub ranking: Vec<(NodeId, f64)>,
}

fn score(est: &PropagationEstimate, eps: &GateEps) -> (f64, f64) {
    let deltas = est.closed_form(eps);
    let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
    let max = deltas.iter().fold(0.0f64, |a, &d| a.max(d));
    (mean, max)
}

/// Sweeps selective-TMR protection prefixes under `area_budget` and
/// returns the reliability-per-area Pareto front.
///
/// `eps` is the uniform gate error rate; protected gates are scored as
/// fully masked (hardened-voter TMR, see the module docs) while area is
/// charged from the real [`tmr_selected`] gate counts. `area_budget` is
/// the maximum allowed gate-count ratio versus the unprotected circuit
/// (≥ 1.0); `max_steps = 0` places no cap on the number of evaluated
/// prefixes. Deterministic: single-threaded, with a total protection
/// order.
///
/// # Errors
///
/// [`RelogicError::InvalidParameter`] if `area_budget` is not a finite
/// value ≥ 1.0; estimator errors ([`RelogicError::InvalidEpsilon`],
/// [`RelogicError::ArityExceeded`], distribution mismatches) pass through.
pub fn harden(
    circuit: &Circuit,
    dist: &InputDistribution,
    eps: f64,
    area_budget: f64,
    max_steps: usize,
) -> Result<HardenReport, RelogicError> {
    let est = PropagationEstimate::try_compute(circuit, dist)?;
    harden_cancellable(
        circuit,
        &est,
        eps,
        area_budget,
        max_steps,
        &CancelToken::new(),
    )
}

/// Like [`harden`] over an estimate already computed for `circuit` (the
/// daemon reads its artifact's), checking `cancel` before every
/// protection-prefix evaluation (each prefix pays a full
/// [`tmr_selected`] transform plus a closed-form rescore). A sweep that
/// completes before the token fires returns a report identical to an
/// uncancelled sweep.
///
/// # Errors
///
/// [`RelogicError::Cancelled`] once the token fires, otherwise as
/// [`harden`].
pub fn harden_cancellable(
    circuit: &Circuit,
    est: &PropagationEstimate,
    eps: f64,
    area_budget: f64,
    max_steps: usize,
    cancel: &CancelToken,
) -> Result<HardenReport, RelogicError> {
    if !area_budget.is_finite() || area_budget < 1.0 {
        return Err(RelogicError::InvalidParameter {
            name: "harden area budget",
            value: area_budget,
            allowed: "[1, inf)",
        });
    }
    let gate_eps = GateEps::try_uniform(circuit, eps)?;
    let (mean_delta, max_delta) = score(est, &gate_eps);
    let baseline = ParetoPoint {
        protected: 0,
        gates: circuit.gate_count(),
        area_ratio: 1.0,
        mean_delta,
        max_delta,
    };

    // Protection order: the matrix's criticality ranking (desc, then node
    // index), re-sorted stably so signal-probability skew |1 − 2p| desc
    // breaks criticality ties (biased gates mask best).
    let mut ranking = est.observabilities().criticality(circuit, &gate_eps);
    let skew = |id: NodeId| (1.0 - 2.0 * est.signal_probs()[id.index()]).abs();
    ranking.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                skew(b.0)
                    .partial_cmp(&skew(a.0))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    });

    let mut evaluated: Vec<ParetoPoint> = Vec::new();
    let mut k = 1usize;
    while k <= ranking.len() && (max_steps == 0 || evaluated.len() < max_steps) {
        cancel.check("harden_prefix")?;
        let protect: Vec<NodeId> = ranking[..k].iter().map(|&(id, _)| id).collect();
        let transformed = tmr_selected(circuit, &protect);
        let area_ratio = transformed.gate_count() as f64 / baseline.gates.max(1) as f64;
        if area_ratio > area_budget {
            break;
        }
        let mut masked = gate_eps.clone();
        for &id in &protect {
            masked.try_set(id, 0.0)?;
        }
        let (mean_delta, max_delta) = score(est, &masked);
        evaluated.push(ParetoPoint {
            protected: k,
            gates: transformed.gate_count(),
            area_ratio,
            mean_delta,
            max_delta,
        });
        if k == ranking.len() {
            break;
        }
        k = (k * 2).min(ranking.len());
    }

    // Pareto front over baseline + candidates: walk by increasing area
    // (the evaluation order) and keep strict mean-δ improvements.
    let mut front = vec![baseline];
    for &p in &evaluated {
        let best = front.last().map_or(f64::INFINITY, |q| q.mean_delta);
        if p.mean_delta < best {
            front.push(p);
        }
    }

    Ok(HardenReport {
        baseline,
        evaluated,
        front,
        ranking,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 12-deep AND chain: every gate sits on the single output cone, so
    /// each protection prefix masks a nonzero `ε · ô` term and the front
    /// improves strictly until the area budget bites.
    fn and_chain() -> Circuit {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let mut cur = c.and([a, b]);
        for i in 0..11 {
            let x = c.add_input(format!("x{i}"));
            cur = c.and([cur, x]);
        }
        c.add_output("y", cur);
        c
    }

    #[test]
    fn baseline_and_prefix_schedule() {
        let c = and_chain();
        let report = harden(&c, &InputDistribution::Uniform, 0.003, 8.0, 0).unwrap();
        assert_eq!(report.baseline.protected, 0);
        assert_eq!(report.baseline.gates, c.gate_count());
        assert_eq!(report.baseline.area_ratio, 1.0);
        let prefixes: Vec<usize> = report.evaluated.iter().map(|p| p.protected).collect();
        assert_eq!(prefixes, vec![1, 2, 4, 8, 12]);
        for w in report.evaluated.windows(2) {
            assert!(w[1].area_ratio > w[0].area_ratio);
        }
        // Selective TMR per gate adds 2 replicas + a 5-gate voter.
        assert_eq!(report.evaluated[0].gates, c.gate_count() + 7);
    }

    #[test]
    fn front_is_non_dominated_and_improves() {
        let c = and_chain();
        let report = harden(&c, &InputDistribution::Uniform, 0.003, 8.0, 0).unwrap();
        assert_eq!(report.front[0], report.baseline);
        assert!(
            report.front.len() > 1,
            "protection should beat the baseline somewhere on this chain"
        );
        for w in report.front.windows(2) {
            assert!(w[1].area_ratio > w[0].area_ratio);
            assert!(w[1].mean_delta < w[0].mean_delta);
        }
    }

    #[test]
    fn area_budget_caps_the_sweep() {
        let c = and_chain();
        let tight = harden(&c, &InputDistribution::Uniform, 0.003, 1.0, 0).unwrap();
        assert!(tight.evaluated.is_empty());
        assert_eq!(tight.front, vec![tight.baseline]);
        let loose = harden(&c, &InputDistribution::Uniform, 0.003, 3.0, 0).unwrap();
        assert!(!loose.evaluated.is_empty());
        assert!(loose.evaluated.iter().all(|p| p.area_ratio <= 3.0));
    }

    #[test]
    fn max_steps_caps_the_sweep() {
        let c = and_chain();
        let report = harden(&c, &InputDistribution::Uniform, 0.003, 8.0, 2).unwrap();
        assert_eq!(report.evaluated.len(), 2);
    }

    #[test]
    fn ranking_covers_exactly_the_gates() {
        let c = and_chain();
        let report = harden(&c, &InputDistribution::Uniform, 0.003, 2.0, 0).unwrap();
        assert_eq!(report.ranking.len(), c.gate_count());
        for w in report.ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn deterministic_across_repeats() {
        let c = and_chain();
        let a = harden(&c, &InputDistribution::Uniform, 0.01, 4.0, 0).unwrap();
        let b = harden(&c, &InputDistribution::Uniform, 0.01, 4.0, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cancelled_sweep_returns_typed_error_and_completed_sweep_is_identical() {
        let c = and_chain();
        let est = PropagationEstimate::try_compute(&c, &InputDistribution::Uniform).unwrap();
        let fired = CancelToken::new();
        fired.cancel();
        let err = harden_cancellable(&c, &est, 0.01, 4.0, 0, &fired).unwrap_err();
        assert!(matches!(err, RelogicError::Cancelled(_)), "{err}");
        let plain = harden(&c, &InputDistribution::Uniform, 0.01, 4.0, 0).unwrap();
        let generous = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let under = harden_cancellable(&c, &est, 0.01, 4.0, 0, &generous).unwrap();
        assert_eq!(plain, under);
    }

    #[test]
    fn rejects_bad_area_budgets() {
        let c = and_chain();
        for bad in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let r = harden(&c, &InputDistribution::Uniform, 0.01, bad, 0);
            assert!(r.is_err(), "budget {bad} must be rejected");
        }
    }
}
