//! Oracle tests for the estimation tier: the propagation estimator is
//! pinned against Monte Carlo on the whole gen suite and against the
//! exact BDD matrix where reconvergence is mild, and the escalation
//! policy is exercised end-to-end with real backends.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic::{Backend, GateEps, InputDistribution, ObservabilityMatrix, RelogicError};
use relogic_estimate::{
    run_estimate, EstimatorPolicy, EstimatorTier, PropagationEstimate, PROPAGATION_VS_MC_BOUND_EPS,
    PROPAGATION_VS_MC_MEAN_ABS_BOUND,
};
use relogic_gen::suite;
use relogic_netlist::Circuit;
use relogic_sim::MonteCarloConfig;

fn mc_deltas(circuit: &Circuit, eps: &GateEps, patterns: u64, seed: u64) -> Vec<f64> {
    let config = MonteCarloConfig {
        patterns,
        seed,
        ..MonteCarloConfig::default()
    };
    relogic_sim::try_estimate(circuit, eps.as_slice(), &config)
        .expect("suite circuits simulate")
        .per_output()
        .to_vec()
}

fn mean_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len().max(1);
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / n as f64
}

/// The pinned accuracy contract: at ε = `PROPAGATION_VS_MC_BOUND_EPS`,
/// the propagation closed form stays within
/// `PROPAGATION_VS_MC_MEAN_ABS_BOUND` (mean |δ̂ − δ_MC| over outputs) of a
/// 2^16-pattern Monte Carlo reference on every gen-suite circuit.
#[test]
fn propagation_within_pinned_bound_of_mc_on_gen_suite() {
    for entry in suite::entries() {
        let circuit = (entry.build)();
        let eps = GateEps::try_uniform(&circuit, PROPAGATION_VS_MC_BOUND_EPS).unwrap();
        let est = PropagationEstimate::try_compute(&circuit, &InputDistribution::Uniform)
            .expect("suite circuits fit the estimator");
        let prop = est.closed_form(&eps);
        let mc = mc_deltas(&circuit, &eps, 1 << 16, 7);
        let err = mean_abs_diff(&prop, &mc);
        assert!(
            err < PROPAGATION_VS_MC_MEAN_ABS_BOUND,
            "{}: mean |prop − mc| = {err:.4} breaches the pinned bound {}",
            entry.name,
            PROPAGATION_VS_MC_MEAN_ABS_BOUND
        );
    }
}

/// Where reconvergent fanout is mild, the propagation estimate should
/// track the exact BDD closed form closely (same single-error model, the
/// only gap is the independence approximation).
#[test]
fn propagation_tracks_exact_bdd_on_small_suite_circuits() {
    for name in ["x2", "cu", "b9"] {
        let circuit = suite::build(name).expect("known suite name");
        let eps = GateEps::try_uniform(&circuit, PROPAGATION_VS_MC_BOUND_EPS).unwrap();
        let est = PropagationEstimate::try_compute(&circuit, &InputDistribution::Uniform)
            .expect("estimator runs");
        let exact =
            ObservabilityMatrix::compute(&circuit, &InputDistribution::Uniform, Backend::Bdd);
        let err = mean_abs_diff(&est.closed_form(&eps), &exact.closed_form(&eps));
        assert!(
            err < PROPAGATION_VS_MC_MEAN_ABS_BOUND,
            "{name}: mean |prop − exact| = {err:.4}"
        );
    }
}

fn policy_backends(
    circuit: &Circuit,
    eps: &GateEps,
    policy: &EstimatorPolicy,
) -> Result<relogic_estimate::EstimateReport, RelogicError> {
    run_estimate(
        policy,
        |budget| {
            ObservabilityMatrix::try_compute_budgeted(
                circuit,
                &InputDistribution::Uniform,
                1,
                budget,
            )
            .map(|m| m.closed_form(eps))
        },
        || {
            PropagationEstimate::try_compute(circuit, &InputDistribution::Uniform)
                .map(|est| est.closed_form(eps))
        },
        |patterns, seed| {
            let config = MonteCarloConfig {
                patterns,
                seed,
                ..MonteCarloConfig::default()
            };
            Ok(relogic_sim::try_estimate(circuit, eps.as_slice(), &config)?
                .per_output()
                .to_vec())
        },
    )
}

#[test]
fn exact_tier_answers_small_circuits_under_the_default_budget() {
    let circuit = suite::build("x2").expect("x2 exists");
    let eps = GateEps::try_uniform(&circuit, 0.02).unwrap();
    let report = policy_backends(&circuit, &eps, &EstimatorPolicy::default()).unwrap();
    assert_eq!(report.tier, EstimatorTier::Exact);
    assert_eq!(report.diagnostics.tier_exact(), 1);
    assert_eq!(report.diagnostics.estimator_fallbacks(), 0);
    let exact = ObservabilityMatrix::compute(&circuit, &InputDistribution::Uniform, Backend::Bdd);
    assert_eq!(report.per_output, exact.closed_form(&eps));
}

#[test]
fn budget_trip_on_c499_falls_back_to_propagation() {
    let circuit = suite::build("c499").expect("c499 exists");
    let eps = GateEps::try_uniform(&circuit, 0.001).unwrap();
    let policy = EstimatorPolicy {
        bdd_node_budget: 50,
        ..EstimatorPolicy::default()
    };
    let report = policy_backends(&circuit, &eps, &policy).unwrap();
    assert_eq!(report.tier, EstimatorTier::Propagation);
    assert_eq!(report.diagnostics.estimator_fallbacks(), 1);
    assert_eq!(report.diagnostics.tier_propagation(), 1);
    assert!(
        report.reason.contains("live-node budget"),
        "reason must say why the exact tier was abandoned: {}",
        report.reason
    );
}

#[test]
fn saturated_propagation_refines_with_mc() {
    // A deep XOR chain at high ε saturates δ toward ½, tripping the MC
    // refinement threshold.
    let mut circuit = Circuit::new("deep_xor");
    let a = circuit.add_input("a");
    let b = circuit.add_input("b");
    let mut cur = circuit.xor([a, b]);
    for _ in 0..9 {
        cur = circuit.xor([cur, b]);
    }
    circuit.add_output("y", cur);
    let eps = GateEps::try_uniform(&circuit, 0.4).unwrap();
    let policy = EstimatorPolicy {
        bdd_node_budget: 0,
        mc_patterns: 1 << 14,
        mc_seed: 7,
        ..EstimatorPolicy::default()
    };
    let report = policy_backends(&circuit, &eps, &policy).unwrap();
    assert_eq!(report.tier, EstimatorTier::MonteCarlo);
    assert_eq!(report.diagnostics.tier_mc(), 1);
    let prop = report.propagation.as_ref().expect("propagation kept");
    assert!(prop[0] >= 0.35);
    assert!((report.per_output[0] - prop[0]).abs() < 0.05);
}

/// The estimator stack is bit-deterministic: the propagation pass is a
/// pure single-threaded function, and the budgeted exact tier keeps its
/// probe build single-threaded so the budget trips identically no matter
/// how many worker threads the final matrix build uses.
#[test]
fn estimates_are_bit_identical_across_thread_counts() {
    let circuit = suite::build("b9").expect("b9 exists");
    let eps = GateEps::try_uniform(&circuit, 0.02).unwrap();
    let a = ObservabilityMatrix::try_compute_budgeted(
        &circuit,
        &InputDistribution::Uniform,
        1,
        5_000_000,
    )
    .unwrap()
    .closed_form(&eps);
    let b = ObservabilityMatrix::try_compute_budgeted(
        &circuit,
        &InputDistribution::Uniform,
        4,
        5_000_000,
    )
    .unwrap()
    .closed_form(&eps);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b));

    let p1 = PropagationEstimate::try_compute(&circuit, &InputDistribution::Uniform).unwrap();
    let p2 = PropagationEstimate::try_compute(&circuit, &InputDistribution::Uniform).unwrap();
    assert_eq!(bits(&p1.closed_form(&eps)), bits(&p2.closed_form(&eps)));
}

/// A tiny budget must trip deterministically — same error, same counts —
/// so escalation decisions are reproducible.
#[test]
fn budget_trips_are_deterministic() {
    let circuit = suite::build("c499").expect("c499 exists");
    let a = ObservabilityMatrix::try_compute_budgeted(&circuit, &InputDistribution::Uniform, 1, 50)
        .unwrap_err();
    let b = ObservabilityMatrix::try_compute_budgeted(&circuit, &InputDistribution::Uniform, 4, 50)
        .unwrap_err();
    assert_eq!(a, b);
    assert!(matches!(a, RelogicError::BddBudgetExceeded { .. }));
}
