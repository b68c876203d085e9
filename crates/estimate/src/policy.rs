//! The auto-escalating estimator policy.
//!
//! [`run_estimate`] arbitrates between three backends, in fixed order:
//!
//! 1. **Exact** — the caller's exact closure, handed the BDD live-node
//!    budget. Any failure (budget trip, arity limit, variable-space
//!    exhaustion …) records one estimator fallback in the report's
//!    [`Diagnostics`] and escalates; exact failures are never silent. A
//!    budget trip also records the tripped manager's BDD engine
//!    statistics there.
//! 2. **Propagation** — the linear propagation-probability estimator.
//! 3. **Monte Carlo** — when the propagation answer saturates toward the
//!    δ = ½ ceiling (where the independence closed form loses
//!    resolution), the answer is refined by the caller's MC closure.
//!
//! The tier that produced the answer — and why — is recorded in the
//! report; the diagnostics tier counters feed the serve daemon's
//! `stats`/`health` surfaces.

use relogic::{CancelToken, Diagnostics, RelogicError};

/// Default BDD live-node budget for the exact tier. Roomy enough for every
/// gen-suite circuit (c499's base build peaks well below it) while
/// aborting multiplier-class blow-ups within a couple of seconds.
pub const DEFAULT_BDD_NODE_BUDGET: usize = 2_000_000;

/// Default δ saturation threshold above which the propagation answer is
/// refined with Monte Carlo. Near δ = ½ the closed form's product of
/// `(1 − 2 ε ô)` factors has collapsed toward zero and carries little
/// resolution, so sampling is the better spend.
pub const DEFAULT_MC_DELTA_THRESHOLD: f64 = 0.35;

/// Which backend produced an estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorTier {
    /// Exact observability analysis (BDD backend) under the node budget.
    Exact,
    /// The propagation-probability estimator.
    Propagation,
    /// Tape Monte Carlo refinement.
    MonteCarlo,
}

impl EstimatorTier {
    /// Stable lower-case name used on every wire surface (CLI JSON, serve
    /// responses, stats counters).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EstimatorTier::Exact => "exact",
            EstimatorTier::Propagation => "propagation",
            EstimatorTier::MonteCarlo => "mc",
        }
    }
}

/// Escalation knobs for [`run_estimate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimatorPolicy {
    /// Live-node budget handed to the exact tier. `0` skips the exact
    /// tier entirely (recorded as a fallback with that reason).
    pub bdd_node_budget: usize,
    /// Pattern budget for the Monte Carlo refinement tier.
    pub mc_patterns: u64,
    /// Base seed for the Monte Carlo refinement tier.
    pub mc_seed: u64,
    /// Worst per-output δ above which a propagation answer escalates to
    /// Monte Carlo.
    pub mc_delta_threshold: f64,
}

impl Default for EstimatorPolicy {
    fn default() -> Self {
        EstimatorPolicy {
            bdd_node_budget: DEFAULT_BDD_NODE_BUDGET,
            mc_patterns: 65_536,
            mc_seed: 1,
            mc_delta_threshold: DEFAULT_MC_DELTA_THRESHOLD,
        }
    }
}

/// The outcome of one [`run_estimate`] call.
#[derive(Clone, Debug)]
pub struct EstimateReport {
    /// The tier whose numbers are in [`EstimateReport::per_output`].
    pub tier: EstimatorTier,
    /// Human-readable explanation of why that tier answered.
    pub reason: String,
    /// Per-output error probabilities δ from the answering tier.
    pub per_output: Vec<f64>,
    /// The propagation tier's δ values, kept alongside a Monte Carlo
    /// refinement so callers can see the escalation gap. `None` when the
    /// exact tier answered.
    pub propagation: Option<Vec<f64>>,
    /// Tier counters (exact/propagation/mc + fallbacks) for this run,
    /// mergeable into a service-wide accumulator.
    pub diagnostics: Diagnostics,
}

/// Runs the escalation policy over three caller-supplied backends.
///
/// The closures keep this crate decoupled from how each tier is actually
/// materialized: `relogic_serve::api::estimate` hands in a serve artifact's
/// accessors for the daemon and the CLI alike. Each closure returns the
/// per-output δ vector for the request's ε configuration.
///
/// * `exact(budget)` — exact analysis bounded by `budget` live BDD nodes.
/// * `propagation()` — the propagation-probability estimate.
/// * `mc(patterns, seed)` — tape Monte Carlo.
///
/// # Errors
///
/// An exact-tier failure is policy (it escalates); a propagation or Monte
/// Carlo failure is a real error and is returned.
pub fn run_estimate<X, P, M>(
    policy: &EstimatorPolicy,
    exact: X,
    propagation: P,
    mc: M,
) -> Result<EstimateReport, RelogicError>
where
    X: FnOnce(usize) -> Result<Vec<f64>, RelogicError>,
    P: FnOnce() -> Result<Vec<f64>, RelogicError>,
    M: FnOnce(u64, u64) -> Result<Vec<f64>, RelogicError>,
{
    let never = CancelToken::new();
    run_estimate_cancellable(policy, &never, exact, propagation, mc)
}

/// Like [`run_estimate`], checking `cancel` before entering each tier.
///
/// Cancellation is *not* an escalation trigger: an exact tier that stops
/// on the token returns [`RelogicError::Cancelled`] outright instead of
/// falling back — the caller asked the whole request to stop, and running
/// a cheaper tier would only burn time past the deadline. Only genuine
/// exact-tier failures (budget trips, arity limits …) escalate.
///
/// # Errors
///
/// [`RelogicError::Cancelled`] once the token fires, otherwise as
/// [`run_estimate`].
pub fn run_estimate_cancellable<X, P, M>(
    policy: &EstimatorPolicy,
    cancel: &CancelToken,
    exact: X,
    propagation: P,
    mc: M,
) -> Result<EstimateReport, RelogicError>
where
    X: FnOnce(usize) -> Result<Vec<f64>, RelogicError>,
    P: FnOnce() -> Result<Vec<f64>, RelogicError>,
    M: FnOnce(u64, u64) -> Result<Vec<f64>, RelogicError>,
{
    let mut diagnostics = Diagnostics::new();

    cancel.check("estimate_exact_tier")?;
    let exact_failure = if policy.bdd_node_budget == 0 {
        "exact tier disabled (budget 0)".to_owned()
    } else {
        match exact(policy.bdd_node_budget) {
            Ok(per_output) => {
                diagnostics.record_tier_exact();
                return Ok(EstimateReport {
                    tier: EstimatorTier::Exact,
                    reason: format!(
                        "exact tier answered under the {}-node budget",
                        policy.bdd_node_budget
                    ),
                    per_output,
                    propagation: None,
                    diagnostics,
                });
            }
            Err(e @ RelogicError::Cancelled(_)) => return Err(e),
            Err(e) => {
                if let RelogicError::BddBudgetExceeded { stats, .. } = &e {
                    diagnostics.record_bdd_stats(*stats);
                }
                format!("exact tier failed: {e}")
            }
        }
    };
    diagnostics.record_estimator_fallback();

    cancel.check("estimate_propagation_tier")?;
    let prop = propagation()?;
    let worst = prop.iter().fold(0.0f64, |a, &d| a.max(d));
    if worst >= policy.mc_delta_threshold {
        cancel.check("estimate_mc_tier")?;
        let refined = mc(policy.mc_patterns, policy.mc_seed)?;
        diagnostics.record_tier_mc();
        return Ok(EstimateReport {
            tier: EstimatorTier::MonteCarlo,
            reason: format!(
                "{exact_failure}; propagation δ {worst:.3} ≥ {:.3} saturation threshold, refined with {} MC patterns",
                policy.mc_delta_threshold, policy.mc_patterns
            ),
            per_output: refined,
            propagation: Some(prop),
            diagnostics,
        });
    }
    diagnostics.record_tier_propagation();
    Ok(EstimateReport {
        tier: EstimatorTier::Propagation,
        reason: format!(
            "{exact_failure}; propagation δ {worst:.3} under the {:.3} saturation threshold",
            policy.mc_delta_threshold
        ),
        per_output: prop.clone(),
        propagation: Some(prop),
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(_: usize) -> Result<Vec<f64>, RelogicError> {
        Err(RelogicError::BddBudgetExceeded {
            live_nodes: 123,
            budget: 100,
            stats: relogic::BddEngineStats {
                live_nodes: 100,
                peak_live_nodes: 100,
                cache_misses: 40,
                ..relogic::BddEngineStats::default()
            },
        })
    }

    #[test]
    fn exact_success_short_circuits() {
        let report = run_estimate(
            &EstimatorPolicy::default(),
            |budget| {
                assert_eq!(budget, DEFAULT_BDD_NODE_BUDGET);
                Ok(vec![0.1])
            },
            || panic!("propagation must not run"),
            |_, _| panic!("mc must not run"),
        )
        .unwrap();
        assert_eq!(report.tier, EstimatorTier::Exact);
        assert_eq!(report.per_output, vec![0.1]);
        assert_eq!(report.diagnostics.tier_exact(), 1);
        assert_eq!(report.diagnostics.estimator_fallbacks(), 0);
        assert!(report.propagation.is_none());
    }

    #[test]
    fn exact_failure_falls_back_to_propagation_with_counter() {
        let report = run_estimate(
            &EstimatorPolicy::default(),
            fail,
            || Ok(vec![0.05, 0.2]),
            |_, _| panic!("below the threshold, mc must not run"),
        )
        .unwrap();
        assert_eq!(report.tier, EstimatorTier::Propagation);
        assert_eq!(report.diagnostics.estimator_fallbacks(), 1);
        assert_eq!(report.diagnostics.tier_propagation(), 1);
        assert!(
            report.reason.contains("live-node budget"),
            "{}",
            report.reason
        );
        // The trip's engine statistics join the report.
        let bdd = report.diagnostics.bdd_stats().expect("trip statistics");
        assert_eq!((bdd.peak_live_nodes, bdd.cache_misses), (100, 40));
    }

    #[test]
    fn saturated_propagation_escalates_to_mc() {
        let policy = EstimatorPolicy {
            mc_patterns: 512,
            mc_seed: 9,
            ..Default::default()
        };
        let report = run_estimate(
            &policy,
            fail,
            || Ok(vec![0.1, 0.49]),
            |patterns, seed| {
                assert_eq!((patterns, seed), (512, 9));
                Ok(vec![0.12, 0.47])
            },
        )
        .unwrap();
        assert_eq!(report.tier, EstimatorTier::MonteCarlo);
        assert_eq!(report.per_output, vec![0.12, 0.47]);
        assert_eq!(report.propagation, Some(vec![0.1, 0.49]));
        assert_eq!(report.diagnostics.tier_mc(), 1);
        assert_eq!(report.diagnostics.estimator_fallbacks(), 1);
    }

    #[test]
    fn zero_budget_disables_the_exact_tier() {
        let policy = EstimatorPolicy {
            bdd_node_budget: 0,
            ..Default::default()
        };
        let report = run_estimate(
            &policy,
            |_| panic!("exact must not run with budget 0"),
            || Ok(vec![0.01]),
            |_, _| panic!("mc must not run"),
        )
        .unwrap();
        assert_eq!(report.tier, EstimatorTier::Propagation);
        assert!(report.reason.contains("disabled"));
        assert_eq!(report.diagnostics.estimator_fallbacks(), 1);
        assert!(report.diagnostics.bdd_stats().is_none());
    }

    #[test]
    fn cancelled_exact_tier_does_not_fall_back() {
        // A cancelled exact tier must return the cancellation, not
        // escalate to the cheaper tiers.
        let err = run_estimate_cancellable(
            &EstimatorPolicy::default(),
            &CancelToken::new(),
            |_| {
                Err(RelogicError::Cancelled(relogic::Cancelled {
                    after: std::time::Duration::from_millis(7),
                    checked_at: "obs_node",
                }))
            },
            || panic!("cancelled exact tier must not fall back to propagation"),
            |_, _| panic!("cancelled exact tier must not fall back to mc"),
        )
        .unwrap_err();
        assert!(matches!(err, RelogicError::Cancelled(_)), "{err}");
    }

    #[test]
    fn pre_fired_token_stops_before_any_tier_runs() {
        let fired = CancelToken::new();
        fired.cancel();
        let err = run_estimate_cancellable(
            &EstimatorPolicy::default(),
            &fired,
            |_| panic!("exact must not run under a fired token"),
            || panic!("propagation must not run under a fired token"),
            |_, _| panic!("mc must not run under a fired token"),
        )
        .unwrap_err();
        match err {
            RelogicError::Cancelled(c) => assert_eq!(c.checked_at, "estimate_exact_tier"),
            other => panic!("expected Cancelled, got {other}"),
        }
    }

    #[test]
    fn propagation_failure_is_a_real_error() {
        let err = run_estimate(
            &EstimatorPolicy::default(),
            fail,
            || Err(RelogicError::EmptyCircuit),
            |_, _| Ok(vec![]),
        )
        .unwrap_err();
        assert_eq!(err, RelogicError::EmptyCircuit);
    }
}
