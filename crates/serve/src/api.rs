//! Request-kind work shared by the daemon and the one-shot CLI: the
//! `estimate` tier wiring over an [`Artifact`], and the result-object
//! builders behind the daemon's replies and the CLI's `--json` output.
//!
//! Both surfaces call these functions with the same inputs and encode the
//! returned [`Json`] with the same encoder, so a script migrating from
//! `relogic-cli analyze --json` to the socket protocol parses an identical
//! schema — the only divergence is the `"cache"` member the caller appends
//! (`"hit"`/`"miss"` on the server, `"bypass"` on the one-shot CLI).

use crate::cache::{Artifact, CacheCounters};
use crate::json::Json;
use crate::proto::{AnalyzeRequestOptions, ServeError};
use relogic::{CancelToken, GateEps, ObservabilityMatrix, RelogicError, SinglePass, Weights};
use relogic_estimate::{
    CriticalEpsReport, EstimateReport, EstimatorPolicy, HardenReport, ParetoPoint,
};
use relogic_netlist::Circuit;
use relogic_sim::MonteCarloConfig;

fn output_names(circuit: &Circuit) -> Json {
    Json::Arr(
        circuit
            .outputs()
            .iter()
            .map(|o| Json::from(o.name()))
            .collect(),
    )
}

fn delta_array(deltas: &[f64]) -> Json {
    Json::Arr(deltas.iter().map(|&d| Json::Num(d)).collect())
}

fn diagnostics_json(d: &relogic::Diagnostics) -> Json {
    Json::obj([
        ("prob_clamps", Json::from(d.prob_clamps())),
        ("coeff_saturations", Json::from(d.coeff_saturations())),
        ("theta_clamps", Json::from(d.theta_clamps())),
        (
            "correlation_fallbacks",
            Json::from(d.correlation_fallbacks()),
        ),
        ("worst_excursion", Json::Num(d.worst_excursion())),
    ])
}

/// Runs the §4/§4.1 single-pass engine at each ε point and builds the
/// `analyze` result object.
///
/// # Errors
///
/// Propagates engine errors ([`relogic::RelogicError`]) as typed
/// [`ServeError`]s.
pub fn analyze_result(
    circuit: &Circuit,
    weights: &Weights,
    eps: &[f64],
    options: &AnalyzeRequestOptions,
) -> Result<Json, ServeError> {
    analyze_result_cancellable(circuit, weights, eps, options, &CancelToken::new())
}

/// Like [`analyze_result`], but polls `cancel` between ε points so a
/// multi-point sweep unwinds promptly on a fired deadline. A run that
/// completes produces exactly the same object as [`analyze_result`].
///
/// # Errors
///
/// Engine errors, plus [`ServeError::DeadlineExceeded`] when the token
/// fires between points (site `"analyze_point"`) or inside the engine.
pub fn analyze_result_cancellable(
    circuit: &Circuit,
    weights: &Weights,
    eps: &[f64],
    options: &AnalyzeRequestOptions,
    cancel: &CancelToken,
) -> Result<Json, ServeError> {
    let engine = SinglePass::try_new(circuit, weights, options.single_pass.clone())
        .map_err(ServeError::from)?;
    let mut diagnostics = relogic::Diagnostics::new();
    let mut points = Vec::with_capacity(eps.len());
    for &e in eps {
        cancel
            .check("analyze_point")
            .map_err(relogic::RelogicError::from)
            .map_err(ServeError::from)?;
        let gate_eps = GateEps::try_uniform(circuit, e).map_err(ServeError::from)?;
        let result = engine.try_run(&gate_eps).map_err(ServeError::from)?;
        let mut point = Json::obj([
            ("eps", Json::Num(e)),
            ("delta", delta_array(result.per_output())),
        ]);
        if options.per_node {
            let nodes: Vec<Json> = circuit
                .iter()
                .filter(|(_, node)| node.kind().is_gate())
                .map(|(id, _)| {
                    Json::obj([
                        ("node", Json::from(circuit.display_name(id))),
                        ("p01", Json::Num(result.p01(id))),
                        ("p10", Json::Num(result.p10(id))),
                        ("delta", Json::Num(result.node_delta(id))),
                    ])
                })
                .collect();
            point.push("per_node", Json::Arr(nodes));
        }
        points.push(point);
        diagnostics.merge(result.diagnostics());
    }
    let mut result = Json::obj([
        ("outputs", output_names(circuit)),
        ("points", Json::Arr(points)),
    ]);
    if options.diagnostics {
        result.push("diagnostics", diagnostics_json(&diagnostics));
    }
    Ok(result)
}

/// Evaluates the §3 closed form at each ε point and builds the
/// `observability` result object.
///
/// # Errors
///
/// Propagates ε-validation errors as typed [`ServeError`]s.
pub fn observability_result(
    circuit: &Circuit,
    observability: &ObservabilityMatrix,
    eps: &[f64],
    per_gate: bool,
) -> Result<Json, ServeError> {
    let mut points = Vec::with_capacity(eps.len());
    for &e in eps {
        let gate_eps = GateEps::try_uniform(circuit, e).map_err(ServeError::from)?;
        points.push(Json::obj([
            ("eps", Json::Num(e)),
            ("delta", delta_array(&observability.closed_form(&gate_eps))),
        ]));
    }
    let mut result = Json::obj([
        ("outputs", output_names(circuit)),
        ("points", Json::Arr(points)),
    ]);
    if per_gate {
        let gates: Vec<Json> = circuit
            .iter()
            .filter(|(_, node)| node.kind().is_gate())
            .map(|(id, _)| {
                Json::obj([
                    ("node", Json::from(circuit.display_name(id))),
                    ("observability", Json::Num(observability.any(id))),
                ])
            })
            .collect();
        result.push("per_gate", Json::Arr(gates));
    }
    Ok(result)
}

/// Runs Monte Carlo fault injection on a pre-compiled
/// [`relogic_sim::CircuitTape`] (e.g. one cached on a serve artifact) and
/// builds the `monte_carlo` result object. Same seed ⇒ bit-identical
/// result for any thread count or client interleaving.
///
/// # Errors
///
/// Any validation error of the ε value or Monte Carlo configuration.
pub fn monte_carlo_result_tape(
    circuit: &Circuit,
    tape: &relogic_sim::CircuitTape,
    eps: f64,
    config: &MonteCarloConfig,
) -> Result<Json, ServeError> {
    monte_carlo_result_tape_cancellable(circuit, tape, eps, config, &CancelToken::new())
}

/// Like [`monte_carlo_result_tape`], but the tape engine polls `cancel`
/// at every chunk hand-out. Completed runs are bit-identical to
/// [`monte_carlo_result_tape`] — the token never alters the RNG stream or
/// the merge order, only whether an answer is produced.
///
/// # Errors
///
/// Validation errors, plus [`ServeError::DeadlineExceeded`] when the
/// token fires mid-simulation.
pub fn monte_carlo_result_tape_cancellable(
    circuit: &Circuit,
    tape: &relogic_sim::CircuitTape,
    eps: f64,
    config: &MonteCarloConfig,
    cancel: &CancelToken,
) -> Result<Json, ServeError> {
    let gate_eps = GateEps::try_uniform(circuit, eps).map_err(ServeError::from)?;
    let estimate = relogic_sim::try_estimate_tape_cancellable(
        circuit,
        tape,
        gate_eps.as_slice(),
        config,
        relogic_sim::DEFAULT_LANES,
        cancel,
    )
    .map_err(ServeError::from)?;
    monte_carlo_json(circuit, eps, config, &estimate)
}

/// The tiered estimate of `artifact` at uniform gate error `eps`: the
/// exact tier under `policy.bdd_node_budget`, then the propagation
/// estimator, then Monte Carlo on the artifact's tape when the propagation
/// answer saturates (see [`relogic_estimate::run_estimate_cancellable`]).
///
/// The exact tier reads the artifact's observability slot: a matrix
/// already in memory or verified on disk answers for free; otherwise the
/// budgeted build runs, and a completed build fills the slot and is
/// written through, while a budget trip or cancellation is never cached.
/// `threads` drives the BDD build and the Monte Carlo tier (answers are
/// identical for every count). The exact tier is a BDD computation, so
/// callers hand in the BDD-backed artifact of the circuit.
///
/// # Errors
///
/// Propagation and Monte Carlo failures, ε-validation errors, and
/// [`RelogicError::Cancelled`] once `cancel` fires.
pub fn estimate(
    artifact: &Artifact,
    counters: &CacheCounters,
    eps: f64,
    policy: &EstimatorPolicy,
    threads: usize,
    cancel: &CancelToken,
) -> Result<EstimateReport, RelogicError> {
    let circuit = artifact.circuit();
    let gate_eps = GateEps::try_uniform(circuit, eps)?;
    relogic_estimate::run_estimate_cancellable(
        policy,
        cancel,
        |budget| {
            artifact
                .observability_within(counters, threads, Some(budget), cancel)
                .map(|matrix| matrix.closed_form(&gate_eps))
        },
        || {
            artifact
                .propagation_estimate(counters, cancel)
                .map(|est| est.closed_form(&gate_eps))
        },
        |patterns, seed| {
            let config = MonteCarloConfig {
                patterns,
                seed,
                threads,
                ..MonteCarloConfig::default()
            };
            Ok(relogic_sim::try_estimate_tape_cancellable(
                circuit,
                artifact.tape(counters),
                gate_eps.as_slice(),
                &config,
                relogic_sim::DEFAULT_LANES,
                cancel,
            )?
            .per_output()
            .to_vec())
        },
    )
}

/// Builds the `estimate` result object from a tiered-estimation report:
/// which tier answered, why, the per-output δ it produced, and (when the
/// Monte Carlo tier refined a saturated estimate) the propagation deltas
/// it replaced.
#[must_use]
pub fn estimate_result(circuit: &Circuit, eps: f64, report: &EstimateReport) -> Json {
    let mut result = Json::obj([
        ("eps", Json::Num(eps)),
        ("tier", Json::from(report.tier.name())),
        ("reason", Json::from(report.reason.as_str())),
        ("outputs", output_names(circuit)),
        ("delta", delta_array(&report.per_output)),
        (
            "estimator_fallbacks",
            Json::from(report.diagnostics.estimator_fallbacks()),
        ),
    ]);
    if let Some(prop) = &report.propagation {
        result.push("propagation", delta_array(prop));
    }
    result
}

fn pareto_point_json(point: &ParetoPoint) -> Json {
    Json::obj([
        ("protected", Json::from(point.protected)),
        ("gates", Json::from(point.gates)),
        ("area_ratio", Json::Num(point.area_ratio)),
        ("mean_delta", Json::Num(point.mean_delta)),
        ("max_delta", Json::Num(point.max_delta)),
    ])
}

/// Builds the `harden` result object: the unprotected baseline, every
/// evaluated TMR candidate, the non-dominated reliability-per-area front,
/// and the gate protection order with criticalities.
#[must_use]
pub fn harden_result(circuit: &Circuit, eps: f64, area_budget: f64, report: &HardenReport) -> Json {
    let points = |ps: &[ParetoPoint]| Json::Arr(ps.iter().map(pareto_point_json).collect());
    let ranking: Vec<Json> = report
        .ranking
        .iter()
        .map(|&(id, criticality)| {
            Json::obj([
                ("node", Json::from(circuit.display_name(id))),
                ("criticality", Json::Num(criticality)),
            ])
        })
        .collect();
    Json::obj([
        ("eps", Json::Num(eps)),
        ("area_budget", Json::Num(area_budget)),
        ("baseline", pareto_point_json(&report.baseline)),
        ("evaluated", points(&report.evaluated)),
        ("front", points(&report.front)),
        ("ranking", Json::Arr(ranking)),
    ])
}

/// Builds the `critical_eps` result object: whether δ crosses the
/// threshold in `ε ∈ [0, ½]`, the bisected critical ε (or null), and the
/// final bracket.
#[must_use]
pub fn critical_eps_result(circuit: &Circuit, report: &CriticalEpsReport) -> Json {
    Json::obj([
        ("metric", Json::from(report.metric.name())),
        ("threshold", Json::Num(report.threshold)),
        ("outputs", output_names(circuit)),
        ("crossed", Json::from(report.crossed)),
        ("critical", report.critical.map_or(Json::Null, Json::Num)),
        ("lo", Json::Num(report.lo)),
        ("hi", Json::Num(report.hi)),
        ("delta_lo", Json::Num(report.delta_lo)),
        ("delta_hi", Json::Num(report.delta_hi)),
        ("steps", Json::from(report.steps)),
    ])
}

fn monte_carlo_json(
    circuit: &Circuit,
    eps: f64,
    config: &MonteCarloConfig,
    estimate: &relogic_sim::ReliabilityEstimate,
) -> Result<Json, ServeError> {
    let std_errors: Vec<Json> = (0..circuit.output_count())
        .map(|k| Json::Num(estimate.std_error(k)))
        .collect();
    Ok(Json::obj([
        ("eps", Json::Num(eps)),
        ("patterns", Json::from(estimate.patterns())),
        ("seed", Json::from(config.seed)),
        ("outputs", output_names(circuit)),
        ("delta", delta_array(estimate.per_output())),
        ("std_error", Json::Arr(std_errors)),
        ("any_output", Json::Num(estimate.any_output())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic::{Backend, InputDistribution, SinglePassOptions};

    fn small() -> Circuit {
        relogic_netlist::bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOT(t)\n")
            .unwrap()
    }

    fn options() -> AnalyzeRequestOptions {
        AnalyzeRequestOptions {
            single_pass: SinglePassOptions::default(),
            diagnostics: false,
            per_node: false,
        }
    }

    #[test]
    fn analyze_result_shape_and_values() {
        let c = small();
        let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let r = analyze_result(&c, &w, &[0.1], &options()).unwrap();
        let points = r.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 1);
        let delta = points[0].get("delta").and_then(Json::as_array).unwrap();
        // Two noisy gates in series: δ = 2·0.1·0.9 = 0.18.
        assert!((delta[0].as_f64().unwrap() - 0.18).abs() < 1e-12);
        assert!(r.get("diagnostics").is_none());
    }

    #[test]
    fn analyze_per_node_and_diagnostics_sections() {
        let c = small();
        let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let mut opts = options();
        opts.per_node = true;
        opts.diagnostics = true;
        let r = analyze_result(&c, &w, &[0.05, 0.1], &opts).unwrap();
        let points = r.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 2);
        let per_node = points[0].get("per_node").and_then(Json::as_array).unwrap();
        assert_eq!(per_node.len(), 2, "two gates");
        assert!(r.get("diagnostics").is_some());
    }

    #[test]
    fn observability_result_matches_closed_form() {
        let c = small();
        let obs = ObservabilityMatrix::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd)
            .unwrap();
        let r = observability_result(&c, &obs, &[0.1], true).unwrap();
        let points = r.get("points").and_then(Json::as_array).unwrap();
        let delta = points[0].get("delta").and_then(Json::as_array).unwrap();
        let expected = obs.closed_form(&GateEps::try_uniform(&c, 0.1).unwrap());
        assert_eq!(delta[0].as_f64().unwrap(), expected[0]);
        assert!(r.get("per_gate").is_some());
    }

    #[test]
    fn monte_carlo_result_is_deterministic() {
        let c = small();
        let cfg = MonteCarloConfig {
            patterns: 4096,
            seed: 11,
            ..MonteCarloConfig::default()
        };
        let tape = relogic_sim::CircuitTape::compile(&c);
        let a = monte_carlo_result_tape(&c, &tape, 0.1, &cfg)
            .unwrap()
            .encode();
        let mut cfg2 = cfg.clone();
        cfg2.threads = 7;
        let b = monte_carlo_result_tape(&c, &tape, 0.1, &cfg2)
            .unwrap()
            .encode();
        assert_eq!(a, b, "thread count must not change the estimate");
    }

    #[test]
    fn invalid_eps_is_a_typed_analysis_error() {
        let c = small();
        let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let err = analyze_result(&c, &w, &[1.5], &options()).unwrap_err();
        assert_eq!(err.code(), "analysis_error");
    }
}
