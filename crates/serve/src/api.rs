//! Request-kind work shared by the daemon and the one-shot CLI: [`run`]
//! executes one analysis [`Request`] against an [`Artifact`] and returns a
//! typed [`Outcome`], and [`Outcome::to_json`] encodes it with the
//! result-object builders behind the daemon's replies and the CLI's
//! `--json` output.
//!
//! Both surfaces build the same [`Request`], call [`run`] and encode the
//! outcome with the same encoder, so a script migrating from
//! `relogic-cli analyze --json` to the socket protocol parses an identical
//! schema — the only divergence is the `"cache"` member the caller appends
//! (`"hit"`/`"miss"` on the server, `"bypass"` on the one-shot CLI).

use crate::cache::{Artifact, CacheCounters};
use crate::json::Json;
use crate::proto::{AnalyzeRequestOptions, Request, ServeError};
use relogic::{
    CancelToken, GateEps, ObservabilityMatrix, RelogicError, SinglePass, SinglePassResult,
    SweepTape, Weights,
};
use relogic_estimate::{
    CriticalEpsReport, EstimateReport, EstimatorPolicy, HardenReport, ParetoPoint,
};
use relogic_netlist::Circuit;
use relogic_sim::{CircuitTape, MonteCarloConfig, ReliabilityEstimate};

/// What [`run`] computed for one analysis request.
#[derive(Debug)]
pub enum Outcome<'a> {
    /// `analyze`: one single-pass result per ε point.
    Analyze(Vec<SinglePassResult>),
    /// `observability`: the artifact's §3 matrix.
    Observability(&'a ObservabilityMatrix),
    /// `monte_carlo`: the tape estimate.
    MonteCarlo(ReliabilityEstimate),
    /// `estimate`: which tier answered, and its deltas.
    Estimate(EstimateReport),
    /// `harden`: the selective-TMR sweep.
    Harden(HardenReport),
    /// `critical_eps`: the bisection.
    CriticalEps(CriticalEpsReport),
}

/// Runs one analysis request against `artifact`, materializing the slots
/// its kind reads. `threads` is the worker count of the BDD, sampled
/// weight and estimator passes (`0` auto-detects; answers are identical
/// for every count); a
/// `monte_carlo` request names its own. The artifact must be the one
/// built from [`Request::payload`]. `estimate` escalates from the exact
/// tier under the request's node budget to the propagation estimator, then
/// to Monte Carlo when that answer saturates (see
/// [`relogic_estimate::run_estimate_cancellable`]).
///
/// # Errors
///
/// The engines' typed errors, [`ServeError::DeadlineExceeded`] once
/// `cancel` fires, and [`ServeError::BadRequest`] for `stats`/`health`,
/// which read the service rather than a circuit.
pub fn run<'a>(
    request: &Request,
    artifact: &'a Artifact,
    counters: &CacheCounters,
    threads: usize,
    cancel: &CancelToken,
) -> Result<Outcome<'a>, ServeError> {
    let circuit = artifact.circuit();
    Ok(match request {
        Request::Analyze { eps, options, .. } => {
            let weights = artifact.weights(counters, threads, cancel)?;
            Outcome::Analyze(analyze_points(circuit, weights, eps, options, cancel)?)
        }
        Request::Observability { .. } => {
            Outcome::Observability(artifact.observability(counters, threads, cancel)?)
        }
        Request::MonteCarlo {
            eps,
            patterns,
            seed,
            threads,
            ..
        } => {
            let config = MonteCarloConfig {
                patterns: *patterns,
                seed: *seed,
                threads: *threads,
                ..MonteCarloConfig::default()
            };
            let tape = artifact.tape(counters);
            Outcome::MonteCarlo(monte_carlo(circuit, tape, *eps, &config, cancel)?)
        }
        Request::Estimate {
            eps,
            bdd_node_budget,
            patterns,
            seed,
            ..
        } => {
            let policy = EstimatorPolicy {
                bdd_node_budget: *bdd_node_budget,
                mc_patterns: *patterns,
                mc_seed: *seed,
                ..EstimatorPolicy::default()
            };
            let gate_eps = GateEps::try_uniform(circuit, *eps)?;
            // The exact tier reads the observability slot: a matrix in
            // memory or verified on disk answers for free; otherwise the
            // budgeted build runs, and only a completed build fills the
            // slot. The Monte Carlo tier runs on the artifact's tape.
            Outcome::Estimate(relogic_estimate::run_estimate_cancellable(
                &policy,
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
                    Ok(relogic_sim::try_estimate_tape(
                        circuit,
                        artifact.tape(counters),
                        gate_eps.as_slice(),
                        &config,
                        cancel,
                    )?
                    .per_output()
                    .to_vec())
                },
            )?)
        }
        Request::Harden {
            eps,
            area_budget,
            max_steps,
            ..
        } => Outcome::Harden(relogic_estimate::harden_cancellable(
            circuit,
            artifact.propagation_estimate(counters, cancel)?,
            *eps,
            *area_budget,
            *max_steps,
            cancel,
        )?),
        Request::CriticalEps {
            threshold,
            metric,
            max_steps,
            ..
        } => {
            let tape = SweepTape::try_new(circuit, artifact.weights(counters, threads, cancel)?)?;
            Outcome::CriticalEps(relogic_estimate::critical_eps_cancellable(
                circuit, &tape, *metric, *threshold, *max_steps, cancel,
            )?)
        }
        Request::Stats | Request::Health => {
            return Err(ServeError::BadRequest(format!(
                "`{}` reads the service, not a circuit",
                request.kind()
            )))
        }
    })
}

impl Outcome<'_> {
    /// The result object answering `request`, the request [`run`] ran to
    /// produce this outcome, on `circuit`, the artifact's.
    ///
    /// # Errors
    ///
    /// ε-validation errors of the `observability` closed form, and
    /// [`ServeError::Internal`] for an outcome of another kind.
    pub fn to_json(&self, request: &Request, circuit: &Circuit) -> Result<Json, ServeError> {
        Ok(match (self, request) {
            (Outcome::Analyze(points), Request::Analyze { eps, options, .. }) => {
                analyze_json(circuit, eps, options, points)
            }
            (Outcome::Observability(matrix), Request::Observability { eps, per_gate, .. }) => {
                return observability_result(circuit, matrix, eps, *per_gate)
            }
            (Outcome::MonteCarlo(estimate), Request::MonteCarlo { eps, seed, .. }) => {
                monte_carlo_json(circuit, *eps, *seed, estimate)
            }
            (Outcome::Estimate(report), Request::Estimate { eps, .. }) => {
                estimate_result(circuit, *eps, report)
            }
            (
                Outcome::Harden(report),
                Request::Harden {
                    eps, area_budget, ..
                },
            ) => harden_result(circuit, *eps, *area_budget, report),
            (Outcome::CriticalEps(report), Request::CriticalEps { .. }) => {
                critical_eps_result(circuit, report)
            }
            _ => {
                return Err(ServeError::Internal(format!(
                    "a `{}` request cannot encode this outcome",
                    request.kind()
                )))
            }
        })
    }
}

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
    let points = analyze_points(circuit, weights, eps, options, &CancelToken::new())?;
    Ok(analyze_json(circuit, eps, options, &points))
}

/// The single pass at each ε point, polling `cancel` between points so a
/// multi-point sweep unwinds promptly (site `"analyze_point"`).
fn analyze_points(
    circuit: &Circuit,
    weights: &Weights,
    eps: &[f64],
    options: &AnalyzeRequestOptions,
    cancel: &CancelToken,
) -> Result<Vec<SinglePassResult>, ServeError> {
    let engine = SinglePass::try_new(circuit, weights, options.single_pass.clone())?;
    let mut points = Vec::with_capacity(eps.len());
    for &e in eps {
        cancel.check("analyze_point").map_err(RelogicError::from)?;
        points.push(engine.try_run(&GateEps::try_uniform(circuit, e)?)?);
    }
    Ok(points)
}

fn analyze_json(
    circuit: &Circuit,
    eps: &[f64],
    options: &AnalyzeRequestOptions,
    points: &[SinglePassResult],
) -> Json {
    let mut diagnostics = relogic::Diagnostics::new();
    let mut encoded = Vec::with_capacity(points.len());
    for (&e, result) in eps.iter().zip(points) {
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
        encoded.push(point);
        diagnostics.merge(result.diagnostics());
    }
    let mut result = Json::obj([
        ("outputs", output_names(circuit)),
        ("points", Json::Arr(encoded)),
    ]);
    if options.diagnostics {
        result.push("diagnostics", diagnostics_json(&diagnostics));
    }
    result
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

/// Runs Monte Carlo fault injection on a pre-compiled [`CircuitTape`]
/// (e.g. one cached on a serve artifact) and builds the `monte_carlo`
/// result object. Same seed ⇒ bit-identical result for any thread count
/// or client interleaving.
///
/// # Errors
///
/// Any validation error of the ε value or Monte Carlo configuration.
pub fn monte_carlo_result_tape(
    circuit: &Circuit,
    tape: &CircuitTape,
    eps: f64,
    config: &MonteCarloConfig,
) -> Result<Json, ServeError> {
    let estimate = monte_carlo(circuit, tape, eps, config, &CancelToken::new())?;
    Ok(monte_carlo_json(circuit, eps, config.seed, &estimate))
}

/// Tape Monte Carlo at uniform gate error `eps`. The engine polls `cancel`
/// at every chunk hand-out; the token never alters the RNG stream or the
/// merge order, only whether an answer is produced.
fn monte_carlo(
    circuit: &Circuit,
    tape: &CircuitTape,
    eps: f64,
    config: &MonteCarloConfig,
    cancel: &CancelToken,
) -> Result<ReliabilityEstimate, ServeError> {
    let gate_eps = GateEps::try_uniform(circuit, eps)?;
    Ok(relogic_sim::try_estimate_tape(
        circuit,
        tape,
        gate_eps.as_slice(),
        config,
        cancel,
    )?)
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
    seed: u64,
    estimate: &ReliabilityEstimate,
) -> Json {
    let std_errors: Vec<Json> = (0..circuit.output_count())
        .map(|k| Json::Num(estimate.std_error(k)))
        .collect();
    Json::obj([
        ("eps", Json::Num(eps)),
        ("patterns", Json::from(estimate.patterns())),
        ("seed", Json::from(seed)),
        ("outputs", output_names(circuit)),
        ("delta", delta_array(estimate.per_output())),
        ("std_error", Json::Arr(std_errors)),
        ("any_output", Json::Num(estimate.any_output())),
    ])
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
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
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
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
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
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
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
    fn run_answers_analysis_kinds_and_encodes_only_their_own_outcome() {
        let parse = |line: &str| {
            crate::proto::parse_request(line, &crate::proto::RequestLimits::default())
                .1
                .unwrap()
        };
        let critical = parse(r#"{"kind":"critical_eps","netlist":"x","threshold":0.18}"#);
        let artifact = Artifact::new(&critical.payload().unwrap(), small(), None);
        let (counters, cancel) = (CacheCounters::default(), CancelToken::new());
        let err = run(&Request::Stats, &artifact, &counters, 0, &cancel).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let outcome = run(&critical, &artifact, &counters, 0, &cancel).unwrap();
        assert!(outcome.to_json(&critical, artifact.circuit()).is_ok());
        let harden = parse(r#"{"kind":"harden","netlist":"x"}"#);
        let err = outcome.to_json(&harden, artifact.circuit()).unwrap_err();
        assert_eq!(err.code(), "internal");
    }

    #[test]
    fn invalid_eps_is_a_typed_analysis_error() {
        let c = small();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let err = analyze_result(&c, &w, &[1.5], &options()).unwrap_err();
        assert_eq!(err.code(), "analysis_error");
    }
}
