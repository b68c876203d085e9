//! Wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. Every
//! response is an object with `"ok"` (boolean), the request's `"id"` echoed
//! back when one was supplied, `"kind"` when the request kind could be
//! determined, and either `"result"` or `"error"`:
//!
//! ```text
//! → {"kind":"analyze","netlist":"INPUT(a)\n...","format":"bench","eps":[0.05,0.1],"id":1}
//! ← {"id":1,"ok":true,"kind":"analyze","result":{...}}
//! → {"kind":"nonsense"}
//! ← {"ok":false,"kind":null,"error":{"code":"bad_request","message":"unknown request kind `nonsense`"}}
//! ```
//!
//! Error payloads always carry a stable machine-readable `"code"` (see
//! [`ServeError::code`]) mapped from the workspace's typed error
//! hierarchies ([`RelogicError`], [`SimError`],
//! [`relogic_netlist::NetlistError`]) plus a human-readable `"message"`.

use crate::json::{self, Json};
use relogic::{RelogicError, SinglePassOptions};
use relogic_estimate::CriticalMetric;
use relogic_netlist::{Circuit, NetlistError};
use relogic_sim::SimError;
use std::borrow::Cow;
use std::fmt;

/// Default uniform gate failure probability when a request omits `eps`,
/// matching the CLI default.
pub const DEFAULT_EPS: f64 = 0.05;

/// Default Monte Carlo pattern budget, matching the CLI default.
pub const DEFAULT_PATTERNS: u64 = 65_536;

/// Default gate-count ratio ceiling for `harden` requests: up to 2× the
/// unprotected circuit's area.
pub const DEFAULT_AREA_BUDGET: f64 = 2.0;

/// Default δ threshold a `critical_eps` request bisects for.
pub const DEFAULT_CRITICAL_THRESHOLD: f64 = 0.1;

/// Netlist text format of a request payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetlistFormat {
    /// ISCAS-85 bench.
    Bench,
    /// Berkeley BLIF.
    Blif,
    /// Structural Verilog.
    Verilog,
}

impl NetlistFormat {
    /// The wire tag (`"bench"`, `"blif"`, `"verilog"`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            NetlistFormat::Bench => "bench",
            NetlistFormat::Blif => "blif",
            NetlistFormat::Verilog => "verilog",
        }
    }

    /// Parses a wire tag.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<NetlistFormat> {
        match tag {
            "bench" => Some(NetlistFormat::Bench),
            "blif" => Some(NetlistFormat::Blif),
            "verilog" | "v" => Some(NetlistFormat::Verilog),
            _ => None,
        }
    }

    /// Parses netlist text in this format.
    ///
    /// # Errors
    ///
    /// Propagates the format parser's [`NetlistError`].
    pub fn parse_netlist(self, text: &str) -> Result<Circuit, NetlistError> {
        match self {
            NetlistFormat::Bench => relogic_netlist::bench::parse(text),
            NetlistFormat::Blif => relogic_netlist::blif::parse(text),
            NetlistFormat::Verilog => relogic_netlist::verilog::parse(text),
        }
    }
}

/// Which statistics backend computes weight vectors and observabilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendSpec {
    /// Exact symbolic (BDD) backend.
    Bdd,
    /// Random-pattern sampling backend.
    Sim {
        /// Pattern budget for the sampling backend.
        patterns: u64,
        /// RNG seed for the sampling backend.
        seed: u64,
    },
}

impl BackendSpec {
    /// The `relogic` backend value.
    #[must_use]
    pub fn backend(self) -> relogic::Backend {
        match self {
            BackendSpec::Bdd => relogic::Backend::Bdd,
            BackendSpec::Sim { patterns, seed } => relogic::Backend::Simulation { patterns, seed },
        }
    }

    /// A stable string mixed into cache keys: artifacts computed by
    /// different backends must never collide. The sampled tag also names
    /// the input stream (`pos`: the position-addressed stream the sampled
    /// passes share with Monte Carlo), so artifacts sampled under the
    /// earlier sequential stream, tagged `sim:{patterns}:{seed}`, get other
    /// keys and are never served.
    #[must_use]
    pub fn cache_tag(self) -> String {
        match self {
            BackendSpec::Bdd => "bdd".to_owned(),
            BackendSpec::Sim { patterns, seed } => format!("sim-pos:{patterns}:{seed}"),
        }
    }

    /// The backend whose [`BackendSpec::cache_tag`] is `tag`, or `None`
    /// for a tag this version never produces (such as the earlier
    /// `sim:{patterns}:{seed}`).
    #[must_use]
    pub fn from_cache_tag(tag: &str) -> Option<BackendSpec> {
        if tag == "bdd" {
            return Some(BackendSpec::Bdd);
        }
        let (patterns, seed) = tag.strip_prefix("sim-pos:")?.split_once(':')?;
        let spec = BackendSpec::Sim {
            patterns: patterns.parse().ok()?,
            seed: seed.parse().ok()?,
        };
        // Only the canonical rendering: "+1" or "01" would parse too.
        (spec.cache_tag() == tag).then_some(spec)
    }
}

/// The circuit-carrying part shared by every analysis request.
#[derive(Clone, Debug)]
pub struct CircuitPayload {
    /// Netlist text.
    pub netlist: String,
    /// Its format.
    pub format: NetlistFormat,
    /// Statistics backend for weights/observability.
    pub backend: BackendSpec,
}

/// Options for an `analyze` request.
#[derive(Clone, Debug)]
pub struct AnalyzeRequestOptions {
    /// Engine options (correlations, partner cap, strictness …).
    pub single_pass: SinglePassOptions,
    /// Include clamp/fallback diagnostics in the result.
    pub diagnostics: bool,
    /// Include per-node error probabilities in each result point.
    pub per_node: bool,
}

/// A parsed protocol request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Single-pass δ per output at one or many ε points (§4/§4.1).
    Analyze {
        /// Circuit payload.
        circuit: CircuitPayload,
        /// ε grid (uniform per gate).
        eps: Vec<f64>,
        /// Engine and reporting options.
        options: AnalyzeRequestOptions,
        /// Cooperative deadline in milliseconds (0 = none requested).
        deadline_ms: u64,
    },
    /// Observability closed form (§3) at one or many ε points.
    Observability {
        /// Circuit payload.
        circuit: CircuitPayload,
        /// ε grid (uniform per gate).
        eps: Vec<f64>,
        /// Include per-gate any-output observabilities.
        per_gate: bool,
        /// Cooperative deadline in milliseconds (0 = none requested).
        deadline_ms: u64,
    },
    /// Deterministic Monte Carlo reference run on the cached tape.
    MonteCarlo {
        /// Circuit payload.
        circuit: CircuitPayload,
        /// Uniform gate failure probability.
        eps: f64,
        /// Pattern budget.
        patterns: u64,
        /// RNG seed (same seed ⇒ same estimate, any thread count).
        seed: u64,
        /// Worker threads (0 = auto).
        threads: usize,
        /// Cooperative deadline in milliseconds (0 = none requested).
        deadline_ms: u64,
    },
    /// Tiered reliability estimate: exact BDD under a live-node budget,
    /// falling back to the propagation estimator, refined by Monte Carlo
    /// when the estimate saturates (see `relogic-estimate`).
    Estimate {
        /// Circuit payload.
        circuit: CircuitPayload,
        /// Uniform gate failure probability.
        eps: f64,
        /// Live-node budget for the exact tier (0 disables it).
        bdd_node_budget: usize,
        /// Pattern budget for the Monte Carlo refinement tier.
        patterns: u64,
        /// RNG seed for the Monte Carlo refinement tier.
        seed: u64,
        /// Cooperative deadline in milliseconds (0 = none requested).
        deadline_ms: u64,
    },
    /// Selective-TMR hardening sweep: reliability-per-area Pareto front
    /// under a gate-count budget.
    Harden {
        /// Circuit payload.
        circuit: CircuitPayload,
        /// Uniform gate failure probability.
        eps: f64,
        /// Maximum gate-count ratio versus the unprotected circuit.
        area_budget: f64,
        /// Cap on evaluated protection prefixes (0 = no cap).
        max_steps: usize,
        /// Cooperative deadline in milliseconds (0 = none requested).
        deadline_ms: u64,
    },
    /// Deterministic bisection on ε for where output error δ crosses a
    /// threshold, evaluated on the compiled sweep tape.
    CriticalEps {
        /// Circuit payload.
        circuit: CircuitPayload,
        /// δ threshold in (0, ½).
        threshold: f64,
        /// How δ is summarized across outputs.
        metric: CriticalMetric,
        /// Bisection step cap (0 = the library default).
        max_steps: usize,
        /// Cooperative deadline in milliseconds (0 = none requested).
        deadline_ms: u64,
    },
    /// Service counters: requests, cache, latency percentiles.
    Stats,
    /// Readiness probe: drain state, in-flight gauge, queue depth, shed
    /// count. Always answered inline — never queued, timed out, or
    /// admission-controlled — so load balancers get an honest signal even
    /// when the service is saturated.
    Health,
}

/// The wire tag of every request kind, in [`Request::kind_index`] order:
/// the order of the per-kind counters in `stats`.
pub const KINDS: [&str; 8] = [
    "analyze",
    "observability",
    "monte_carlo",
    "estimate",
    "harden",
    "critical_eps",
    "stats",
    "health",
];

impl Request {
    /// This kind's position in [`KINDS`].
    #[must_use]
    pub fn kind_index(&self) -> usize {
        match self {
            Request::Analyze { .. } => 0,
            Request::Observability { .. } => 1,
            Request::MonteCarlo { .. } => 2,
            Request::Estimate { .. } => 3,
            Request::Harden { .. } => 4,
            Request::CriticalEps { .. } => 5,
            Request::Stats => 6,
            Request::Health => 7,
        }
    }

    /// The wire tag of this request kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
    }

    /// The circuit payload whose artifact this kind reads; `None` for
    /// `stats` and `health`, which read the service. `estimate` reads the
    /// BDD-backed artifact whatever backend the request names: its exact
    /// tier is a BDD computation, and a sampled-backend slot must never
    /// receive BDD values.
    #[must_use]
    pub fn payload(&self) -> Option<Cow<'_, CircuitPayload>> {
        match self {
            Request::Estimate { circuit, .. } if circuit.backend != BackendSpec::Bdd => {
                Some(Cow::Owned(CircuitPayload {
                    backend: BackendSpec::Bdd,
                    ..circuit.clone()
                }))
            }
            Request::Analyze { circuit, .. }
            | Request::Observability { circuit, .. }
            | Request::MonteCarlo { circuit, .. }
            | Request::Estimate { circuit, .. }
            | Request::Harden { circuit, .. }
            | Request::CriticalEps { circuit, .. } => Some(Cow::Borrowed(circuit)),
            Request::Stats | Request::Health => None,
        }
    }

    /// Whether this request counts against the in-flight admission limit.
    /// Only analysis work does; `stats` and `health` stay answerable under
    /// overload precisely so operators can observe the overload.
    #[must_use]
    pub fn needs_admission(&self) -> bool {
        !matches!(self, Request::Stats | Request::Health)
    }

    /// The client-requested cooperative deadline, when one was supplied.
    /// `stats`/`health` are answered inline and never carry one.
    #[must_use]
    pub fn deadline_ms(&self) -> Option<u64> {
        let ms = match self {
            Request::Analyze { deadline_ms, .. }
            | Request::Observability { deadline_ms, .. }
            | Request::MonteCarlo { deadline_ms, .. }
            | Request::Estimate { deadline_ms, .. }
            | Request::Harden { deadline_ms, .. }
            | Request::CriticalEps { deadline_ms, .. } => *deadline_ms,
            Request::Stats | Request::Health => 0,
        };
        (ms > 0).then_some(ms)
    }
}

/// Validation ceilings applied while parsing requests.
#[derive(Clone, Copy, Debug)]
pub struct RequestLimits {
    /// Maximum ε points per analyze/observability request.
    pub max_eps_points: usize,
    /// Maximum pattern count per request: the Monte Carlo and estimate
    /// `patterns` and the sampled backend's `backend_patterns`.
    pub max_patterns: u64,
    /// Maximum worker threads a request may demand.
    pub max_threads: usize,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            max_eps_points: 4096,
            max_patterns: 1 << 32,
            max_threads: 1024,
        }
    }
}

/// Typed service errors; each variant maps to a stable wire code.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The frame is not valid JSON, not an object, names an unknown kind,
    /// or carries a malformed/out-of-limit field. Code `bad_request`.
    BadRequest(String),
    /// The frame exceeded the configured size limit. Code
    /// `request_too_large`.
    TooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The netlist failed to parse or validate. Code `netlist_error`.
    Netlist {
        /// The parser/validator message.
        message: String,
        /// 1-based line number for syntax errors.
        line: Option<u64>,
    },
    /// The analytical engine rejected the request. Code `analysis_error`.
    Analysis(RelogicError),
    /// The Monte Carlo simulator rejected the request. Code `sim_error`.
    Sim(SimError),
    /// The request exceeded the per-request service timeout. Code
    /// `timeout`.
    Timeout {
        /// The configured timeout in milliseconds.
        ms: u64,
    },
    /// The request's cooperative deadline fired and the compute path
    /// observed the cancellation — no partial result survives. Code
    /// `deadline_exceeded`.
    DeadlineExceeded {
        /// Elapsed time on the cancel token when the check fired, in
        /// milliseconds.
        after_ms: u64,
        /// The check site that observed the cancellation (e.g.
        /// `"obs_chunk"`), for operators correlating slow engines.
        site: &'static str,
    },
    /// The server is draining and no longer accepts work. Code
    /// `shutting_down`.
    ShuttingDown,
    /// The server shed this request under load (in-flight limit reached or
    /// worker-pool queue saturated). Code `overloaded`. The client should
    /// back off at least `retry_after_ms` before retrying.
    Overloaded {
        /// Suggested minimum backoff before the next attempt.
        retry_after_ms: u64,
    },
    /// The request died inside the service (worker panic). Code
    /// `internal`.
    Internal(String),
}

impl ServeError {
    /// The stable machine-readable error code.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad_request",
            ServeError::TooLarge { .. } => "request_too_large",
            ServeError::Netlist { .. } => "netlist_error",
            ServeError::Analysis(_) => "analysis_error",
            ServeError::Sim(_) => "sim_error",
            ServeError::Timeout { .. } => "timeout",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Internal(_) => "internal",
        }
    }

    /// Converts a netlist error, preserving the line number of syntax
    /// errors.
    #[must_use]
    pub fn netlist(e: &NetlistError) -> ServeError {
        match e {
            NetlistError::Parse { line, message } => ServeError::Netlist {
                message: message.clone(),
                line: Some(*line as u64),
            },
            other => ServeError::Netlist {
                message: other.to_string(),
                line: None,
            },
        }
    }

    /// The error payload object (`code`, `message`, optional `line`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("code", Json::from(self.code())),
            ("message", Json::from(self.to_string())),
        ]);
        match self {
            ServeError::Netlist {
                line: Some(line), ..
            } => obj.push("line", Json::from(*line)),
            ServeError::TooLarge { limit } => obj.push("limit", Json::from(*limit)),
            ServeError::Timeout { ms } => obj.push("ms", Json::from(*ms)),
            ServeError::DeadlineExceeded { after_ms, site } => {
                obj.push("after_ms", Json::from(*after_ms));
                obj.push("site", Json::from(*site));
            }
            ServeError::Overloaded { retry_after_ms } => {
                obj.push("retry_after_ms", Json::from(*retry_after_ms));
            }
            _ => {}
        }
        obj
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::TooLarge { limit } => {
                write!(f, "request exceeds the {limit}-byte frame limit")
            }
            ServeError::Netlist {
                message,
                line: Some(line),
            } => write!(f, "netlist error on line {line}: {message}"),
            ServeError::Netlist { message, .. } => write!(f, "netlist error: {message}"),
            ServeError::Analysis(e) => write!(f, "analysis error: {e}"),
            ServeError::Sim(e) => write!(f, "simulation error: {e}"),
            ServeError::Timeout { ms } => write!(f, "request exceeded the {ms} ms timeout"),
            ServeError::DeadlineExceeded { after_ms, site } => {
                write!(f, "deadline exceeded after {after_ms} ms (at {site})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server is overloaded; retry after {retry_after_ms} ms")
            }
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Analysis(e) => Some(e),
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelogicError> for ServeError {
    fn from(e: RelogicError) -> Self {
        // Unwrap the core crate's Sim wrapper so the wire code reflects
        // the originating subsystem. Cancellations map first: they are a
        // deadline outcome, not an analysis failure.
        match e {
            RelogicError::Cancelled(c) => ServeError::DeadlineExceeded {
                after_ms: u64::try_from(c.after.as_millis()).unwrap_or(u64::MAX),
                site: c.checked_at,
            },
            RelogicError::Sim(s) => ServeError::Sim(s),
            other => ServeError::Analysis(other),
        }
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        // Route through the core ladder so `SimError::Cancelled` lands on
        // the `deadline_exceeded` wire code, same as every other engine.
        ServeError::from(RelogicError::from(e))
    }
}

/// A response frame: echoed id, request kind when known, and the outcome.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's `id`, echoed verbatim.
    pub id: Option<Json>,
    /// The request kind, when it could be determined.
    pub kind: Option<&'static str>,
    /// Result payload or typed error.
    pub body: Result<Json, ServeError>,
}

impl Response {
    /// The response as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::Obj(Vec::with_capacity(4));
        if let Some(id) = &self.id {
            obj.push("id", id.clone());
        }
        obj.push("ok", Json::from(self.body.is_ok()));
        obj.push("kind", self.kind.map_or(Json::Null, Json::from));
        match &self.body {
            Ok(result) => obj.push("result", result.clone()),
            Err(e) => obj.push("error", e.to_json()),
        }
        obj
    }

    /// The response as one newline-terminated wire frame.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = self.to_json().encode();
        line.push('\n');
        line
    }
}

/// Parses one request frame into its echoed id and a [`Request`] (or the
/// typed error to send back).
pub fn parse_request(
    line: &str,
    limits: &RequestLimits,
) -> (Option<Json>, Result<Request, ServeError>) {
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return (None, Err(ServeError::BadRequest(e.to_string()))),
    };
    if !matches!(doc, Json::Obj(_)) {
        return (
            None,
            Err(ServeError::BadRequest(
                "request frame must be a JSON object".into(),
            )),
        );
    }
    // Echo scalar ids only; arbitrary nested ids would let a client make
    // the server replay large payloads.
    let id = match doc.get("id") {
        Some(v @ (Json::Num(_) | Json::Str(_) | Json::Bool(_))) => Some(v.clone()),
        Some(_) | None => None,
    };
    (id, build_request(&doc, limits))
}

fn build_request(doc: &Json, limits: &RequestLimits) -> Result<Request, ServeError> {
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing or non-string `kind`"))?;
    match kind {
        "analyze" => {
            let circuit = circuit_payload(doc, limits)?;
            let eps = eps_list(doc, limits)?;
            let options = analyze_options(doc)?;
            let deadline_ms = opt_u64(doc, "deadline_ms", 0)?;
            Ok(Request::Analyze {
                circuit,
                eps,
                options,
                deadline_ms,
            })
        }
        "observability" => {
            let circuit = circuit_payload(doc, limits)?;
            let eps = eps_list(doc, limits)?;
            let per_gate = opt_bool(doc, "per_gate", false)?;
            let deadline_ms = opt_u64(doc, "deadline_ms", 0)?;
            Ok(Request::Observability {
                circuit,
                eps,
                per_gate,
                deadline_ms,
            })
        }
        "monte_carlo" => {
            let circuit = circuit_payload(doc, limits)?;
            let eps = opt_f64(doc, "eps", DEFAULT_EPS)?;
            let patterns = opt_u64(doc, "patterns", DEFAULT_PATTERNS)?;
            if patterns > limits.max_patterns {
                return Err(bad(&format!(
                    "patterns {patterns} exceeds the per-request limit {}",
                    limits.max_patterns
                )));
            }
            let seed = opt_u64(doc, "seed", 1)?;
            let threads = usize::try_from(opt_u64(doc, "threads", 0)?)
                .map_err(|_| bad("threads out of range"))?;
            if threads > limits.max_threads {
                return Err(bad(&format!(
                    "threads {threads} exceeds the per-request limit {}",
                    limits.max_threads
                )));
            }
            let deadline_ms = opt_u64(doc, "deadline_ms", 0)?;
            Ok(Request::MonteCarlo {
                circuit,
                eps,
                patterns,
                seed,
                threads,
                deadline_ms,
            })
        }
        "estimate" => {
            let circuit = circuit_payload(doc, limits)?;
            let eps = opt_f64(doc, "eps", DEFAULT_EPS)?;
            let bdd_node_budget = usize::try_from(opt_u64(
                doc,
                "bdd_node_budget",
                u64::try_from(relogic_estimate::DEFAULT_BDD_NODE_BUDGET).unwrap_or(u64::MAX),
            )?)
            .map_err(|_| bad("`bdd_node_budget` out of range"))?;
            let patterns = opt_u64(doc, "patterns", DEFAULT_PATTERNS)?;
            if patterns > limits.max_patterns {
                return Err(bad(&format!(
                    "patterns {patterns} exceeds the per-request limit {}",
                    limits.max_patterns
                )));
            }
            let seed = opt_u64(doc, "seed", 1)?;
            let deadline_ms = opt_u64(doc, "deadline_ms", 0)?;
            Ok(Request::Estimate {
                circuit,
                eps,
                bdd_node_budget,
                patterns,
                seed,
                deadline_ms,
            })
        }
        "harden" => {
            let circuit = circuit_payload(doc, limits)?;
            let eps = opt_f64(doc, "eps", DEFAULT_EPS)?;
            let area_budget = opt_f64(doc, "area_budget", DEFAULT_AREA_BUDGET)?;
            let max_steps = usize::try_from(opt_u64(doc, "max_steps", 0)?)
                .map_err(|_| bad("`max_steps` out of range"))?;
            let deadline_ms = opt_u64(doc, "deadline_ms", 0)?;
            Ok(Request::Harden {
                circuit,
                eps,
                area_budget,
                max_steps,
                deadline_ms,
            })
        }
        "critical_eps" => {
            let circuit = circuit_payload(doc, limits)?;
            let threshold = opt_f64(doc, "threshold", DEFAULT_CRITICAL_THRESHOLD)?;
            let metric = match doc.get("metric") {
                None => CriticalMetric::Max,
                Some(v) => {
                    let tag = v.as_str().ok_or_else(|| bad("non-string `metric`"))?;
                    CriticalMetric::parse(tag).ok_or_else(|| {
                        bad(&format!(
                            "unknown metric `{tag}` (expected \"max\" or \"mean\")"
                        ))
                    })?
                }
            };
            let max_steps = usize::try_from(opt_u64(doc, "max_steps", 0)?)
                .map_err(|_| bad("`max_steps` out of range"))?;
            let deadline_ms = opt_u64(doc, "deadline_ms", 0)?;
            Ok(Request::CriticalEps {
                circuit,
                threshold,
                metric,
                max_steps,
                deadline_ms,
            })
        }
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        other => Err(bad(&format!("unknown request kind `{other}`"))),
    }
}

fn bad(message: &str) -> ServeError {
    ServeError::BadRequest(message.to_owned())
}

fn circuit_payload(doc: &Json, limits: &RequestLimits) -> Result<CircuitPayload, ServeError> {
    let netlist = doc
        .get("netlist")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing or non-string `netlist`"))?
        .to_owned();
    let format = match doc.get("format") {
        None => NetlistFormat::Bench,
        Some(v) => {
            let tag = v.as_str().ok_or_else(|| bad("non-string `format`"))?;
            NetlistFormat::from_tag(tag).ok_or_else(|| {
                bad(&format!(
                    "unknown format `{tag}` (expected bench, blif, or verilog)"
                ))
            })?
        }
    };
    let backend = match doc.get("backend") {
        None => BackendSpec::Bdd,
        Some(v) => match v.as_str() {
            Some("bdd") => BackendSpec::Bdd,
            Some("sim") => {
                let patterns = opt_u64(doc, "backend_patterns", DEFAULT_PATTERNS)?;
                if patterns == 0 || patterns > limits.max_patterns {
                    return Err(bad(&format!(
                        "backend_patterns {patterns} is outside 1..={}",
                        limits.max_patterns
                    )));
                }
                BackendSpec::Sim {
                    patterns,
                    seed: opt_u64(doc, "backend_seed", 1)?,
                }
            }
            _ => return Err(bad("unknown backend (expected \"bdd\" or \"sim\")")),
        },
    };
    Ok(CircuitPayload {
        netlist,
        format,
        backend,
    })
}

fn eps_list(doc: &Json, limits: &RequestLimits) -> Result<Vec<f64>, ServeError> {
    let eps = match doc.get("eps") {
        None => vec![DEFAULT_EPS],
        Some(Json::Num(v)) => vec![*v],
        Some(Json::Arr(items)) => {
            let mut eps = Vec::with_capacity(items.len());
            for item in items {
                eps.push(
                    item.as_f64()
                        .ok_or_else(|| bad("non-numeric `eps` entry"))?,
                );
            }
            eps
        }
        Some(_) => return Err(bad("`eps` must be a number or an array of numbers")),
    };
    if eps.is_empty() {
        return Err(bad("`eps` array is empty"));
    }
    if eps.len() > limits.max_eps_points {
        return Err(bad(&format!(
            "{} eps points exceed the per-request limit {}",
            eps.len(),
            limits.max_eps_points
        )));
    }
    Ok(eps)
}

fn analyze_options(doc: &Json) -> Result<AnalyzeRequestOptions, ServeError> {
    let mut single_pass = if opt_bool(doc, "no_correlations", false)? {
        SinglePassOptions::without_correlations()
    } else {
        SinglePassOptions::default()
    };
    match doc.get("partner_cap") {
        None => {}
        Some(Json::Null) => single_pass.partner_cap = None,
        Some(Json::Str(s)) if s == "none" => single_pass.partner_cap = None,
        Some(v) => {
            let cap = v.as_u64().ok_or_else(|| {
                bad("`partner_cap` must be a non-negative integer, null, or \"none\"")
            })?;
            single_pass.partner_cap =
                Some(usize::try_from(cap).map_err(|_| bad("`partner_cap` out of range"))?);
        }
    }
    single_pass.strict = opt_bool(doc, "strict", false)?;
    Ok(AnalyzeRequestOptions {
        single_pass,
        diagnostics: opt_bool(doc, "diagnostics", false)?,
        per_node: opt_bool(doc, "per_node", false)?,
    })
}

fn opt_bool(doc: &Json, key: &str, default: bool) -> Result<bool, ServeError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad(&format!("`{key}` must be a boolean"))),
    }
}

fn opt_u64(doc: &Json, key: &str, default: u64) -> Result<u64, ServeError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(&format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_f64(doc: &Json, key: &str, default: f64) -> Result<f64, ServeError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad(&format!("`{key}` must be a number"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

    fn frame(extra: &str) -> String {
        format!(
            r#"{{"kind":"analyze","netlist":"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"{extra}}}"#
        )
    }

    #[test]
    fn parses_minimal_analyze() {
        let (id, req) = parse_request(&frame(""), &RequestLimits::default());
        assert!(id.is_none());
        let Ok(Request::Analyze {
            circuit,
            eps,
            options,
            deadline_ms,
        }) = req
        else {
            panic!("expected analyze: {req:?}");
        };
        assert_eq!(circuit.netlist, SMALL);
        assert_eq!(circuit.format, NetlistFormat::Bench);
        assert_eq!(circuit.backend, BackendSpec::Bdd);
        assert_eq!(eps, vec![DEFAULT_EPS]);
        assert_eq!(options.single_pass.partner_cap, Some(64));
        assert!(!options.diagnostics);
        assert_eq!(deadline_ms, 0);
    }

    #[test]
    fn parses_full_analyze_options() {
        let (id, req) = parse_request(
            &frame(
                r#","id":"r1","eps":[0.1,0.2],"partner_cap":"none","strict":true,"diagnostics":true,"per_node":true,"backend":"sim","backend_patterns":1024,"backend_seed":9"#,
            ),
            &RequestLimits::default(),
        );
        assert_eq!(id, Some(Json::Str("r1".into())));
        let Ok(Request::Analyze {
            circuit,
            eps,
            options,
            ..
        }) = req
        else {
            panic!();
        };
        assert_eq!(eps, vec![0.1, 0.2]);
        assert_eq!(options.single_pass.partner_cap, None);
        assert!(options.single_pass.strict);
        assert!(options.per_node);
        assert_eq!(
            circuit.backend,
            BackendSpec::Sim {
                patterns: 1024,
                seed: 9
            }
        );
    }

    #[test]
    fn parses_monte_carlo_and_stats() {
        let (_, req) = parse_request(
            r#"{"kind":"monte_carlo","netlist":"x","patterns":512,"seed":7,"threads":2}"#,
            &RequestLimits::default(),
        );
        let Ok(Request::MonteCarlo {
            patterns,
            seed,
            threads,
            ..
        }) = req
        else {
            panic!("{req:?}");
        };
        assert_eq!((patterns, seed, threads), (512, 7, 2));
        let (_, req) = parse_request(r#"{"kind":"stats"}"#, &RequestLimits::default());
        assert!(matches!(req, Ok(Request::Stats)));
    }

    #[test]
    fn parses_health_and_admission_classification() {
        let (_, req) = parse_request(r#"{"kind":"health","id":3}"#, &RequestLimits::default());
        let Ok(req) = req else { panic!("{req:?}") };
        assert!(matches!(req, Request::Health));
        assert_eq!(req.kind(), "health");
        assert!(!req.needs_admission());
        assert!(!Request::Stats.needs_admission());
        let (_, req) = parse_request(
            r#"{"kind":"monte_carlo","netlist":"x"}"#,
            &RequestLimits::default(),
        );
        assert!(req.map(|r| r.needs_admission()).unwrap_or(false));
    }

    #[test]
    fn parses_estimator_kinds_with_defaults_and_admission() {
        let limits = RequestLimits::default();
        let (_, req) = parse_request(r#"{"kind":"estimate","netlist":"x"}"#, &limits);
        let Ok(Request::Estimate {
            eps,
            bdd_node_budget,
            patterns,
            seed,
            ..
        }) = req
        else {
            panic!("{req:?}");
        };
        assert_eq!(eps, DEFAULT_EPS);
        assert_eq!(bdd_node_budget, relogic_estimate::DEFAULT_BDD_NODE_BUDGET);
        assert_eq!((patterns, seed), (DEFAULT_PATTERNS, 1));

        let (_, req) = parse_request(
            r#"{"kind":"harden","netlist":"x","eps":0.02,"area_budget":3.5,"max_steps":4}"#,
            &limits,
        );
        let Ok(req) = req else { panic!("{req:?}") };
        assert!(req.needs_admission());
        let Request::Harden {
            eps,
            area_budget,
            max_steps,
            ..
        } = req
        else {
            panic!();
        };
        assert_eq!((eps, area_budget, max_steps), (0.02, 3.5, 4));

        let (_, req) = parse_request(
            r#"{"kind":"critical_eps","netlist":"x","threshold":0.2,"metric":"mean"}"#,
            &limits,
        );
        let Ok(req) = req else { panic!("{req:?}") };
        assert_eq!(req.kind(), "critical_eps");
        assert!(req.needs_admission());
        let Request::CriticalEps {
            threshold,
            metric,
            max_steps,
            ..
        } = req
        else {
            panic!();
        };
        assert_eq!(
            (threshold, metric, max_steps),
            (0.2, CriticalMetric::Mean, 0)
        );
    }

    #[test]
    fn every_wire_tag_parses_to_its_kind_index() {
        for (i, tag) in KINDS.iter().enumerate() {
            let line = format!(r#"{{"kind":"{tag}","netlist":"x"}}"#);
            let req = parse_request(&line, &RequestLimits::default()).1.unwrap();
            assert_eq!((req.kind_index(), req.kind()), (i, *tag));
            assert_eq!(req.payload().is_some(), req.needs_admission(), "{tag}");
        }
    }

    #[test]
    fn estimate_reads_the_bdd_backed_payload() {
        let limits = RequestLimits::default();
        for kind in ["estimate", "analyze"] {
            let line = format!(r#"{{"kind":"{kind}","netlist":"x","backend":"sim"}}"#);
            let req = parse_request(&line, &limits).1.unwrap();
            let backend = req.payload().unwrap().backend;
            if kind == "estimate" {
                assert_eq!(backend, BackendSpec::Bdd);
            } else {
                assert!(matches!(backend, BackendSpec::Sim { .. }), "{backend:?}");
            }
        }
    }

    #[test]
    fn estimator_kind_field_validation() {
        let limits = RequestLimits::default();
        for line in [
            r#"{"kind":"estimate","netlist":"x","bdd_node_budget":-1}"#,
            r#"{"kind":"estimate","netlist":"x","patterns":99999999999}"#,
            r#"{"kind":"harden","netlist":"x","area_budget":"big"}"#,
            r#"{"kind":"critical_eps","netlist":"x","metric":"p99"}"#,
            r#"{"kind":"critical_eps","netlist":"x","metric":7}"#,
        ] {
            let (_, req) = parse_request(line, &limits);
            match req {
                Err(ServeError::BadRequest(_)) => {}
                other => panic!("{line} should be bad_request, got {other:?}"),
            }
        }
    }

    #[test]
    fn parses_deadline_ms_on_every_analysis_kind() {
        let limits = RequestLimits::default();
        for kind in [
            "analyze",
            "observability",
            "monte_carlo",
            "estimate",
            "harden",
            "critical_eps",
        ] {
            let line = format!(r#"{{"kind":"{kind}","netlist":"x","deadline_ms":250}}"#);
            let (_, req) = parse_request(&line, &limits);
            let req = req.unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(req.deadline_ms(), Some(250), "{kind}");
            let line = format!(r#"{{"kind":"{kind}","netlist":"x"}}"#);
            let (_, req) = parse_request(&line, &limits);
            assert_eq!(req.unwrap().deadline_ms(), None, "{kind} default");
        }
        // A malformed deadline is a bad_request, and stats/health carry none.
        let (_, req) = parse_request(
            r#"{"kind":"monte_carlo","netlist":"x","deadline_ms":-5}"#,
            &limits,
        );
        assert!(matches!(req, Err(ServeError::BadRequest(_))));
        assert_eq!(Request::Stats.deadline_ms(), None);
        assert_eq!(Request::Health.deadline_ms(), None);
    }

    #[test]
    fn cancellation_maps_to_deadline_exceeded_wire_code() {
        let c = relogic_sim::Cancelled {
            after: std::time::Duration::from_millis(72),
            checked_at: "obs_chunk",
        };
        let e = ServeError::from(RelogicError::Cancelled(c));
        assert_eq!(e.code(), "deadline_exceeded");
        let json = e.to_json();
        assert_eq!(json.get("after_ms").and_then(Json::as_u64), Some(72));
        assert_eq!(json.get("site").and_then(Json::as_str), Some("obs_chunk"));
        assert!(e.to_string().contains("deadline exceeded after 72 ms"));
        // The SimError route stays typed too.
        let e = ServeError::from(RelogicError::from(SimError::Cancelled(c)));
        assert_eq!(e.code(), "deadline_exceeded");
    }

    #[test]
    fn overloaded_error_carries_retry_hint() {
        let e = ServeError::Overloaded { retry_after_ms: 75 };
        assert_eq!(e.code(), "overloaded");
        let json = e.to_json();
        assert_eq!(json.get("retry_after_ms").and_then(Json::as_u64), Some(75));
        assert!(e.to_string().contains("75 ms"));
    }

    #[test]
    fn rejects_malformed_frames_with_bad_request() {
        let limits = RequestLimits::default();
        for line in [
            "",
            "not json",
            "42",
            "[]",
            r#"{"kind":"frobnicate"}"#,
            r#"{"netlist":"x"}"#,
            r#"{"kind":"analyze"}"#,
            r#"{"kind":"analyze","netlist":7}"#,
            r#"{"kind":"analyze","netlist":"x","eps":"hi"}"#,
            r#"{"kind":"analyze","netlist":"x","eps":[]}"#,
            r#"{"kind":"analyze","netlist":"x","format":"pla"}"#,
            r#"{"kind":"analyze","netlist":"x","partner_cap":-3}"#,
            r#"{"kind":"monte_carlo","netlist":"x","patterns":99999999999999999999}"#,
        ] {
            let (_, req) = parse_request(line, &limits);
            match req {
                Err(ServeError::BadRequest(_)) => {}
                other => panic!("{line} should be bad_request, got {other:?}"),
            }
        }
    }

    #[test]
    fn limits_are_enforced() {
        let limits = RequestLimits {
            max_eps_points: 2,
            max_patterns: 100,
            max_threads: 4,
        };
        let (_, req) = parse_request(&frame(r#","eps":[0.1,0.2,0.3]"#), &limits);
        assert!(matches!(req, Err(ServeError::BadRequest(_))));
        let (_, req) = parse_request(
            r#"{"kind":"monte_carlo","netlist":"x","patterns":101}"#,
            &limits,
        );
        assert!(matches!(req, Err(ServeError::BadRequest(_))));
        let (_, req) = parse_request(
            r#"{"kind":"monte_carlo","netlist":"x","threads":5}"#,
            &limits,
        );
        assert!(matches!(req, Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn sampled_backend_pattern_count_is_bounded() {
        let limits = RequestLimits {
            max_patterns: 100,
            ..RequestLimits::default()
        };
        for patterns in [0, 101] {
            let line = format!(
                r#"{{"kind":"analyze","netlist":"x","backend":"sim","backend_patterns":{patterns}}}"#
            );
            let (_, req) = parse_request(&line, &limits);
            assert!(
                matches!(req, Err(ServeError::BadRequest(_))),
                "backend_patterns {patterns}: {req:?}"
            );
        }
        let line = r#"{"kind":"analyze","netlist":"x","backend":"sim","backend_patterns":100}"#;
        let (_, req) = parse_request(line, &limits);
        assert!(req.is_ok(), "{req:?}");
    }

    #[test]
    fn response_frames_have_stable_shape() {
        let ok = Response {
            id: Some(Json::Num(1.0)),
            kind: Some("stats"),
            body: Ok(Json::obj([("x", Json::from(1u64))])),
        };
        assert_eq!(
            ok.to_line(),
            "{\"id\":1,\"ok\":true,\"kind\":\"stats\",\"result\":{\"x\":1}}\n"
        );
        let err = Response {
            id: None,
            kind: None,
            body: Err(ServeError::BadRequest("nope".into())),
        };
        let line = err.to_line();
        assert!(line.contains("\"ok\":false"));
        assert!(line.contains("\"code\":\"bad_request\""));
        assert!(line.ends_with('\n'));
    }

    #[test]
    fn netlist_errors_carry_line_numbers() {
        let e = NetlistError::Parse {
            line: 3,
            message: "what".into(),
        };
        let se = ServeError::netlist(&e);
        assert_eq!(se.code(), "netlist_error");
        let json = se.to_json();
        assert_eq!(json.get("line").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn sim_errors_unwrap_from_relogic() {
        let e = ServeError::from(RelogicError::Sim(SimError::ZeroPatternBudget));
        assert_eq!(e.code(), "sim_error");
        let e = ServeError::from(RelogicError::EmptyCircuit);
        assert_eq!(e.code(), "analysis_error");
    }
}
