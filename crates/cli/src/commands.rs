//! Command implementations.

use crate::options::{Options, ParsedArgs, KIND_COMMANDS};
use relogic::{GateEps, InputDistribution, ObservabilityMatrix, SinglePassOptions, Weights};
use relogic_estimate::EstimatorTier;
use relogic_netlist::structure::{output_cone_sizes, CircuitStats, FanoutMap};
use relogic_netlist::{bench, blif, dot, verilog, Circuit};
use relogic_serve::api::{self, Outcome};
use relogic_serve::cache::{Artifact, ArtifactKey, CacheCounters, DiskTier, Origin};
use relogic_serve::json::Json;
use relogic_serve::proto::{
    AnalyzeRequestOptions, BackendSpec, CircuitPayload, NetlistFormat, Request,
};
use relogic_serve::ServeError;
use relogic_store::{Loaded, Store};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced to the CLI user.
///
/// Each variant maps to a distinct process exit code (see
/// [`CliError::exit_code`]) so scripts can tell invocation mistakes from
/// unreadable files, malformed netlists, and analysis failures.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown command/flag, missing value). Exit code 2.
    Usage(String),
    /// Could not read the input file. Exit code 3.
    Io {
        /// The file the CLI tried to read.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The netlist failed to parse or validate. Exit code 4.
    Netlist {
        /// The file being parsed.
        path: String,
        /// The parser/validator error (carries a line number for syntax
        /// errors).
        source: relogic_netlist::NetlistError,
    },
    /// The analytical engine rejected the request. Exit code 5.
    Analysis(relogic::RelogicError),
    /// The Monte Carlo simulator rejected the request. Exit code 6.
    Sim(relogic_sim::SimError),
    /// The on-disk artifact store failed, or `cache verify` found
    /// corruption. Exit code 7.
    Store(String),
    /// The hybrid estimator subsystem (`estimate`, `harden`,
    /// `critical-eps`) rejected the request or failed past the point
    /// where escalation could save it. Exit code 8.
    Estimator(relogic::RelogicError),
    /// The `--deadline-ms` budget expired before the command completed;
    /// the work stopped at its next cooperative check and no partial
    /// result was printed. Exit code 9.
    Deadline(relogic::Cancelled),
}

impl CliError {
    /// Process exit code for this error class (each class is distinct and
    /// non-zero).
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Netlist { .. } => 4,
            CliError::Analysis(_) => 5,
            CliError::Sim(_) => 6,
            CliError::Store(_) => 7,
            CliError::Estimator(_) => 8,
            CliError::Deadline(_) => 9,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io { path, source } => write!(f, "i/o error: {path}: {source}"),
            // Syntax errors print `file:line:` so editors and humans can
            // jump straight to the offending input line.
            CliError::Netlist {
                path,
                source: relogic_netlist::NetlistError::Parse { line, message },
            } => write!(f, "netlist error: {path}:{line}: {message}"),
            CliError::Netlist { path, source } => write!(f, "netlist error: {path}: {source}"),
            CliError::Analysis(e) => write!(f, "analysis error: {e}"),
            CliError::Sim(e) => write!(f, "simulation error: {e}"),
            CliError::Store(m) => write!(f, "store error: {m}"),
            CliError::Estimator(e) => write!(f, "estimator error: {e}"),
            CliError::Deadline(c) => write!(f, "deadline exceeded: {c}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Io { source, .. } => Some(source),
            CliError::Netlist { source, .. } => Some(source),
            CliError::Analysis(e) => Some(e),
            CliError::Sim(e) => Some(e),
            CliError::Store(_) => None,
            CliError::Estimator(e) => Some(e),
            CliError::Deadline(_) => None,
        }
    }
}

impl From<relogic::RelogicError> for CliError {
    fn from(e: relogic::RelogicError) -> Self {
        match e {
            // A fired deadline is its own exit-code class, whichever
            // engine noticed the token.
            relogic::RelogicError::Cancelled(c) => CliError::Deadline(c),
            other => CliError::Analysis(other),
        }
    }
}

impl From<relogic_sim::SimError> for CliError {
    fn from(e: relogic_sim::SimError) -> Self {
        match e {
            relogic_sim::SimError::Cancelled(c) => CliError::Deadline(c),
            other => CliError::Sim(other),
        }
    }
}

impl From<relogic_store::StoreError> for CliError {
    fn from(e: relogic_store::StoreError) -> Self {
        CliError::Store(e.to_string())
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Analysis(inner) => CliError::from(inner),
            ServeError::Sim(inner) => CliError::from(inner),
            ServeError::DeadlineExceeded { after_ms, site } => {
                CliError::Deadline(relogic::Cancelled {
                    after: std::time::Duration::from_millis(after_ms),
                    checked_at: site,
                })
            }
            // The remaining variants are protocol-level and unreachable
            // from the artifact accessors, but map them sensibly anyway.
            other => CliError::Usage(other.to_string()),
        }
    }
}

/// The exit-code class of a failed [`api::run`]: engine errors of the
/// estimator kinds (`estimate`, `harden`, `critical-eps`) exit 8, those of
/// the other kinds 5 (analysis) or 6 (simulation), and a fired deadline
/// exits 9 whichever kind noticed it.
fn run_error(request: &Request, e: ServeError) -> CliError {
    let estimator = matches!(
        request,
        Request::Estimate { .. } | Request::Harden { .. } | Request::CriticalEps { .. }
    );
    match CliError::from(e) {
        CliError::Analysis(e) if estimator => CliError::Estimator(e),
        CliError::Sim(e) if estimator => CliError::Estimator(e.into()),
        other => other,
    }
}

/// The command's cancel token: armed with `--deadline-ms` when set,
/// inert otherwise. Completing under a deadline is bit-identical to
/// running without one — the checks are read-only early exits.
fn deadline_token(opts: &Options) -> relogic::CancelToken {
    if opts.deadline_ms > 0 {
        relogic::CancelToken::with_deadline(std::time::Duration::from_millis(opts.deadline_ms))
    } else {
        relogic::CancelToken::new()
    }
}

/// The `--diagnostics` line accounting for an armed deadline.
fn deadline_note(opts: &Options, cancel: &relogic::CancelToken) -> String {
    if opts.deadline_ms == 0 {
        return String::new();
    }
    format!(
        "deadline: {} ms budget, used {} ms\n",
        opts.deadline_ms,
        cancel.elapsed().as_millis()
    )
}

/// Runs a parsed command line, returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] for bad usage, unreadable files, or malformed
/// netlists.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(crate::USAGE.to_owned()),
        "stats" => stats(&load(args)?.circuit),
        "sweep" => sweep(&load(args)?.circuit, &args.options),
        "rank" => {
            let loaded = load(args)?;
            rank(
                &artifact(&loaded.payload, loaded.circuit, &args.options),
                &args.options,
            )
        }
        "serve" => serve(args),
        "convert" => convert(&load(args)?.circuit, &args.options),
        "gen" => gen(args),
        "cache ls" => cache_ls(&cache_store(args)?),
        "cache verify" => cache_verify(&cache_store(args)?),
        "cache gc" => cache_gc(&cache_store(args)?),
        "cache warm" => cache_warm(&cache_store(args)?, load(args)?),
        other if other.starts_with("cache ") => Err(CliError::Usage(format!(
            "unknown cache action `{}` (expected ls, verify, gc, or warm)",
            &other["cache ".len()..]
        ))),
        kind if KIND_COMMANDS.contains(&kind) => run_kind(args),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `relogic-cli help`)"
        ))),
    }
}

/// A parsed netlist plus the wire payload a daemon would receive for it:
/// the same text, format and backend give the same store key, so the
/// one-shot commands and a `serve --cache-dir` daemon share artifacts.
struct LoadedNetlist {
    path: String,
    payload: CircuitPayload,
    circuit: Circuit,
}

fn backend_spec(opts: &Options) -> BackendSpec {
    match opts.backend() {
        relogic::Backend::Bdd => BackendSpec::Bdd,
        relogic::Backend::Simulation { patterns, seed } => BackendSpec::Sim { patterns, seed },
    }
}

/// The netlist format of a file name: `*.bench` is ISCAS-85 bench,
/// `*.v`/`*.verilog` structural Verilog, anything else BLIF.
fn netlist_format(path: &str) -> NetlistFormat {
    if path.ends_with(".bench") {
        NetlistFormat::Bench
    } else if path.ends_with(".v") || path.ends_with(".verilog") {
        NetlistFormat::Verilog
    } else {
        NetlistFormat::Blif
    }
}

fn load(args: &ParsedArgs) -> Result<LoadedNetlist, CliError> {
    let path = args
        .target
        .as_deref()
        .ok_or_else(|| CliError::Usage(format!("`{}` needs a netlist file", args.command)))?;
    let text = std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_owned(),
        source,
    })?;
    let format = netlist_format(path);
    let circuit = format
        .parse_netlist(&text)
        .map_err(|source| CliError::Netlist {
            path: path.to_owned(),
            source,
        })?;
    Ok(LoadedNetlist {
        path: path.to_owned(),
        payload: CircuitPayload {
            netlist: text,
            format,
            backend: backend_spec(&args.options),
        },
        circuit,
    })
}

/// The artifact of `circuit` (parsed from `payload`), read and written
/// through the store named by `--cache-dir` when set. The store must never
/// make an analysis fail: an unusable directory degrades to computing in
/// memory (one stderr line), and corrupt files are quarantined and
/// recomputed.
fn artifact(payload: &CircuitPayload, circuit: Circuit, opts: &Options) -> Artifact {
    let disk = opts
        .cache_dir
        .as_deref()
        .map(|dir| Arc::new(DiskTier::open(std::path::Path::new(dir))));
    Artifact::new(payload, circuit, disk)
}

/// The `--diagnostics` block naming where each artifact came from; empty
/// without `--cache-dir`.
fn provenance(artifact: &Artifact, opts: &Options) -> String {
    let Some(dir) = &opts.cache_dir else {
        return String::new();
    };
    let mut out = format!(
        "disk cache ({dir}): key {}\n",
        artifact.key().store_key().hex()
    );
    for (slot, origin) in artifact.provenance() {
        let what = match origin {
            Origin::DiskHit => "disk hit".to_owned(),
            Origin::DiskMiss => "disk miss (computed and stored)".to_owned(),
            Origin::Quarantined(reason) => {
                format!("corrupt artifact quarantined ({reason}), recomputed")
            }
            Origin::ReadFailed(err) => format!("read failed ({err}), recomputed"),
            Origin::Computed => "computed (store unusable)".to_owned(),
        };
        out.push_str(&format!("{slot}: {what}\n"));
    }
    out
}

/// The `--diagnostics` footer of every artifact command: the engine block
/// `body`, the deadline note and the artifact provenance, under one
/// heading that is left out when all three are empty.
fn diagnostics_footer(
    body: Option<String>,
    opts: &Options,
    cancel: &relogic::CancelToken,
    artifact: &Artifact,
) -> String {
    let note = deadline_note(opts, cancel) + &provenance(artifact, opts);
    if body.is_none() && note.is_empty() {
        return String::new();
    }
    format!("\ndiagnostics:\n{}{note}", body.unwrap_or_default())
}

fn stats(c: &Circuit) -> Result<String, CliError> {
    let s = CircuitStats::of(c);
    let fan = FanoutMap::build(c);
    let cones = output_cone_sizes(c);
    let mut out = String::new();
    out.push_str(&format!("model:            {}\n", c.name()));
    out.push_str(&format!("inputs:           {}\n", s.inputs));
    out.push_str(&format!("outputs:          {}\n", s.outputs));
    out.push_str(&format!("gates:            {}\n", s.gates));
    out.push_str(&format!("depth:            {}\n", s.depth));
    out.push_str(&format!("total out levels: {}\n", s.total_output_levels));
    out.push_str(&format!("max fanout:       {}\n", s.max_fanout));
    out.push_str(&format!("fanout stems:     {}\n", s.stems));
    out.push_str(&format!(
        "largest cone:     {} gates\n",
        cones.iter().max().copied().unwrap_or(0)
    ));
    out.push_str(&format!(
        "dangling nodes:   {}\n",
        fan.dangling_nodes().len()
    ));
    out.push_str("gate kinds:       ");
    let kinds: Vec<String> = s
        .kind_histogram
        .iter()
        .map(|(k, n)| format!("{k}:{n}"))
        .collect();
    out.push_str(&kinds.join(" "));
    out.push('\n');
    Ok(out)
}

fn analysis_weights(c: &Circuit, opts: &Options) -> Result<Weights, CliError> {
    Ok(Weights::try_compute_threads_cancellable(
        c,
        &InputDistribution::Uniform,
        opts.backend(),
        opts.threads,
        &relogic::CancelToken::new(),
    )?)
}

fn engine_options(opts: &Options) -> SinglePassOptions {
    let mut o = if opts.no_correlations {
        SinglePassOptions::without_correlations()
    } else {
        SinglePassOptions::default()
    };
    o.strict = opts.strict;
    if let Some(cap) = opts.partner_cap {
        o.partner_cap = cap;
    }
    o
}

/// The protocol request a [`KIND_COMMANDS`] command runs: the one the
/// daemon parses from the equivalent frame, with the same defaults. `None`
/// for any other command.
fn request(command: &str, opts: &Options, circuit: CircuitPayload) -> Option<Request> {
    let deadline_ms = opts.deadline_ms;
    Some(match command {
        "analyze" => Request::Analyze {
            circuit,
            eps: vec![opts.eps],
            options: AnalyzeRequestOptions {
                single_pass: engine_options(opts),
                diagnostics: opts.diagnostics,
                per_node: opts.per_node,
            },
            deadline_ms,
        },
        "observability" => Request::Observability {
            circuit,
            eps: vec![opts.eps],
            per_gate: opts.per_node,
            deadline_ms,
        },
        "mc" => Request::MonteCarlo {
            circuit,
            eps: opts.eps,
            patterns: opts.patterns,
            seed: opts.seed,
            threads: opts.threads,
            deadline_ms,
        },
        "estimate" => Request::Estimate {
            circuit,
            eps: opts.eps,
            bdd_node_budget: opts.bdd_node_budget,
            patterns: opts.patterns,
            seed: opts.seed,
            deadline_ms,
        },
        "harden" => Request::Harden {
            circuit,
            eps: opts.eps,
            area_budget: opts.area_budget,
            max_steps: opts.max_steps,
            deadline_ms,
        },
        "critical-eps" => Request::CriticalEps {
            circuit,
            threshold: opts.threshold,
            metric: opts.metric,
            max_steps: opts.max_steps,
            deadline_ms,
        },
        _ => return None,
    })
}

/// Appends the `"cache":"bypass"` member and newline-terminates, so CLI
/// JSON output is frame-compatible with the server's response `result`.
fn json_line(mut result: Json) -> String {
    result.push("cache", Json::from("bypass"));
    let mut line = result.encode();
    line.push('\n');
    line
}

/// Runs one [`KIND_COMMANDS`] command the way the daemon runs the request:
/// build the [`Request`], read its artifact, [`api::run`] it, then print
/// the JSON result or the kind's text rendering.
fn run_kind(args: &ParsedArgs) -> Result<String, CliError> {
    let opts = &args.options;
    let loaded = load(args)?;
    let request = request(&args.command, opts, loaded.payload)
        .expect("every KIND_COMMANDS entry names a request kind");
    let payload = request
        .payload()
        .expect("every analysis kind reads a circuit");
    let artifact = artifact(&payload, loaded.circuit, opts);
    let counters = CacheCounters::default();
    let cancel = deadline_token(opts);
    // `mc --diagnostics` reports how long the tape slot took to fill.
    let tape_us = (opts.diagnostics && matches!(request, Request::MonteCarlo { .. })).then(|| {
        let start = std::time::Instant::now();
        artifact.tape(&counters);
        start.elapsed().as_micros()
    });
    let outcome = api::run(&request, &artifact, &counters, opts.threads, &cancel)
        .map_err(|e| run_error(&request, e))?;
    let c = artifact.circuit();
    if opts.json {
        return Ok(json_line(outcome.to_json(&request, c)?));
    }
    let (mut out, body) = match &outcome {
        Outcome::Analyze(points) => analyze_text(c, points, opts)?,
        Outcome::Observability(matrix) => observability_text(c, matrix, opts)?,
        Outcome::MonteCarlo(estimate) => mc_text(c, estimate, opts, tape_us),
        Outcome::Estimate(report) => estimate_text(c, report, opts),
        Outcome::Harden(report) => (harden_text(c, report, opts), None),
        Outcome::CriticalEps(report) => (critical_eps_text(report), None),
    };
    if opts.diagnostics {
        out.push_str(&diagnostics_footer(body, opts, &cancel, &artifact));
    }
    Ok(out)
}

fn backend_name(opts: &Options) -> &'static str {
    match opts.backend {
        crate::options::BackendKind::Bdd => "bdd",
        crate::options::BackendKind::Sim => "sim",
    }
}

/// `analyze` text, and its `--diagnostics` block. On a multi-output
/// circuit `--diagnostics` adds the any-output error of the consolidated
/// outputs.
fn analyze_text(
    c: &Circuit,
    points: &[relogic::SinglePassResult],
    opts: &Options,
) -> Result<(String, Option<String>), CliError> {
    let mut out = String::new();
    let mut diag = relogic::Diagnostics::new();
    for result in points {
        out.push_str(&format!(
            "single-pass reliability at eps = {} ({} backend{})\n",
            opts.eps,
            backend_name(opts),
            if opts.no_correlations {
                ", correlations off"
            } else {
                ""
            }
        ));
        for (k, o) in c.outputs().iter().enumerate() {
            out.push_str(&format!(
                "{:>24}  delta = {:.6}\n",
                o.name(),
                result.per_output()[k]
            ));
        }
        if opts.per_node {
            out.push_str("\nper-node error probabilities:\n");
            for (id, node) in c.iter() {
                if !node.kind().is_gate() {
                    continue;
                }
                out.push_str(&format!(
                    "{:>24}  p01 = {:.6}  p10 = {:.6}  delta = {:.6}\n",
                    c.display_name(id),
                    result.p01(id),
                    result.p10(id),
                    result.node_delta(id)
                ));
            }
        }
        diag.merge(result.diagnostics());
        if opts.diagnostics && c.output_count() > 1 {
            let cons = relogic::consolidate::Consolidator::try_new(
                c,
                &InputDistribution::Uniform,
                opts.backend(),
                opts.threads,
            )?;
            let any = cons.try_any_output_error(result, &mut diag)?;
            out.push_str(&format!("{:>24}  any-output = {any:.6}\n", "*"));
        }
    }
    Ok((out, Some(format!("{diag}\n"))))
}

fn observability_text(
    c: &Circuit,
    obs: &ObservabilityMatrix,
    opts: &Options,
) -> Result<(String, Option<String>), CliError> {
    let deltas = obs.closed_form(&GateEps::try_uniform(c, opts.eps)?);
    let mut out = format!(
        "closed-form observability bound at eps = {} ({} backend)\n",
        opts.eps,
        backend_name(opts),
    );
    for (k, o) in c.outputs().iter().enumerate() {
        out.push_str(&format!("{:>24}  delta = {:.6}\n", o.name(), deltas[k]));
    }
    if opts.per_node {
        out.push_str("\nper-gate any-output observability:\n");
        for (id, node) in c.iter() {
            if !node.kind().is_gate() {
                continue;
            }
            out.push_str(&format!(
                "{:>24}  observability = {:.6}\n",
                c.display_name(id),
                obs.any(id)
            ));
        }
    }
    Ok((out, Some(format!("{}\n", obs.diagnostics()))))
}

fn mc_text(
    c: &Circuit,
    r: &relogic_sim::ReliabilityEstimate,
    opts: &Options,
    tape_us: Option<u128>,
) -> (String, Option<String>) {
    let mut out = format!(
        "monte carlo at eps = {} ({} patterns)\n",
        opts.eps,
        r.patterns()
    );
    for (k, o) in c.outputs().iter().enumerate() {
        out.push_str(&format!(
            "{:>24}  delta = {:.6}  (std err {:.6})\n",
            o.name(),
            r.per_output()[k],
            r.std_error(k)
        ));
    }
    out.push_str(&format!(
        "{:>24}  any-output = {:.6}\n",
        "*",
        r.any_output()
    ));
    let engine = format!(
        "engine: tape ({} x 64-bit lanes, compiled in {} us)\n",
        relogic_sim::DEFAULT_LANES,
        tape_us.unwrap_or(0)
    );
    (out, Some(engine))
}

/// The auto-escalating hybrid estimator's text: which tier answered and
/// why, and the propagation answer a Monte Carlo refinement replaced.
fn estimate_text(
    c: &Circuit,
    report: &relogic_estimate::EstimateReport,
    opts: &Options,
) -> (String, Option<String>) {
    let mut out = format!(
        "hybrid estimate at eps = {} (tier: {})\nreason: {}\n",
        opts.eps,
        report.tier.name(),
        report.reason
    );
    for (k, o) in c.outputs().iter().enumerate() {
        out.push_str(&format!(
            "{:>24}  delta = {:.6}\n",
            o.name(),
            report.per_output[k]
        ));
    }
    if report.tier == EstimatorTier::MonteCarlo {
        if let Some(prop) = &report.propagation {
            out.push_str("\npropagation tier before MC refinement:\n");
            for (k, o) in c.outputs().iter().enumerate() {
                out.push_str(&format!("{:>24}  delta = {:.6}\n", o.name(), prop[k]));
            }
        }
    }
    (out, Some(format!("{}\n", report.diagnostics)))
}

/// The selective-TMR hardening sweep's text: the reliability-per-area
/// Pareto front and the gate protection order.
fn harden_text(c: &Circuit, report: &relogic_estimate::HardenReport, opts: &Options) -> String {
    let point_line = |p: &relogic_estimate::ParetoPoint| {
        format!(
            "protect {:>4}  {:>6} gates  area {:>6.2}x  mean delta = {:.6}  max delta = {:.6}\n",
            p.protected, p.gates, p.area_ratio, p.mean_delta, p.max_delta
        )
    };
    let mut out = format!(
        "selective-TMR hardening sweep at eps = {} (area budget {:.2}x)\n",
        opts.eps, opts.area_budget
    );
    out.push_str("baseline:  ");
    out.push_str(&point_line(&report.baseline));
    out.push_str(&format!(
        "evaluated {} protection prefixes within budget\npareto front:\n",
        report.evaluated.len()
    ));
    for p in &report.front {
        out.push_str("  ");
        out.push_str(&point_line(p));
    }
    out.push_str(&format!(
        "\nprotection order (top {}, criticality = eps * any-output observability):\n",
        opts.top.min(report.ranking.len())
    ));
    for &(id, crit) in report.ranking.iter().take(opts.top) {
        out.push_str(&format!(
            "{:>24}  criticality = {:.6}\n",
            c.display_name(id),
            crit
        ));
    }
    out
}

/// The critical-ε bisection's text: where δ reaches the threshold, and the
/// final bracket.
fn critical_eps_text(report: &relogic_estimate::CriticalEpsReport) -> String {
    let mut out = format!(
        "critical-eps bisection (metric {}, threshold {})\n",
        report.metric.name(),
        report.threshold
    );
    match report.critical {
        Some(critical) => out.push_str(&format!(
            "{} delta reaches {} at eps = {:.9} ({} steps)\n",
            report.metric.name(),
            report.threshold,
            critical,
            report.steps
        )),
        None => out.push_str(&format!(
            "{} delta never reaches {} for eps in [0, 0.5]\n",
            report.metric.name(),
            report.threshold
        )),
    }
    out.push_str(&format!(
        "bracket: eps in [{:.9}, {:.9}], delta in [{:.6}, {:.6}]\n",
        report.lo, report.hi, report.delta_lo, report.delta_hi
    ));
    out
}

fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    let opts = &args.options;
    if args.target.is_some() {
        return Err(CliError::Usage(
            "`serve` takes no netlist argument (circuits arrive over the socket)".into(),
        ));
    }
    if opts.listen.is_none() && opts.unix.is_none() {
        return Err(CliError::Usage(
            "`serve` needs --listen <addr> and/or --unix <path>".into(),
        ));
    }
    #[cfg(feature = "chaos")]
    let chaos = match &opts.chaos_profile {
        Some(spec) => {
            let config = relogic_serve::chaos::ChaosConfig::parse(spec).map_err(CliError::Usage)?;
            eprintln!(
                "relogic-serve: CHAOS ACTIVE — profile `{spec}` (deterministic fault injection)"
            );
            Some(relogic_serve::chaos::Chaos::new(config))
        }
        None => None,
    };
    let config = relogic_serve::ServerConfig {
        tcp: opts.listen.clone(),
        unix: opts.unix.clone().map(std::path::PathBuf::from),
        threads: opts.threads,
        service: relogic_serve::ServiceConfig {
            cache_bytes: opts.cache_bytes,
            timeout_ms: opts.timeout_ms,
            max_inflight: opts.max_inflight,
            cache_dir: opts.cache_dir.clone().map(std::path::PathBuf::from),
            #[cfg(feature = "chaos")]
            chaos,
            ..relogic_serve::ServiceConfig::default()
        },
        ..relogic_serve::ServerConfig::default()
    };
    let shutdown = relogic_serve::signal::install_shutdown_flag();
    let server = relogic_serve::Server::start(config).map_err(|source| CliError::Io {
        path: opts
            .unix
            .clone()
            .or_else(|| opts.listen.clone())
            .unwrap_or_else(|| "serve".into()),
        source,
    })?;
    if let Some(addr) = server.tcp_addr() {
        eprintln!("relogic-serve: listening on tcp://{addr}");
    }
    if let Some(path) = server.unix_path() {
        eprintln!("relogic-serve: listening on unix:{}", path.display());
    }
    while !shutdown.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("relogic-serve: signal received, draining");
    server.shutdown();
    Ok("relogic-serve: shutdown complete\n".to_owned())
}

fn sweep(c: &Circuit, opts: &Options) -> Result<String, CliError> {
    let weights = analysis_weights(c, opts)?;
    let grid = relogic::sweep::try_epsilon_grid(opts.points, 0.0, opts.max_eps)?;
    let curves =
        relogic::sweep::sweep_single_pass(c, &weights, engine_options(opts), &grid, opts.threads)?;
    let mut out = String::from("eps");
    for o in c.outputs() {
        out.push_str(&format!(",{}", o.name()));
    }
    out.push('\n');
    for (i, &e) in grid.iter().enumerate() {
        out.push_str(&format!("{e:.5}"));
        for &d in &curves.delta[i] {
            out.push_str(&format!(",{d:.6}"));
        }
        out.push('\n');
    }
    if opts.diagnostics {
        for line in curves.diagnostics.to_string().lines() {
            out.push_str(&format!("# {line}\n"));
        }
    }
    Ok(out)
}

fn rank(artifact: &Artifact, opts: &Options) -> Result<String, CliError> {
    let c = artifact.circuit();
    let cancel = deadline_token(opts);
    let obs = artifact.observability(&CacheCounters::default(), opts.threads, &cancel)?;
    let rows = obs.criticality(c, &GateEps::try_uniform(c, opts.eps)?);
    let mut out = format!(
        "top {} gates by soft-error criticality (eps * any-output observability):\n",
        opts.top.min(rows.len())
    );
    for (id, crit) in rows.into_iter().take(opts.top) {
        out.push_str(&format!(
            "{:>24}  {:6}  criticality = {:.6}  observability = {:.4}\n",
            c.display_name(id),
            c.node(id).kind().to_string(),
            crit,
            obs.any(id)
        ));
    }
    if opts.diagnostics {
        let body = format!("{}\n", obs.diagnostics());
        out.push_str(&diagnostics_footer(Some(body), opts, &cancel, artifact));
    }
    Ok(out)
}

/// Opens the store named by `--cache-dir` for the offline `cache`
/// actions. Unlike the read/write-through paths, these are *about* the
/// store, so an unusable directory is a hard error (exit code 7).
fn cache_store(args: &ParsedArgs) -> Result<Store, CliError> {
    let dir =
        args.options.cache_dir.as_deref().ok_or_else(|| {
            CliError::Usage(format!("`{}` needs --cache-dir <DIR>", args.command))
        })?;
    Ok(Store::open(dir)?)
}

fn cache_ls(store: &Store) -> Result<String, CliError> {
    let entries = store.ls()?;
    let mut out = String::new();
    let mut total = 0u64;
    for entry in &entries {
        total += entry.bytes;
        out.push_str(&format!(
            "{}  {:<13} {:>12} bytes\n",
            entry.key.hex(),
            entry.kind.name(),
            entry.bytes
        ));
    }
    out.push_str(&format!("{} artifacts, {total} bytes\n", entries.len()));
    Ok(out)
}

fn cache_verify(store: &Store) -> Result<String, CliError> {
    let report = store.verify()?;
    if report.quarantined.is_empty() {
        return Ok(format!("verified {} artifacts, all clean\n", report.ok));
    }
    let mut msg = format!(
        "{} artifacts verified, {} corrupt (renamed to *.corrupt):",
        report.ok,
        report.quarantined.len()
    );
    for (path, reason) in &report.quarantined {
        msg.push_str(&format!("\n  {}: {reason}", path.display()));
    }
    Err(CliError::Store(msg))
}

/// Removes what no request can read: the artifacts of keys this version
/// would not give their recorded payload (a renamed backend tag, say), and
/// the store's own residue.
fn cache_gc(store: &Store) -> Result<String, CliError> {
    let report =
        store.gc(|key, meta| ArtifactKey::of_meta(meta).is_some_and(|k| k.store_key() == key))?;
    Ok(format!(
        "removed {} files (unreachable keys, *.tmp, *.corrupt, retired *.tape/*.est), freed {} bytes\n",
        report.removed, report.bytes_freed
    ))
}

/// Precomputes every stored artifact for a netlist (weights and
/// observability) so a later `serve --cache-dir` (or one-shot command)
/// starts warm, by reading each stored slot of its [`Artifact`] through
/// the store. Idempotent: artifacts already
/// present are read back, not recomputed.
fn cache_warm(store: &Store, loaded: LoadedNetlist) -> Result<String, CliError> {
    let key = ArtifactKey::of(&loaded.payload).store_key();
    let mut out = format!("warming {} as {}\n", loaded.path, key.hex());
    // The artifact writes the meta sidecar through when it is missing.
    let had_meta = matches!(store.load_meta(key)?, Loaded::Hit(_));
    let disk = Arc::new(DiskTier::open(store.root()));
    let artifact = Artifact::new(&loaded.payload, loaded.circuit, Some(Arc::clone(&disk)));
    let (counters, never) = (CacheCounters::default(), relogic::CancelToken::new());
    artifact.weights(&counters, 0, &never)?;
    artifact.observability(&counters, 0, &never)?;
    if disk.is_degraded() {
        return Err(CliError::Store(format!(
            "{}: store unusable, artifacts not written",
            store.root().display()
        )));
    }
    let meta = if had_meta {
        "already present"
    } else {
        "stored"
    };
    out.push_str(&format!("{:<15}{meta}\n", "meta:"));
    for (slot, origin) in artifact.provenance() {
        let what = match origin {
            Origin::DiskHit => "already present",
            _ => "computed and stored",
        };
        out.push_str(&format!("{:<15}{what}\n", format!("{slot}:")));
    }
    Ok(out)
}

fn convert(c: &Circuit, opts: &Options) -> Result<String, CliError> {
    match opts.to.as_str() {
        "bench" => Ok(bench::write(c)),
        "blif" => Ok(blif::write(c)),
        "verilog" | "v" => Ok(verilog::write(c)),
        "dot" => Ok(dot::to_dot(c)),
        other => Err(CliError::Usage(format!(
            "unknown target format `{other}` (expected bench, blif, verilog, or dot)"
        ))),
    }
}

fn gen(args: &ParsedArgs) -> Result<String, CliError> {
    let name = args
        .target
        .as_deref()
        .ok_or_else(|| CliError::Usage("`gen` needs a suite circuit name".into()))?;
    let circuit = relogic_gen::suite::build(name).ok_or_else(|| {
        let names: Vec<&str> = relogic_gen::suite::entries()
            .iter()
            .map(|e| e.name)
            .collect();
        CliError::Usage(format!(
            "unknown suite circuit `{name}` (available: {})",
            names.join(", ")
        ))
    })?;
    Ok(bench::write(&circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic_estimate::{EstimatorPolicy, PropagationEstimate};
    use relogic_sim::MonteCarloConfig;

    const SMALL: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
t = NAND(a, b)
y = NOT(t)
";

    /// A netlist file in a directory of its own, removed when this drops.
    struct TempNetlist {
        dir: std::path::PathBuf,
        path: String,
    }

    impl Drop for TempNetlist {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Writes `text` to a file named `name` in a fresh directory: tests
    /// run concurrently, and `fs::write` truncates before writing, so a
    /// shared path would let one test read another's half-written netlist.
    fn netlist(name: &str, text: &str) -> TempNetlist {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "relogic-cli-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        TempNetlist {
            path: path.display().to_string(),
            dir,
        }
    }

    fn run_on_file(command: &str, extra: &[&str]) -> String {
        let file = netlist(&format!("{command}.bench"), SMALL);
        let mut argv: Vec<String> = vec![command.to_owned(), file.path.clone()];
        argv.extend(extra.iter().map(|s| (*s).to_owned()));
        let parsed = ParsedArgs::parse(argv).unwrap();
        run(&parsed).unwrap()
    }

    #[test]
    fn stats_command() {
        let out = run_on_file("stats", &[]);
        assert!(out.contains("gates:            2"));
        assert!(out.contains("inputs:           2"));
    }

    #[test]
    fn analyze_command() {
        let out = run_on_file("analyze", &["--eps", "0.1", "--per-node"]);
        assert!(out.contains("delta ="));
        assert!(out.contains("p01 ="));
        // Two noisy gates in series: delta = 2·0.1·0.9 = 0.18.
        assert!(out.contains("0.180000"), "{out}");
    }

    #[test]
    fn sweep_command_emits_csv() {
        let out = run_on_file("sweep", &["--points", "3", "--max-eps", "0.5"]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "eps,y");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0.00000,0.000000"));
    }

    #[test]
    fn mc_command() {
        let out = run_on_file("mc", &["--patterns", "8192", "--eps", "0.1"]);
        assert!(out.contains("8192 patterns"));
        assert!(out.contains("any-output"));
    }

    #[test]
    fn mc_and_sweep_output_is_thread_count_invariant() {
        let mc1 = run_on_file(
            "mc",
            &["--patterns", "8192", "--eps", "0.1", "--threads", "1"],
        );
        let mc7 = run_on_file(
            "mc",
            &["--patterns", "8192", "--eps", "0.1", "--threads", "7"],
        );
        assert_eq!(mc1, mc7);
        let sw1 = run_on_file("sweep", &["--points", "5", "--threads", "1"]);
        let sw3 = run_on_file("sweep", &["--points", "5", "--threads", "3"]);
        assert_eq!(sw1, sw3);
    }

    #[test]
    fn rank_command() {
        let out = run_on_file("rank", &["--top", "1"]);
        assert!(out.contains("criticality ="));
        // The output inverter has observability 1 and must rank first.
        assert!(out.contains("observability = 1.0000"));
    }

    #[test]
    fn convert_roundtrip() {
        let blif_text = run_on_file("convert", &["--to", "blif"]);
        assert!(blif_text.contains(".model"));
        let dot_text = run_on_file("convert", &["--to", "dot"]);
        assert!(dot_text.contains("digraph"));
        let bench_text = run_on_file("convert", &["--to", "bench"]);
        assert!(bench_text.contains("NAND"));
        let verilog_text = run_on_file("convert", &["--to", "verilog"]);
        assert!(verilog_text.contains("module"));
        assert!(verilog_text.contains("nand"));
    }

    #[test]
    fn verilog_detection_by_extension() {
        let file = netlist(
            "t.v",
            "module t (a, y);\n input a;\n output y;\n not (y, a);\nendmodule\n",
        );
        let parsed = ParsedArgs::parse(["stats", file.path.as_str()]).unwrap();
        let out = run(&parsed).unwrap();
        assert!(out.contains("gates:            1"), "{out}");
    }

    #[test]
    fn gen_command() {
        let parsed = ParsedArgs::parse(["gen", "x2"]).unwrap();
        let out = run(&parsed).unwrap();
        assert!(out.contains("INPUT(pi0)"));
        let reparsed = bench::parse(&out).unwrap();
        assert_eq!(reparsed.gate_count(), 56);
        let bad = ParsedArgs::parse(["gen", "zzz"]).unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn helpful_errors() {
        let parsed = ParsedArgs::parse(["frobnicate"]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert_eq!(err.exit_code(), 2);
        let parsed = ParsedArgs::parse(["analyze"]).unwrap();
        assert!(matches!(run(&parsed), Err(CliError::Usage(_))));
        let parsed = ParsedArgs::parse(["analyze", "/nonexistent/file.bench"]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
        assert_eq!(err.exit_code(), 3);
        assert!(
            err.to_string().contains("/nonexistent/file.bench"),
            "i/o errors must name the file: {err}"
        );
        let parsed = ParsedArgs::parse(["help"]).unwrap();
        assert!(run(&parsed).unwrap().contains("USAGE"));
    }

    #[test]
    fn parse_errors_carry_file_and_line() {
        let file = netlist("broken.bench", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
        let parsed = ParsedArgs::parse(["stats", file.path.as_str()]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(matches!(err, CliError::Netlist { .. }));
        assert_eq!(err.exit_code(), 4);
        let msg = err.to_string();
        assert!(
            msg.contains("broken.bench:3:"),
            "expected `file:line:` prefix, got: {msg}"
        );
    }

    #[test]
    fn strict_rejects_out_of_policy_eps() {
        let file = netlist("strict.bench", SMALL);
        let p = file.path.clone();
        // ε = 0.6 passes lenient validation…
        let parsed = ParsedArgs::parse(["analyze", p.as_str(), "--eps", "0.6"]).unwrap();
        assert!(run(&parsed).is_ok());
        // …but is rejected under --strict (von Neumann ε ≤ 0.5).
        let parsed =
            ParsedArgs::parse(["analyze", p.as_str(), "--eps", "0.6", "--strict"]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)));
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains("0.6"), "{err}");
    }

    #[test]
    fn diagnostics_flag_prints_counters() {
        let out = run_on_file("analyze", &["--eps", "0.1", "--diagnostics"]);
        assert!(out.contains("diagnostics:"), "{out}");
        assert!(out.contains("probability clamps:"), "{out}");
        let out = run_on_file("sweep", &["--points", "3", "--diagnostics"]);
        assert!(out.contains("# probability clamps:"), "{out}");
    }

    #[test]
    fn mc_zero_patterns_is_a_typed_error() {
        let file = netlist("mc0.bench", SMALL);
        let p = file.path.clone();
        let parsed = ParsedArgs::parse(["mc", p.as_str(), "--patterns", "0"]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(matches!(err, CliError::Sim(_)));
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("pattern budget"), "{err}");
    }

    #[test]
    fn observability_command() {
        let out = run_on_file("observability", &["--eps", "0.1", "--per-node"]);
        assert!(out.contains("delta ="), "{out}");
        assert!(out.contains("observability = 1.000000"), "{out}");
    }

    #[test]
    fn json_output_matches_server_schema() {
        let out = run_on_file("analyze", &["--eps", "0.1", "--json"]);
        let doc = relogic_serve::json::parse(out.trim()).unwrap();
        let points = doc.get("points").unwrap();
        let delta = points.as_array().unwrap()[0].get("delta").unwrap();
        let d = delta.as_array().unwrap()[0].as_f64().unwrap();
        assert!((d - 0.18).abs() < 1e-12, "{out}");
        assert_eq!(doc.get("cache").and_then(Json::as_str), Some("bypass"));

        let out = run_on_file("observability", &["--eps", "0.1", "--json"]);
        assert!(relogic_serve::json::parse(out.trim()).is_ok(), "{out}");

        let out = run_on_file("mc", &["--patterns", "4096", "--json"]);
        let doc = relogic_serve::json::parse(out.trim()).unwrap();
        assert_eq!(doc.get("patterns").and_then(Json::as_u64), Some(4096));
    }

    #[test]
    fn cli_json_is_bit_identical_to_server_result() {
        // The CLI and the daemon must expose the same schema and the same
        // numbers for every request kind; a client can switch transports
        // without re-validating.
        for (command, flags, kind, fields) in [
            ("analyze", "--eps 0.1", "analyze", r#""eps":0.1"#),
            (
                "observability",
                "--eps 0.1 --per-node",
                "observability",
                r#""eps":0.1,"per_gate":true"#,
            ),
            (
                "mc",
                "--eps 0.1 --patterns 4096 --seed 5",
                "monte_carlo",
                r#""eps":0.1,"patterns":4096,"seed":5"#,
            ),
            ("estimate", "--eps 0.1", "estimate", r#""eps":0.1"#),
            (
                "harden",
                "--eps 0.1 --area-budget 20",
                "harden",
                r#""eps":0.1,"area_budget":20"#,
            ),
            (
                "critical-eps",
                "--threshold 0.18",
                "critical_eps",
                r#""threshold":0.18"#,
            ),
        ] {
            let mut argv: Vec<&str> = flags.split(' ').collect();
            argv.push("--json");
            let cli = run_on_file(command, &argv);
            let service = relogic_serve::Service::new(relogic_serve::ServiceConfig::default());
            let frame = format!(
                r#"{{"kind":"{kind}","netlist":"{}",{fields}}}"#,
                SMALL.replace('\n', "\\n")
            );
            let reply = service.handle_line(&frame);
            let server_result = relogic_serve::json::parse(reply.trim())
                .unwrap()
                .get("result")
                .unwrap_or_else(|| panic!("{command}: {reply}"))
                .clone();
            let cli_result = relogic_serve::json::parse(cli.trim()).unwrap();
            assert_eq!(
                cli_result.encode().replace(",\"cache\":\"bypass\"", ""),
                server_result.encode().replace(",\"cache\":\"miss\"", ""),
                "{command}"
            );
        }
    }

    #[test]
    fn flagless_requests_match_the_daemon_defaults() {
        for (command, kind) in KIND_COMMANDS.iter().zip([
            "analyze",
            "observability",
            "monte_carlo",
            "estimate",
            "harden",
            "critical_eps",
        ]) {
            let args = ParsedArgs::parse([*command, "x.bench"]).unwrap();
            let payload = CircuitPayload {
                netlist: SMALL.to_owned(),
                format: NetlistFormat::Bench,
                backend: backend_spec(&args.options),
            };
            let cli = request(command, &args.options, payload).unwrap();
            let frame = Json::obj([("kind", Json::from(kind)), ("netlist", Json::from(SMALL))]);
            let (_, daemon) = relogic_serve::proto::parse_request(
                &frame.encode(),
                &relogic_serve::RequestLimits::default(),
            );
            assert_eq!(format!("{cli:?}"), format!("{:?}", daemon.unwrap()));
        }
    }

    #[test]
    fn analyze_engines_agree_bit_for_bit() {
        let tape = run_on_file(
            "analyze",
            &["--eps", "0.1", "--no-correlations", "--per-node"],
        );
        // `--strict` does not change the numbers of an in-policy run.
        let graph = run_on_file(
            "analyze",
            &[
                "--eps",
                "0.1",
                "--no-correlations",
                "--per-node",
                "--strict",
            ],
        );
        assert_eq!(tape, graph, "tape and graph engines must print the same");
    }

    #[test]
    fn mc_engine_flag_and_diagnostics() {
        let out = run_on_file("mc", &["--patterns", "4096", "--diagnostics"]);
        assert!(out.contains("engine: tape ("), "{out}");
    }

    #[test]
    fn partner_cap_flag_feeds_the_engine() {
        // On this tiny circuit every cap gives the same exact answer; the
        // test checks the flag plumbs through without an error.
        let capped = run_on_file("analyze", &["--eps", "0.1", "--partner-cap", "2"]);
        let uncapped = run_on_file("analyze", &["--eps", "0.1", "--partner-cap", "none"]);
        assert!(capped.contains("0.180000"), "{capped}");
        assert_eq!(capped, uncapped);
    }

    #[test]
    fn cache_dir_round_trip_and_provenance() {
        let dir = std::env::temp_dir().join(format!("relogic-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = netlist("cached.bench", SMALL);
        let p = file.path.clone();
        let d = dir.display().to_string();

        // First run computes and stores; second hits and prints identically.
        let argv = [
            "analyze",
            p.as_str(),
            "--eps",
            "0.1",
            "--cache-dir",
            d.as_str(),
            "--diagnostics",
        ];
        let first = run(&ParsedArgs::parse(argv).unwrap()).unwrap();
        assert!(first.contains("disk miss"), "{first}");
        let second = run(&ParsedArgs::parse(argv).unwrap()).unwrap();
        assert!(second.contains("disk hit"), "{second}");
        assert_eq!(
            first.replace("disk miss (computed and stored)", "X"),
            second.replace("disk hit", "X"),
            "cached artifacts must not change the numbers"
        );
        // observability and rank share the same store.
        let obs_argv = [
            "observability",
            p.as_str(),
            "--cache-dir",
            d.as_str(),
            "--diagnostics",
        ];
        let obs_first = run(&ParsedArgs::parse(obs_argv).unwrap()).unwrap();
        assert!(obs_first.contains("disk miss"), "{obs_first}");
        let rank_argv = [
            "rank",
            p.as_str(),
            "--cache-dir",
            d.as_str(),
            "--diagnostics",
        ];
        let ranked = run(&ParsedArgs::parse(rank_argv).unwrap()).unwrap();
        assert!(ranked.contains("disk hit"), "{ranked}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_subcommands_manage_the_store_offline() {
        let dir = std::env::temp_dir().join(format!("relogic-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = netlist("warmme.bench", SMALL);
        let p = file.path.clone();
        let d = dir.display().to_string();

        // --cache-dir is mandatory for the offline actions.
        let err = run(&ParsedArgs::parse(["cache", "ls"]).unwrap()).unwrap_err();
        assert!(err.to_string().contains("--cache-dir"), "{err}");
        let err = run(&ParsedArgs::parse(["cache", "zap", "--cache-dir", d.as_str()]).unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("unknown cache action"), "{err}");

        // warm → ls → verify, twice (idempotent).
        let warm =
            run(
                &ParsedArgs::parse(["cache", "warm", p.as_str(), "--cache-dir", d.as_str()])
                    .unwrap(),
            )
            .unwrap();
        assert!(warm.contains("computed and stored"), "{warm}");
        let warm2 =
            run(
                &ParsedArgs::parse(["cache", "warm", p.as_str(), "--cache-dir", d.as_str()])
                    .unwrap(),
            )
            .unwrap();
        assert!(warm2.contains("already present"), "{warm2}");
        let ls =
            run(&ParsedArgs::parse(["cache", "ls", "--cache-dir", d.as_str()]).unwrap()).unwrap();
        assert!(ls.contains("3 artifacts"), "{ls}");
        assert!(
            warm.contains("observability: computed and stored"),
            "{warm}"
        );
        assert!(warm2.contains("observability: already present"), "{warm2}");
        assert!(
            !warm.contains("tape") && !warm.contains("estimator"),
            "{warm}"
        );
        let verify =
            run(&ParsedArgs::parse(["cache", "verify", "--cache-dir", d.as_str()]).unwrap())
                .unwrap();
        assert!(verify.contains("all clean"), "{verify}");

        // Corrupt one artifact: verify must fail with exit code 7 and
        // quarantine, then gc sweeps the corpse.
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "wts"))
            .unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let err = run(&ParsedArgs::parse(["cache", "verify", "--cache-dir", d.as_str()]).unwrap())
            .unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
        assert_eq!(err.exit_code(), 7);
        assert!(err.to_string().contains("corrupt"), "{err}");
        let gc =
            run(&ParsedArgs::parse(["cache", "gc", "--cache-dir", d.as_str()]).unwrap()).unwrap();
        assert!(gc.contains("removed 1 files"), "{gc}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_gc_removes_keys_of_retired_backend_tags() {
        let root = std::env::temp_dir().join(format!("relogic-cli-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("store");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join("gcme.bench");
        std::fs::write(&path, SMALL).unwrap();
        let (p, d) = (path.display().to_string(), dir.display().to_string());
        let warm = ["cache", "warm", &p, "--cache-dir", &d];
        run(&ParsedArgs::parse(warm).unwrap()).unwrap();
        let sampled = ["--backend", "sim", "--patterns", "4096", "--seed", "7"];
        run(&ParsedArgs::parse(warm.into_iter().chain(sampled)).unwrap()).unwrap();

        // A key an earlier version wrote under the sequential-stream tag,
        // with its artifacts (copied from the current sampled key's).
        let store = Store::open(&dir).unwrap();
        let old_tag = "sim:4096:7";
        let old = relogic_store::StoreKey::digest("bench", old_tag, SMALL);
        let meta = relogic_store::ArtifactMeta {
            format_tag: "bench".into(),
            backend_tag: old_tag.into(),
            netlist: SMALL.into(),
        };
        store.save_meta(old, &meta).unwrap();
        let sim = relogic_store::StoreKey::digest("bench", "sim-pos:4096:7", SMALL);
        for ext in ["wts", "obs"] {
            let from = dir.join(format!("{}.{ext}", sim.hex()));
            std::fs::copy(from, dir.join(format!("{}.{ext}", old.hex()))).unwrap();
        }
        assert_eq!(store.ls().unwrap().len(), 9);

        let gc =
            run(&ParsedArgs::parse(["cache", "gc", "--cache-dir", d.as_str()]).unwrap()).unwrap();
        assert!(gc.contains("removed 3 files"), "{gc}");
        let left = store.ls().unwrap();
        assert_eq!(left.len(), 6, "the current bdd and sim-pos keys stay");
        assert!(left.iter().all(|e| e.key != old));
        assert!(left.iter().any(|e| e.key == sim));
        let again =
            run(&ParsedArgs::parse(["cache", "gc", "--cache-dir", d.as_str()]).unwrap()).unwrap();
        assert!(again.contains("removed 0 files"), "{again}");

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn estimate_command_exact_tier() {
        let out = run_on_file("estimate", &["--eps", "0.1"]);
        assert!(out.contains("tier: exact"), "{out}");
        // Two noisy gates in series: delta = ½(1 − (1 − 2·0.1)²) = 0.18.
        assert!(out.contains("0.180000"), "{out}");
    }

    #[test]
    fn estimate_budget_zero_falls_back_loudly() {
        let out = run_on_file(
            "estimate",
            &["--eps", "0.1", "--bdd-node-budget", "0", "--diagnostics"],
        );
        assert!(out.contains("tier: propagation"), "{out}");
        assert!(out.contains("disabled"), "{out}");
        assert!(out.contains("fallbacks 1"), "{out}");
        // The propagation closed form is exact on this fanout-free chain.
        assert!(out.contains("0.180000"), "{out}");
    }

    #[test]
    fn estimate_budget_trip_prints_its_bdd_statistics() {
        let out = run_on_file(
            "estimate",
            &["--eps", "0.1", "--bdd-node-budget", "2", "--diagnostics"],
        );
        assert!(out.contains("(3 live nodes > 2)"), "{out}");
        assert!(out.contains("peak live BDD nodes:      2\n"), "{out}");
        assert!(out.contains("op-cache hit rate:"), "{out}");
    }

    #[test]
    fn estimate_json_matches_server_schema() {
        let out = run_on_file("estimate", &["--eps", "0.1", "--json"]);
        let doc = relogic_serve::json::parse(out.trim()).unwrap();
        assert_eq!(doc.get("tier").and_then(Json::as_str), Some("exact"));
        let d = doc.get("delta").unwrap().as_array().unwrap()[0]
            .as_f64()
            .unwrap();
        assert!((d - 0.18).abs() < 1e-12, "{out}");
        assert_eq!(doc.get("cache").and_then(Json::as_str), Some("bypass"));
    }

    #[test]
    fn estimate_mc_tier_matches_server_and_in_process_bits() {
        // Budget 0 skips the exact tier; at ε = 0.3 the propagation δ of
        // SMALL saturates past the MC threshold, so the MC tier answers.
        let (eps, patterns, seed) = (0.3, 4096, 7);
        let argv = "--eps 0.3 --bdd-node-budget 0 --patterns 4096 --seed 7 --json";
        let cli = run_on_file("estimate", &argv.split(' ').collect::<Vec<_>>());
        let frame = format!(
            r#"{{"kind":"estimate","netlist":"{}","eps":{eps},"bdd_node_budget":0,"patterns":{patterns},"seed":{seed}}}"#,
            SMALL.replace('\n', "\\n")
        );
        let service = relogic_serve::Service::new(relogic_serve::ServiceConfig::default());
        let reply = service.handle_line(&frame);
        let server = relogic_serve::json::parse(reply.trim())
            .unwrap()
            .get("result")
            .unwrap()
            .clone();

        let c = bench::parse(SMALL).unwrap();
        let gate_eps = GateEps::try_uniform(&c, eps).unwrap();
        let policy = EstimatorPolicy {
            bdd_node_budget: 0,
            mc_patterns: patterns,
            mc_seed: seed,
            ..EstimatorPolicy::default()
        };
        let report = relogic_estimate::run_estimate(
            &policy,
            |_| unreachable!("budget 0 skips the exact tier"),
            || {
                Ok(
                    PropagationEstimate::try_compute(&c, &InputDistribution::Uniform)?
                        .closed_form(&gate_eps),
                )
            },
            |patterns, seed| {
                let config = MonteCarloConfig {
                    patterns,
                    seed,
                    ..MonteCarloConfig::default()
                };
                Ok(relogic_sim::try_estimate(&c, gate_eps.as_slice(), &config)?
                    .per_output()
                    .to_vec())
            },
        )
        .unwrap();
        assert_eq!(report.tier, EstimatorTier::MonteCarlo);
        let in_process: Vec<u64> = report.per_output.iter().map(|d| d.to_bits()).collect();

        for (who, doc) in [
            ("cli", relogic_serve::json::parse(cli.trim()).unwrap()),
            ("serve", server),
        ] {
            assert_eq!(doc.get("tier").and_then(Json::as_str), Some("mc"), "{who}");
            let delta: Vec<u64> = doc
                .get("delta")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|d| d.as_f64().unwrap().to_bits())
                .collect();
            assert_eq!(delta, in_process, "{who}");
        }
    }

    #[test]
    fn estimate_persists_artifacts_through_the_disk_cache() {
        let dir = std::env::temp_dir().join(format!("relogic-cli-est-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = netlist("est-cache.bench", SMALL);
        let p = file.path.clone();
        let d = dir.display().to_string();
        // Budget 0 exercises the propagation tier. Its estimate is
        // recomputed, never stored, so both runs print the same lines.
        let argv = [
            "estimate",
            p.as_str(),
            "--bdd-node-budget",
            "0",
            "--cache-dir",
            d.as_str(),
            "--diagnostics",
        ];
        let first = run(&ParsedArgs::parse(argv).unwrap()).unwrap();
        assert!(first.contains("disk cache ("), "{first}");
        assert!(!first.contains("estimator:"), "{first}");
        let second = run(&ParsedArgs::parse(argv).unwrap()).unwrap();
        assert_eq!(first, second, "the disk cache must not change the output");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn estimate_tier_matches_the_daemon_over_a_warm_store() {
        // A warmed store holds the exact observability matrix. Under a node
        // budget a fresh build would trip, the CLI and a daemon on the same
        // directory must both answer from it: same tier, same delta bits.
        let dir = std::env::temp_dir().join(format!("relogic-cli-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = netlist("tier.bench", SMALL);
        let p = file.path.clone();
        let d = dir.display().to_string();
        run(&ParsedArgs::parse(["cache", "warm", p.as_str(), "--cache-dir", d.as_str()]).unwrap())
            .unwrap();

        let mut argv: Vec<&str> = ["estimate", p.as_str()].into();
        argv.extend("--eps 0.1 --bdd-node-budget 1 --json --cache-dir".split(' '));
        argv.push(d.as_str());
        let cli = run(&ParsedArgs::parse(argv).unwrap()).unwrap();
        let service = relogic_serve::Service::new(relogic_serve::ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..relogic_serve::ServiceConfig::default()
        });
        let reply = service.handle_line(&format!(
            r#"{{"kind":"estimate","netlist":"{}","eps":0.1,"bdd_node_budget":1}}"#,
            SMALL.replace('\n', "\\n")
        ));
        let server = relogic_serve::json::parse(reply.trim())
            .unwrap()
            .get("result")
            .unwrap()
            .clone();
        let cli = relogic_serve::json::parse(cli.trim()).unwrap();
        let tier = |doc: &Json| doc.get("tier").and_then(Json::as_str).map(str::to_owned);
        let delta_bits = |doc: &Json| -> Vec<u64> {
            doc.get("delta")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|d| d.as_f64().unwrap().to_bits())
                .collect()
        };
        assert_eq!(tier(&cli).as_deref(), Some("exact"), "{reply}");
        assert_eq!(tier(&cli), tier(&server), "{reply}");
        assert_eq!(delta_bits(&cli), delta_bits(&server));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harden_command_reports_a_front() {
        let out = run_on_file("harden", &["--eps", "0.1", "--area-budget", "20"]);
        assert!(out.contains("baseline:"), "{out}");
        assert!(out.contains("pareto front:"), "{out}");
        assert!(out.contains("protection order"), "{out}");
        let out = run_on_file("harden", &["--eps", "0.1", "--area-budget", "20", "--json"]);
        let doc = relogic_serve::json::parse(out.trim()).unwrap();
        assert!(
            !doc.get("front").unwrap().as_array().unwrap().is_empty(),
            "{out}"
        );
        assert_eq!(doc.get("cache").and_then(Json::as_str), Some("bypass"));
    }

    #[test]
    fn critical_eps_command_bisects_the_chain() {
        // delta(e) = 2e(1−e) on the two-gate chain, so delta = 0.18
        // exactly at e = 0.1; the bisection must land there.
        let out = run_on_file("critical-eps", &["--threshold", "0.18"]);
        assert!(out.contains("reaches 0.18 at eps = 0.100000000"), "{out}");
        let out = run_on_file("critical-eps", &["--threshold", "0.18", "--json"]);
        let doc = relogic_serve::json::parse(out.trim()).unwrap();
        assert_eq!(doc.get("crossed").and_then(Json::as_bool), Some(true));
        let critical = doc.get("critical").unwrap().as_f64().unwrap();
        assert!((critical - 0.1).abs() < 1e-8, "{out}");
    }

    #[test]
    fn estimator_errors_exit_with_code_8() {
        let file = netlist("est-err.bench", SMALL);
        let p = file.path.clone();
        // A threshold at or above the delta = ½ ceiling is an estimator
        // parameter error, distinct from the analysis exit code.
        let parsed = ParsedArgs::parse(["critical-eps", p.as_str(), "--threshold", "0.9"]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(matches!(err, CliError::Estimator(_)), "{err}");
        assert_eq!(err.exit_code(), 8);
        assert!(err.to_string().contains("estimator error"), "{err}");
    }

    #[test]
    fn generous_deadline_output_is_bit_identical_to_undeadlined() {
        for (cmd, extra) in [
            ("analyze", &["--eps", "0.1"][..]),
            ("observability", &["--eps", "0.1"]),
            ("mc", &["--patterns", "4096"]),
            ("estimate", &["--eps", "0.1"]),
            ("critical-eps", &["--threshold", "0.18"]),
        ] {
            let mut with_deadline = extra.to_vec();
            with_deadline.extend(["--deadline-ms", "600000"]);
            assert_eq!(
                run_on_file(cmd, extra),
                run_on_file(cmd, &with_deadline),
                "{cmd}: a deadline that never fires must not change output"
            );
        }
    }

    #[test]
    fn expired_deadline_exits_with_code_9() {
        // An already-fired token maps to the deadline class at every
        // conversion seam the commands use.
        let c = relogic::Cancelled {
            after: std::time::Duration::from_millis(7),
            checked_at: "weights_build",
        };
        let err = CliError::from(relogic::RelogicError::Cancelled(c));
        assert!(matches!(err, CliError::Deadline(_)), "{err}");
        assert_eq!(err.exit_code(), 9);
        assert!(err.to_string().contains("deadline exceeded"), "{err}");
        let err = CliError::from(relogic_sim::SimError::Cancelled(c));
        assert_eq!(err.exit_code(), 9);
        let err = CliError::from(ServeError::DeadlineExceeded {
            after_ms: 7,
            site: "watchdog",
        });
        assert_eq!(err.exit_code(), 9);
        let (_, estimate) = relogic_serve::proto::parse_request(
            r#"{"kind":"estimate","netlist":"x"}"#,
            &relogic_serve::RequestLimits::default(),
        );
        let err = run_error(
            &estimate.unwrap(),
            ServeError::from(relogic::RelogicError::Cancelled(c)),
        );
        assert_eq!(err.exit_code(), 9, "estimator seam must not remap to 8");
    }

    #[test]
    fn deadline_note_appears_under_diagnostics() {
        let out = run_on_file(
            "mc",
            &[
                "--patterns",
                "4096",
                "--deadline-ms",
                "600000",
                "--diagnostics",
            ],
        );
        assert!(out.contains("deadline: 600000 ms budget"), "{out}");
        let out = run_on_file("mc", &["--patterns", "4096", "--diagnostics"]);
        assert!(
            !out.contains("deadline:"),
            "no note without an armed deadline: {out}"
        );
    }

    #[test]
    fn serve_usage_errors() {
        let parsed = ParsedArgs::parse(["serve"]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(err.to_string().contains("--listen"), "{err}");
        let parsed = ParsedArgs::parse(["serve", "x.bench", "--unix", "/tmp/x.sock"]).unwrap();
        let err = run(&parsed).unwrap_err();
        assert!(err.to_string().contains("no netlist argument"), "{err}");
    }

    #[test]
    fn blif_detection_by_extension() {
        let file = netlist(
            "t.blif",
            ".model t\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n",
        );
        let parsed = ParsedArgs::parse(["stats", file.path.as_str()]).unwrap();
        let out = run(&parsed).unwrap();
        assert!(out.contains("model:            t"));
    }
}
