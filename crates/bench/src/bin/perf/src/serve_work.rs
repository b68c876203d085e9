//! The `serve-warm` workload: an in-process `relogic-serve` daemon with
//! two workers, driven over its Unix socket by two closed-loop clients
//! (the daemon's callers are scripts that wait for each reply). Every
//! artifact is materialised during set-up and the working set is far
//! below the cache budget. Most requests are sub-millisecond kernels, so
//! parse, digest, encode and transport set the median; correlated
//! `analyze` sets the tail. No BDD or disk work runs after set-up.
//!
//! Request mixes are drawn in shuffled blocks with exact per-kind counts,
//! so every prefix of a client's stream has nearly the same mix whatever
//! the seed. The traced run repeats the socket run, then replays the same
//! request sequence in-process twice: once through `Service::handle_line`
//! (`serve.handle`), once through the public layer calls with a span
//! around each — parse, digest, kernels, encode — on a replica of the
//! daemon's cache.

use crate::gate::{check_reply, reply_result, same_result, Gate};
use crate::trace::{covered_under, Scope, Span, Tracer};
use crate::{end_to_end, finish_trace, more_setups, Outcome, Run};
use relogic::{CancelToken, GateEps, InputDistribution, ObservabilityMatrix, SweepTape, Weights};
use relogic_estimate::{EstimatorPolicy, PropagationEstimate};
use relogic_netlist::structure::CircuitStats;
use relogic_netlist::{bench, Circuit};
use relogic_serve::cache::ArtifactKey;
use relogic_serve::json::{self, Json};
use relogic_serve::proto::{self, BackendSpec, CircuitPayload, Request, RequestLimits, Response};
use relogic_serve::{api, Server, ServerConfig, Service, ServiceConfig};
use relogic_sim::{CircuitTape, MonteCarloConfig};
use relogic_store::StoreKey;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop clients, and daemon connection workers.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// The ε values requests draw from; 8-ε requests carry all of them.
const EPS: [f64; 8] = [0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25];
const MC_PATTERNS: u64 = 16_384;
/// The tail percentile. p99 is not used: on a shared 2-vCPU VM it (about
/// 40 requests beyond it) spread 14–28 % over ten runs against 6–10 %
/// for p95.
const TAIL_Q: f64 = 0.95;
/// The traced run's socket phase lasts at most this long. The replay
/// after it runs every request twice, one at a time, so a traced run
/// lasts about five times its socket phase.
const TRACE_SECONDS: f64 = 10.0;
/// The circuits: b9 and c499 on the BDD backend, i10 on the sampling
/// backend, as `relogic_bench::backend_for` assigns them.
const CIRCUITS: [&str; 3] = ["b9", "c499", "i10"];
const B9: usize = 0;
const C499: usize = 1;
const I10: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    /// Correlated `analyze` at one ε.
    Analyze,
    /// `analyze` with `no_correlations` at all eight ε.
    AnalyzeNc,
    Observability,
    MonteCarlo,
    Critical,
    Harden,
    Estimate,
    Stats,
    Health,
}

/// One request as a client draws it; [`Catalog::line`] renders it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Req {
    kind: Kind,
    circuit: usize,
    eps: usize,
    seed: u64,
}

impl Req {
    fn new(kind: Kind, circuit: usize) -> Req {
        Req {
            kind,
            circuit,
            eps: 0,
            seed: 0,
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("below n")
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Netlists by circuit id, as JSON string literals, plus the backend
/// fields each one's requests carry.
struct Catalog {
    netlists: Vec<(Arc<str>, &'static str)>,
}

/// The request fields selecting `relogic_bench::backend_for`'s sampling
/// backend (131072 patterns, seed 0xBEEF).
const SIM_FIELDS: &str = r#","backend":"sim","backend_patterns":131072,"backend_seed":48879"#;

impl Catalog {
    fn new() -> Catalog {
        let netlists = CIRCUITS
            .iter()
            .map(|name| {
                let circuit = relogic_gen::suite::build(name).expect("suite circuit exists");
                let sim = matches!(
                    relogic_bench::backend_for(name),
                    relogic::Backend::Simulation { .. }
                );
                let text: Arc<str> = Json::from(bench::write(&circuit)).encode().into();
                (text, if sim { SIM_FIELDS } else { "" })
            })
            .collect();
        Catalog { netlists }
    }

    fn line(&self, req: &Req) -> String {
        let eps = EPS[req.eps];
        let all = format!("{EPS:?}");
        let (n, b) = match req.kind {
            Kind::Stats => return r#"{"kind":"stats"}"#.to_owned(),
            Kind::Health => return r#"{"kind":"health"}"#.to_owned(),
            _ => {
                let (n, b) = &self.netlists[req.circuit];
                (n, *b)
            }
        };
        match req.kind {
            Kind::Analyze => format!(r#"{{"kind":"analyze","netlist":{n}{b},"eps":{eps}}}"#),
            Kind::AnalyzeNc => format!(
                r#"{{"kind":"analyze","netlist":{n}{b},"eps":{all},"no_correlations":true}}"#
            ),
            Kind::Observability => {
                format!(r#"{{"kind":"observability","netlist":{n}{b},"eps":{all}}}"#)
            }
            Kind::MonteCarlo => format!(
                r#"{{"kind":"monte_carlo","netlist":{n}{b},"eps":{eps},"patterns":{MC_PATTERNS},"seed":{},"threads":1}}"#,
                req.seed
            ),
            Kind::Critical => format!(r#"{{"kind":"critical_eps","netlist":{n}{b}}}"#),
            Kind::Harden => format!(r#"{{"kind":"harden","netlist":{n}{b},"eps":{eps}}}"#),
            Kind::Estimate => format!(
                r#"{{"kind":"estimate","netlist":{n}{b},"eps":{eps},"seed":{}}}"#,
                req.seed
            ),
            Kind::Stats | Kind::Health => unreachable!("answered above"),
        }
    }
}

/// A client's request source: shuffled blocks of 40 with fixed per-kind
/// shares.
struct Source {
    rng: Rng,
    seed: u64,
    queue: Vec<Req>,
}

impl Source {
    fn new(seed: u64, client: usize) -> Source {
        Source {
            rng: Rng::new(seed, client as u64),
            seed,
            queue: Vec::new(),
        }
    }

    fn next(&mut self) -> Req {
        if self.queue.is_empty() {
            let mut block = Vec::with_capacity(40);
            let mut add = |kind, circuit, n| block.extend((0..n).map(|_| Req::new(kind, circuit)));
            add(Kind::Analyze, C499, 5); // 25 % correlated analyze
            add(Kind::Analyze, B9, 5);
            add(Kind::AnalyzeNc, C499, 2); // 10 % uncorrelated, 8 ε
            add(Kind::AnalyzeNc, I10, 2);
            add(Kind::Observability, B9, 4); // 10 %
            add(Kind::MonteCarlo, C499, 4); // 20 %
            add(Kind::MonteCarlo, I10, 4);
            add(Kind::Critical, C499, 2); // 10 %
            add(Kind::Critical, I10, 2);
            add(Kind::Harden, B9, 2); // 10 %
            add(Kind::Harden, C499, 2);
            add(Kind::Estimate, B9, 2); // 5 %
            add(Kind::Stats, 0, 2); // 10 % stats/health
            add(Kind::Health, 0, 2);
            for req in &mut block {
                req.eps = self.rng.below(EPS.len());
                req.seed = self.seed * 8 + self.rng.next() % 8;
            }
            self.rng.shuffle(&mut block);
            self.queue = block;
        }
        self.queue.pop().expect("a block was just drawn")
    }
}

/// One answered request.
struct Sample {
    req: Req,
    start: Instant,
    end: Instant,
}

/// What the clients bring back.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// The first reply to each distinct request.
    first: HashMap<Req, String>,
    /// Requests answered differently from their first reply.
    differing: Vec<Req>,
    gate: Gate,
}

/// A reply's body up to its trailing `cache` member, which is the only
/// part that may differ between replies to the same request.
fn without_cache_tag(reply: &str) -> &str {
    let reply = reply.trim_end();
    reply
        .strip_suffix(r#","cache":"hit"}}"#)
        .or_else(|| reply.strip_suffix(r#","cache":"miss"}}"#))
        .unwrap_or(reply)
}

/// The cheap check run on every reply inside the measured loop: the
/// reply is `ok`, and is it identical to the first reply to the same
/// request? Differences are settled after the measured phase (see
/// [`Judge::settle`]), as is the full check of first replies.
fn check_inline(req: &Req, reply: &str, first: &mut HashMap<Req, String>) -> Result<bool, String> {
    if !reply.starts_with(r#"{"ok":true"#) {
        return Err(format!("reply not ok: {:.200}", reply.trim_end()));
    }
    if matches!(req.kind, Kind::Stats | Kind::Health) {
        return Ok(true);
    }
    match first.get(req) {
        Some(earlier) => Ok(without_cache_tag(earlier) == without_cache_tag(reply)),
        None => {
            first.insert(*req, reply.to_owned());
            Ok(true)
        }
    }
}

struct Connection {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Connection {
    fn open(socket: &Path) -> Result<Connection, String> {
        let writer = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { reader, writer })
    }

    fn ask(&mut self, line: &str) -> Result<String, String> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("read: {e}"))?;
        if reply.is_empty() {
            return Err("the daemon closed the connection".into());
        }
        Ok(reply)
    }
}

fn client(
    socket: &Path,
    seconds: f64,
    barrier: &Barrier,
    mut source: Source,
    catalog: &Catalog,
) -> Result<ClientLog, String> {
    let mut conn = Connection::open(socket);
    barrier.wait();
    let mut log = ClientLog::default();
    let conn = conn.as_mut().map_err(|e| e.clone())?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let req = source.next();
        let line = catalog.line(&req);
        let start = Instant::now();
        let reply = conn.ask(&line)?;
        let end = Instant::now();
        match check_inline(&req, &reply, &mut log.first) {
            Ok(same) => {
                if !same {
                    log.differing.push(req);
                }
                log.gate.op("request", Ok(()));
            }
            Err(e) => log.gate.op("request", Err(e)),
        }
        log.samples.push(Sample { req, start, end });
    }
    Ok(log)
}

/// Runs the clients against `socket` for `seconds` and merges their logs.
fn drive(socket: &Path, seconds: f64, seed: u64, catalog: &Catalog) -> Result<ClientLog, String> {
    let barrier = Barrier::new(CLIENTS);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || client(socket, seconds, barrier, Source::new(seed, c), catalog))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut merged = ClientLog::default();
    for log in logs {
        let log = log?;
        merged.samples.extend(log.samples);
        merged.differing.extend(log.differing);
        merged.gate.merge(log.gate);
        for (req, reply) in log.first {
            if let Some(earlier) = merged.first.get(&req) {
                if without_cache_tag(earlier) != without_cache_tag(&reply) {
                    merged.differing.push(req);
                }
            } else {
                merged.first.insert(req, reply);
            }
        }
    }
    merged.samples.sort_by_key(|s| s.start);
    Ok(merged)
}

/// `path` relative to the working directory when it lies below it: Unix
/// socket paths are limited to about 100 bytes.
fn short(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

fn start_server(run: &Run, service: ServiceConfig) -> Result<(Server, PathBuf), String> {
    let socket = short(&run.work.join("serve.sock"));
    let config = ServerConfig {
        unix: Some(socket.clone()),
        threads: WORKERS,
        service,
        ..ServerConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("{}: {e}", socket.display()))?;
    Ok((server, socket))
}

/// The `stats` result, over a connection of its own.
fn stats(socket: &Path) -> Result<Json, String> {
    let reply = Connection::open(socket)?.ask(r#"{"kind":"stats"}"#)?;
    let doc = json::parse(reply.trim()).map_err(|e| e.to_string())?;
    doc.get("result")
        .cloned()
        .ok_or_else(|| "stats without a result".into())
}

fn counter(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    counter(after, path) - counter(before, path)
}

/// One `monte_carlo` request must answer bit-identically at one and at
/// two threads.
fn thread_check(socket: &Path, catalog: &Catalog, log: &ClientLog, gate: &mut Gate) {
    let Some(sample) = log.samples.iter().find(|s| s.req.kind == Kind::MonteCarlo) else {
        return;
    };
    let line = catalog.line(&sample.req);
    let two = line.replace(r#""threads":1"#, r#""threads":2"#);
    let verdict = Connection::open(socket)
        .and_then(|mut c| Ok((c.ask(&line)?, c.ask(&two)?)))
        .and_then(|(one, two)| {
            if without_cache_tag(&one) == without_cache_tag(&two) {
                Ok(())
            } else {
                Err("monte_carlo differs between 1 and 2 threads".into())
            }
        });
    gate.op("monte_carlo at 1 vs 2 threads", verdict);
}

/// The daemon's artifacts, rebuilt on the public pieces so the replay
/// can time each layer on its own. Nothing is evicted: the working set
/// is far below the daemon's cache budget.
#[derive(Default)]
struct Replica {
    entries: HashMap<StoreKey, Entry>,
    patterns: u64,
}

struct Entry {
    circuit: Circuit,
    backend: BackendSpec,
    weights: Option<Weights>,
    tape: Option<CircuitTape>,
    obs: Option<ObservabilityMatrix>,
    prop: Option<PropagationEstimate>,
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Replica {
    /// Looks up (or parses) the circuit; returns its key and the
    /// daemon's `cache` tag.
    fn lookup(
        &mut self,
        payload: &CircuitPayload,
        scope: Scope,
    ) -> Result<(StoreKey, &'static str), String> {
        let key = scope.time("serve.digest", || ArtifactKey::of(payload).store_key());
        if self.entries.contains_key(&key) {
            return Ok((key, "hit"));
        }
        let circuit = scope
            .call("netlist.parse", || {
                let circuit = payload.format.parse_netlist(&payload.netlist)?;
                let _ = CircuitStats::of(&circuit);
                Ok::<_, relogic_netlist::NetlistError>(circuit)
            })
            .map_err(text)?;
        self.entries.insert(
            key,
            Entry {
                circuit,
                backend: payload.backend,
                weights: None,
                tape: None,
                obs: None,
                prop: None,
            },
        );
        Ok((key, "miss"))
    }

    fn weights(&mut self, key: StoreKey, scope: Scope) -> Result<(), String> {
        let e = self.entries.get_mut(&key).expect("looked up");
        if e.weights.is_none() {
            let layer = match e.backend {
                BackendSpec::Bdd => "bdd.weights",
                BackendSpec::Sim { .. } => "core.weights_sim",
            };
            let w = scope
                .call(layer, || {
                    Weights::try_compute(
                        &e.circuit,
                        &InputDistribution::Uniform,
                        e.backend.backend(),
                    )
                })
                .map_err(text)?;
            e.weights = Some(w);
        }
        Ok(())
    }

    fn tape(&mut self, key: StoreKey, scope: Scope) {
        let e = self.entries.get_mut(&key).expect("looked up");
        if e.tape.is_none() {
            e.tape = Some(scope.time("sim.tape_compile", || CircuitTape::compile(&e.circuit)));
        }
    }

    fn observability(&mut self, key: StoreKey, scope: Scope) -> Result<(), String> {
        let e = self.entries.get_mut(&key).expect("looked up");
        if e.obs.is_none() {
            let obs = scope
                .call("bdd.observability", || {
                    ObservabilityMatrix::try_compute_threads_cancellable(
                        &e.circuit,
                        &InputDistribution::Uniform,
                        e.backend.backend(),
                        0,
                        &CancelToken::new(),
                    )
                })
                .map_err(text)?;
            e.obs = Some(obs);
        }
        Ok(())
    }

    /// Answers `request` as the daemon would; `None` for `stats` and
    /// `health`, whose answers depend on the daemon's own counters.
    fn execute(
        &mut self,
        request: &Request,
        scope: Scope,
    ) -> Result<Option<(Json, &'static str)>, String> {
        Ok(Some(match request {
            Request::Analyze {
                circuit,
                eps,
                options,
                ..
            } => {
                let (key, tag) = self.lookup(circuit, scope)?;
                self.weights(key, scope)?;
                let e = &self.entries[&key];
                let w = e.weights.as_ref().expect("materialised");
                let result = scope
                    .call("core.analyze", || {
                        api::analyze_result(&e.circuit, w, eps, options)
                    })
                    .map_err(text)?;
                (result, tag)
            }
            Request::Observability {
                circuit,
                eps,
                per_gate,
                ..
            } => {
                let (key, tag) = self.lookup(circuit, scope)?;
                self.observability(key, scope)?;
                let e = &self.entries[&key];
                let obs = e.obs.as_ref().expect("materialised");
                let result = scope
                    .call("core.closed_form", || {
                        api::observability_result(&e.circuit, obs, eps, *per_gate)
                    })
                    .map_err(text)?;
                (result, tag)
            }
            Request::MonteCarlo {
                circuit,
                eps,
                patterns,
                seed,
                threads,
                ..
            } => {
                let (key, tag) = self.lookup(circuit, scope)?;
                self.tape(key, scope);
                let e = &self.entries[&key];
                let config = MonteCarloConfig {
                    patterns: *patterns,
                    seed: *seed,
                    threads: *threads,
                    ..MonteCarloConfig::default()
                };
                let tape = e.tape.as_ref().expect("materialised");
                let result = scope
                    .call("sim.mc_tape", || {
                        api::monte_carlo_result_tape(&e.circuit, tape, *eps, &config)
                    })
                    .map_err(text)?;
                self.patterns += patterns;
                (result, tag)
            }
            Request::Estimate {
                circuit,
                eps,
                bdd_node_budget,
                patterns,
                seed,
                ..
            } => {
                let (key, tag) = self.lookup(circuit, scope)?;
                let result = self.estimate(key, *eps, *bdd_node_budget, *patterns, *seed, scope)?;
                (result, tag)
            }
            Request::Harden {
                circuit,
                eps,
                area_budget,
                max_steps,
                ..
            } => {
                let (key, tag) = self.lookup(circuit, scope)?;
                let c = &self.entries[&key].circuit;
                let result = scope
                    .call("estimate.harden", || {
                        relogic_estimate::harden(
                            c,
                            &InputDistribution::Uniform,
                            *eps,
                            *area_budget,
                            *max_steps,
                        )
                        .map(|report| api::harden_result(c, *eps, *area_budget, &report))
                    })
                    .map_err(text)?;
                (result, tag)
            }
            Request::CriticalEps {
                circuit,
                threshold,
                metric,
                max_steps,
                ..
            } => {
                let (key, tag) = self.lookup(circuit, scope)?;
                self.weights(key, scope)?;
                let e = &self.entries[&key];
                let w = e.weights.as_ref().expect("materialised");
                let tape = scope
                    .call("core.sweep_tape", || SweepTape::try_new(&e.circuit, w))
                    .map_err(text)?;
                let result = scope
                    .call("estimate.critical", || {
                        relogic_estimate::critical_eps(
                            &e.circuit, &tape, *metric, *threshold, *max_steps,
                        )
                        .map(|report| api::critical_eps_result(&e.circuit, &report))
                    })
                    .map_err(text)?;
                (result, tag)
            }
            Request::Stats | Request::Health => return Ok(None),
        }))
    }

    /// The tiered estimate: a materialised observability matrix answers
    /// exactly for free; otherwise the budgeted exact build, then the
    /// propagation estimate (cached on the artifact), then graph Monte
    /// Carlo — the daemon's order.
    fn estimate(
        &mut self,
        key: StoreKey,
        eps: f64,
        budget: usize,
        patterns: u64,
        seed: u64,
        scope: Scope,
    ) -> Result<Json, String> {
        let e = &self.entries[&key];
        let c = &e.circuit;
        let gate_eps = GateEps::try_uniform(c, eps).map_err(text)?;
        let policy = EstimatorPolicy {
            bdd_node_budget: budget,
            mc_patterns: patterns,
            mc_seed: seed,
            ..EstimatorPolicy::default()
        };
        let mut fresh_prop = None;
        let tiers = scope.open("estimate.run");
        let report = relogic_estimate::run_estimate(
            &policy,
            |budget| match &e.obs {
                Some(obs) => Ok(tiers.time("core.closed_form", || obs.closed_form(&gate_eps))),
                None => tiers
                    .call("bdd.observability", || {
                        ObservabilityMatrix::try_compute_budgeted(
                            c,
                            &InputDistribution::Uniform,
                            0,
                            budget,
                        )
                    })
                    .map(|m| m.closed_form(&gate_eps)),
            },
            || {
                if let Some(cached) = &e.prop {
                    return Ok(cached.closed_form(&gate_eps));
                }
                let prop = tiers.call("estimate.propagation", || {
                    PropagationEstimate::try_compute(c, &InputDistribution::Uniform)
                })?;
                let deltas = prop.closed_form(&gate_eps);
                fresh_prop = Some(prop);
                Ok(deltas)
            },
            |patterns, seed| {
                let config = MonteCarloConfig {
                    patterns,
                    seed,
                    ..MonteCarloConfig::default()
                };
                tiers.call("sim.mc_graph", || {
                    relogic_sim::try_estimate(c, gate_eps.as_slice(), &config)
                        .map(|r| r.per_output().to_vec())
                        .map_err(relogic::RelogicError::from)
                })
            },
        );
        tiers.finish(report.is_err());
        let report = report.map_err(text)?;
        let result = api::estimate_result(c, eps, &report);
        if let Some(prop) = fresh_prop {
            self.entries.get_mut(&key).expect("looked up").prop = Some(prop);
        }
        Ok(result)
    }
}

/// Checks replies against a replica's in-process answers. A reply that
/// differs fails — unless the program itself answers that request
/// differently from one call to the next in-process. Such requests are
/// recorded as nondeterministic, a defect of the program that the run
/// reports, instead of failing the reply.
#[derive(Default)]
struct Judge {
    replica: Replica,
    limits: RequestLimits,
    nondeterministic: BTreeSet<Req>,
}

impl Judge {
    fn parse(&self, catalog: &Catalog, req: &Req) -> Result<Request, String> {
        proto::parse_request(&catalog.line(req), &self.limits)
            .1
            .map_err(text)
    }

    /// Whether repeated in-process answers to `request` stray from `want`.
    fn unstable(&mut self, request: &Request, want: &Json) -> bool {
        (0..8).any(|_| {
            matches!(self.replica.execute(request, Scope::OFF),
                Ok(Some((again, _))) if same_result(&again, want).is_err())
        })
    }

    fn judge(
        &mut self,
        req: &Req,
        request: &Request,
        reply: &str,
        want: Option<&Json>,
    ) -> Result<(), String> {
        let got = reply_result(reply)?;
        let Some(want) = want else { return Ok(()) };
        match same_result(&got, want) {
            Err(_) if self.unstable(request, want) => {
                self.nondeterministic.insert(*req);
                Ok(())
            }
            other => other,
        }
    }

    /// Settles the requests whose replies differed from one another
    /// during the measured phase.
    fn settle(&mut self, catalog: &Catalog, differing: &[Req], gate: &mut Gate) {
        let distinct: BTreeSet<Req> = differing.iter().copied().collect();
        for req in distinct {
            let verdict = self.parse(catalog, &req).and_then(|request| {
                match self.replica.execute(&request, Scope::OFF)? {
                    Some((want, _)) if self.unstable(&request, &want) => {
                        self.nondeterministic.insert(req);
                        Ok(())
                    }
                    _ => Err(format!(
                        "{req:?}: replies differ, yet in-process the program answers it the same way every time"
                    )),
                }
            });
            gate.op("replies to one request", verdict);
        }
    }

    /// A note naming the nondeterministic requests, if any.
    fn note(&self) -> Option<String> {
        let first = self.nondeterministic.iter().next()?;
        Some(format!(
            "PROGRAM DEFECT: {} distinct requests answered differently from call to call in-process (first: {:?} on circuit {}); counted, not failed",
            self.nondeterministic.len(),
            first.kind,
            CIRCUITS[first.circuit]
        ))
    }
}

/// Runs the set-up requests on a fresh judge's replica.
fn warmed_judge(catalog: &Catalog, warm_up: &[Req], gate: &mut Gate, what: &str) -> Judge {
    let mut judge = Judge::default();
    for req in warm_up {
        let done = judge
            .parse(catalog, req)
            .and_then(|r| judge.replica.execute(&r, Scope::OFF));
        gate.op(what, done.map(drop));
    }
    judge
}

/// Cross-checks the first reply to every distinct request against the
/// in-process answer of a fresh replica that first saw `warm_up`, and
/// settles differing replies.
fn verify(catalog: &Catalog, warm_up: &[Req], log: &ClientLog, gate: &mut Gate) -> Judge {
    let mut judge = warmed_judge(catalog, warm_up, gate, "verify warm-up");
    judge.settle(catalog, &log.differing, gate);
    let mut seen = BTreeSet::new();
    for req in log.samples.iter().map(|s| &s.req) {
        let Some(reply) = log.first.get(req) else {
            continue;
        };
        if !seen.insert(*req) {
            continue;
        }
        let verdict = judge.parse(catalog, req).and_then(|request| {
            match judge.replica.execute(&request, Scope::OFF) {
                Ok(want) => judge.judge(req, &request, reply, want.as_ref().map(|(w, _)| w)),
                Err(e) => Err(format!("in-process answer failed: {e}")),
            }
        });
        gate.op(&format!("verify {:?}", req.kind), verdict);
    }
    judge
}

/// Set-up requests that materialise every artifact: weights and tapes of
/// b9, c499 and i10, plus b9's observability matrix.
fn warm_up_reqs() -> Vec<Req> {
    let mut reqs: Vec<Req> = (0..CIRCUITS.len())
        .flat_map(|c| [Req::new(Kind::Analyze, c), Req::new(Kind::MonteCarlo, c)])
        .collect();
    reqs.push(Req::new(Kind::Observability, B9));
    reqs
}

fn send_all(socket: &Path, catalog: &Catalog, reqs: &[Req], gate: &mut Gate) -> Result<(), String> {
    let mut conn = Connection::open(socket)?;
    for req in reqs {
        let reply = conn.ask(&catalog.line(req));
        gate.op(
            "set-up request",
            reply.and_then(|r| check_reply(&r, None)).map(drop),
        );
    }
    Ok(())
}

pub fn warm(run: &Run) -> Result<Outcome, String> {
    let catalog = Catalog::new();
    let warm_up = warm_up_reqs();
    let service = ServiceConfig::default();
    let mut gate = Gate::default();
    let set_up = |gate: &mut Gate| -> Result<(Server, PathBuf), String> {
        let (server, socket) = start_server(run, service.clone())?;
        send_all(&socket, &catalog, &warm_up, gate)?;
        Ok((server, socket))
    };
    let started = Instant::now();
    let (server, socket) = set_up(&mut gate)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let seconds = if run.traced {
        run.seconds.min(TRACE_SECONDS)
    } else {
        run.seconds
    };
    let before = stats(&socket)?;
    let log = drive(&socket, seconds, run.seed, &catalog)?;
    let after = stats(&socket)?;
    let peak_rss_mb = crate::sys::peak_rss_self_mb();
    for counter in ["weights_computed", "observability_computed"] {
        let moved = delta(&before, &after, &["cache", counter]);
        gate.op(
            &format!("{counter} unchanged while measured"),
            if moved == 0.0 {
                Ok(())
            } else {
                Err(format!("moved by {moved}"))
            },
        );
    }
    thread_check(&socket, &catalog, &log, &mut gate);
    server.shutdown();
    // Later set-ups run after the measured phase, so their memory never
    // counts in its peak.
    while more_setups(&setup_s) {
        let started = Instant::now();
        let (server, _) = set_up(&mut gate)?;
        setup_s.push(started.elapsed().as_secs_f64());
        server.shutdown();
    }
    let measured = match (log.samples.first(), log.samples.iter().map(|s| s.end).max()) {
        (Some(first), Some(last)) => last - first.start,
        _ => return Err("no request completed".into()),
    };
    let mut notes = vec![format!(
        "{CLIENTS} closed-loop clients, {WORKERS} daemon workers, cache {} MiB",
        service.cache_bytes >> 20
    )];
    let mut log = log;
    gate.merge(std::mem::take(&mut log.gate));
    if !run.traced {
        let judge = verify(&catalog, &warm_up, &log, &mut gate);
        notes.extend(judge.note());
        let latencies: Vec<f64> = log
            .samples
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect();
        let metrics = end_to_end(
            &setup_s,
            &latencies,
            TAIL_Q,
            measured,
            peak_rss_mb,
            &mut notes,
        );
        return Ok(Outcome {
            metrics,
            notes,
            gate,
        });
    }
    let mut counters = BTreeMap::new();
    for (name, key) in [
        ("estimate.tier_exact", "tier_exact"),
        ("estimate.tier_propagation", "tier_propagation"),
        ("estimate.tier_mc", "tier_mc"),
        ("estimate.fallbacks", "fallbacks"),
    ] {
        counters.insert(name, delta(&before, &after, &["estimator", key]));
    }
    let started = Instant::now();
    let (spans, coverage, judge) = replay(&service, &catalog, &warm_up, &log, &mut gate);
    let replay_s = started.elapsed().as_secs_f64();
    let patterns = judge.replica.patterns;
    notes.extend(judge.note());
    #[allow(clippy::cast_precision_loss)]
    counters.insert("core.nondeterministic", judge.nondeterministic.len() as f64);
    counters.insert("trace.coverage", coverage);
    let mc_s = crate::trace::reduce(&spans)
        .get("sim.mc_tape")
        .map_or(0.0, |t| t.self_time.as_secs_f64());
    if mc_s > 0.0 {
        #[allow(clippy::cast_precision_loss)]
        counters.insert("sim.mc_mpatterns_per_s", patterns as f64 / mc_s / 1e6);
    }
    notes.push(format!(
        "replayed {} requests of a {seconds} s socket run; serve.transport is each socket round trip minus serve.handle",
        log.samples.len()
    ));
    Ok(finish_trace(
        run,
        "serve-warm",
        spans,
        counters,
        notes,
        gate,
        replay_s,
    ))
}

/// Replays the measured request sequence in-process: through the layer
/// calls on a [`Replica`] (spans under `serve.replay`), and through
/// `Service::handle_line` on a second daemon service (`serve.handle`).
/// Each first sees the set-up requests. Returns the spans, the share of
/// `serve.handle` time the layer spans cover, and the judge holding the
/// layer replica.
fn replay(
    service: &ServiceConfig,
    catalog: &Catalog,
    warm_up: &[Req],
    log: &ClientLog,
    gate: &mut Gate,
) -> (Vec<Span>, f64, Judge) {
    let limits = RequestLimits::default();
    let mut judge = warmed_judge(catalog, warm_up, gate, "replay warm-up");
    let daemon = Service::new(service.clone());
    for req in warm_up {
        let _ = daemon.handle_line(&catalog.line(req));
    }
    let tracer = Tracer::new();
    let mut handle_total = Duration::ZERO;
    for (i, sample) in log.samples.iter().enumerate() {
        let id = i as u64;
        let line = catalog.line(&sample.req);
        let root = tracer.root("serve.replay", id);
        let (_, request) = root.time("serve.request_parse", || {
            proto::parse_request(&line, &limits)
        });
        let answer = request.map_err(text).and_then(|r| {
            let kind = r.kind();
            let answer = judge.replica.execute(&r, root)?;
            let body = answer.clone().map_or(Ok(Json::Null), |(mut result, tag)| {
                result.push("cache", Json::from(tag));
                Ok(result)
            });
            let _ = root.time("serve.encode", || {
                Response {
                    id: None,
                    kind: Some(kind),
                    body,
                }
                .to_line()
            });
            Ok((r, answer))
        });
        root.finish(answer.is_err());
        let verdict = match (answer, log.first.get(&sample.req)) {
            (Ok((r, Some((want, _)))), Some(reply)) => {
                judge.judge(&sample.req, &r, reply, Some(&want))
            }
            (Ok(_), _) => Ok(()),
            (Err(e), _) => Err(format!("replay failed: {e}")),
        };
        gate.op(&format!("replay {:?}", sample.req.kind), verdict);
        let t0 = Instant::now();
        let reply = daemon.handle_line(&line);
        let t1 = Instant::now();
        tracer.add("serve.handle", t0, t1, id);
        handle_total += t1 - t0;
        let transport = (sample.end - sample.start).saturating_sub(t1 - t0);
        tracer.add("serve.transport", t0, t0 + transport, id);
        gate.op(
            "replay through Service::handle_line",
            if reply.starts_with(r#"{"ok":true"#) {
                Ok(())
            } else {
                Err(format!("{reply:.200}"))
            },
        );
    }
    judge.settle(catalog, &log.differing, gate);
    let spans = tracer.into_spans();
    let coverage = covered_under(&spans, "serve.replay").as_secs_f64() / handle_total.as_secs_f64();
    (spans, coverage, judge)
}
