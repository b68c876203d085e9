//! The transport-independent request service: parse → cache → execute →
//! encode, with per-request timeouts and counters.
//!
//! [`Service`] owns no sockets; [`crate::server`] feeds it frames from
//! TCP/Unix connections, tests feed it strings directly, and the CLI's
//! `serve` subcommand wraps it in a daemon. It is cheaply cloneable
//! (everything shared lives behind one `Arc`).

use crate::api;
use crate::cache::{ArtifactCache, DiskTier};
use crate::json::Json;
use crate::proto::{self, Request, RequestLimits, Response, ServeError};
use crate::stats::ServiceStats;
use relogic::CancelToken;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// How often the supervisor re-checks the client-disconnect probe while a
/// request is in flight. Bounds how long a cancelled job can outlive its
/// client: the worker is freed within one poll interval plus one engine
/// check interval.
const DISCONNECT_POLL: Duration = Duration::from_millis(100);

/// Service configuration (transport-independent parts).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Artifact-cache byte budget.
    pub cache_bytes: usize,
    /// Per-request execution timeout in milliseconds; `0` disables the
    /// timeout. An analysis request still runs on a runner thread of its
    /// own whenever a disconnect probe is set, which is always the case
    /// over a TCP or Unix socket; only a request with neither a deadline
    /// nor a probe runs inline on the caller's thread.
    pub timeout_ms: u64,
    /// Maximum request frame size in bytes.
    pub max_request_bytes: usize,
    /// Request-field validation ceilings.
    pub limits: RequestLimits,
    /// Maximum analysis requests executing at once; further analysis
    /// frames are shed with an `overloaded` error and a `retry_after_ms`
    /// hint instead of queueing behind saturated workers. `0` disables
    /// admission control. `stats`/`health` are exempt (they must stay
    /// answerable precisely when the service is overloaded).
    pub max_inflight: usize,
    /// Optional on-disk artifact store directory: compiled artifacts are
    /// written through on materialization and read through on cache miss,
    /// so a restarted daemon serves previously-seen circuits without
    /// recomputing them. `None` keeps the cache purely in-memory. A
    /// missing or unusable directory degrades the service to in-memory
    /// operation (loudly, once) instead of failing requests.
    pub cache_dir: Option<PathBuf>,
    /// Optional fault injector threaded through the execution path, the
    /// artifact cache, the worker pool, and connection I/O. Only exists
    /// with the `chaos` feature; release builds carry no injection code.
    #[cfg(feature = "chaos")]
    pub chaos: Option<Arc<relogic_sim::chaos::Chaos>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_bytes: 256 << 20,
            timeout_ms: 10_000,
            max_request_bytes: 4 << 20,
            limits: RequestLimits::default(),
            max_inflight: 0,
            cache_dir: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

struct ServiceInner {
    config: ServiceConfig,
    cache: ArtifactCache,
    stats: ServiceStats,
    started: Instant,
    /// Set once shutdown begins; the server farewells new work and the
    /// `health` kind reports not-ready.
    draining: AtomicBool,
    /// Installed by the server: reports the worker-pool queue depth for
    /// the `health` kind (absent when the service runs without a server,
    /// e.g. in tests).
    queue_probe: OnceLock<Box<dyn Fn() -> usize + Send + Sync>>,
    /// Cancel token of every request currently executing, keyed by a
    /// monotonic registration id. Graceful drain fires them all once the
    /// grace period runs out, so a wedged-slow job cannot hold shutdown
    /// hostage.
    inflight_tokens: Mutex<HashMap<u64, CancelToken>>,
    /// Next registration id for `inflight_tokens`.
    next_token: AtomicU64,
}

impl ServiceInner {
    /// The in-flight token registry; a poisoned lock is recovered (the
    /// map's state is valid after any panic — inserts/removes are atomic).
    fn tokens(&self) -> MutexGuard<'_, HashMap<u64, CancelToken>> {
        match self.inflight_tokens.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// RAII registry entry: unregisters the request's cancel token on drop,
/// whether the request completed, errored, or panicked.
struct TokenRegistration<'a> {
    inner: &'a ServiceInner,
    id: u64,
}

impl Drop for TokenRegistration<'_> {
    fn drop(&mut self) {
        self.inner.tokens().remove(&self.id);
    }
}

/// RAII admission permit: holds one slot of the in-flight gauge.
struct InflightPermit<'a> {
    gauge: &'a AtomicU64,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The reliability-analysis service.
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Creates a service with the given configuration.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Service {
        let disk = config.cache_dir.as_deref().map(|dir| {
            #[allow(unused_mut)]
            let mut tier = DiskTier::open(dir);
            #[cfg(feature = "chaos")]
            if let Some(chaos) = &config.chaos {
                tier.set_chaos(Arc::clone(chaos));
            }
            Arc::new(tier)
        });
        let cache = ArtifactCache::new(config.cache_bytes).with_disk_tier(disk);
        #[cfg(feature = "chaos")]
        let cache = match &config.chaos {
            Some(chaos) => cache.with_chaos(Arc::clone(chaos)),
            None => cache,
        };
        Service {
            inner: Arc::new(ServiceInner {
                config,
                cache,
                stats: ServiceStats::default(),
                started: Instant::now(),
                draining: AtomicBool::new(false),
                queue_probe: OnceLock::new(),
                inflight_tokens: Mutex::new(HashMap::new()),
                next_token: AtomicU64::new(0),
            }),
        }
    }

    /// Registers `token` as in flight until the returned guard drops.
    fn register_token(&self, token: &CancelToken) -> TokenRegistration<'_> {
        let id = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        self.inner.tokens().insert(id, token.clone());
        TokenRegistration {
            inner: &self.inner,
            id,
        }
    }

    /// Fires the cancel token of every in-flight request and returns how
    /// many were fired. Graceful drain calls this after its grace period:
    /// outstanding work unwinds at the next engine check site with a typed
    /// error instead of wedging shutdown.
    pub fn cancel_inflight(&self) -> usize {
        let tokens = self.inner.tokens();
        for token in tokens.values() {
            token.cancel();
        }
        tokens.len()
    }

    /// How many requests are currently registered as cancellable.
    #[must_use]
    pub fn inflight_token_count(&self) -> usize {
        self.inner.tokens().len()
    }

    /// Marks the service as draining: `health` flips to not-ready and the
    /// server turns away new work. Idempotent.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Installs the worker-pool queue-depth probe reported by `health`.
    /// The first installation wins; later calls are ignored.
    pub fn install_queue_probe<F>(&self, probe: F)
    where
        F: Fn() -> usize + Send + Sync + 'static,
    {
        let _ = self.inner.queue_probe.set(Box::new(probe));
    }

    /// The configured fault injector, if any.
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn chaos(&self) -> Option<&Arc<relogic_sim::chaos::Chaos>> {
        self.inner.config.chaos.as_ref()
    }

    /// The backoff hint attached to `overloaded` responses: tracks the
    /// median observed service time (an honest "one request's worth of
    /// breathing room"), clamped to [10 ms, 5 s]; 50 ms before any sample
    /// exists.
    #[must_use]
    pub fn retry_after_hint_ms(&self) -> u64 {
        let latency = &self.inner.stats.latency;
        if latency.count() == 0 {
            return 50;
        }
        (latency.quantile_us(0.5) / 1000).clamp(10, 5000)
    }

    /// Tries to claim an in-flight slot for an analysis request.
    fn admit(&self) -> Option<InflightPermit<'_>> {
        let gauge = &self.inner.stats.inflight;
        let max = u64::try_from(self.inner.config.max_inflight).unwrap_or(u64::MAX);
        if max == 0 {
            gauge.fetch_add(1, Ordering::Relaxed);
            return Some(InflightPermit { gauge });
        }
        gauge
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                if n < max {
                    Some(n + 1)
                } else {
                    None
                }
            })
            .ok()
            .map(|_| InflightPermit { gauge })
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Shared request/connection counters (the server increments the
    /// connection gauges).
    #[must_use]
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.stats
    }

    /// The artifact cache (exposed for tests and counters).
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.inner.cache
    }

    /// Persistence state as reported by `stats`/`health`: `"none"` when no
    /// cache dir is configured, `"degraded"` when the configured dir turned
    /// out to be unusable (the service keeps running from memory), and
    /// `"ready"` otherwise.
    #[must_use]
    pub fn cache_dir_state(&self) -> &'static str {
        match self.inner.cache.disk() {
            None => "none",
            Some(disk) if disk.is_degraded() => "degraded",
            Some(_) => "ready",
        }
    }

    /// Handles one request frame end to end: parse, count, execute under
    /// the configured timeout, record latency, encode. Never panics on any
    /// input.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_with_probe(line, None)
    }

    /// Like [`Service::handle_line`], with an optional client-liveness
    /// probe. When the probe reports the client gone mid-request, the
    /// in-flight job's cancel token is fired and the worker is freed
    /// within 100 ms (the probe interval) plus one engine check interval — the
    /// (undeliverable) response is returned for the caller to discard.
    #[must_use]
    pub fn handle_line_with_probe(
        &self,
        line: &str,
        client_gone: Option<&dyn Fn() -> bool>,
    ) -> String {
        let started = Instant::now();
        let (id, parsed) = proto::parse_request(line, &self.inner.config.limits);
        let response = match parsed {
            Ok(request) => {
                self.inner.stats.count_kind(request.kind_index());
                if request.needs_admission() {
                    match self.admit() {
                        Some(permit) => {
                            let response = self.execute_supervised(id, request, client_gone);
                            drop(permit);
                            response
                        }
                        None => {
                            self.inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                            Response {
                                id,
                                kind: Some(request.kind()),
                                body: Err(ServeError::Overloaded {
                                    retry_after_ms: self.retry_after_hint_ms(),
                                }),
                            }
                        }
                    }
                } else {
                    self.execute_supervised(id, request, client_gone)
                }
            }
            Err(error) => Response {
                id,
                kind: None,
                body: Err(error),
            },
        };
        if response.body.is_err() {
            self.inner.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.stats.latency.record(started.elapsed());
        response.to_line()
    }

    /// Executes a parsed request under `cancel` with no timeout of its own,
    /// threading the token through every engine (the supervisor's runner
    /// thread and its inline path call this; a fresh token runs unbounded).
    /// A fired token surfaces as a typed `deadline_exceeded` body (counted in
    /// `stats.cancelled`); a run that completes is bit-identical to one
    /// executed with a fresh token.
    #[must_use]
    pub fn execute(&self, id: Option<Json>, request: Request, cancel: &CancelToken) -> Response {
        let kind = request.kind();
        let body = self.execute_body(&request, cancel);
        if matches!(body, Err(ServeError::DeadlineExceeded { .. })) {
            // The compute path observed the fired token and unwound with
            // a typed error — the "no zombie work" counter.
            self.inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        Response {
            id,
            kind: Some(kind),
            body,
        }
    }

    /// Executes a parsed request under the tighter of the client's
    /// `deadline_ms` and the server's `--timeout-ms` cap, watching the
    /// client-liveness probe while the work runs. `stats`/`health` always
    /// run inline (they must stay responsive while workers are saturated).
    ///
    /// Which bound fired decides the wire code: a binding *client*
    /// deadline answers `deadline_exceeded`; the *server* cap keeps the
    /// legacy `timeout` code. Either way the supervisor no longer merely
    /// abandons the runner thread — the request token is armed with the
    /// deadline, so the runner unwinds at its next engine check site.
    #[must_use]
    pub fn execute_supervised(
        &self,
        id: Option<Json>,
        request: Request,
        client_gone: Option<&dyn Fn() -> bool>,
    ) -> Response {
        if !request.needs_admission() {
            return self.execute(id, request, &CancelToken::new());
        }
        let server_ms = self.inner.config.timeout_ms;
        let request_ms = request.deadline_ms();
        let effective_ms = match (request_ms, server_ms) {
            (Some(r), 0) => Some(r),
            (Some(r), s) => Some(r.min(s)),
            (None, 0) => None,
            (None, s) => Some(s),
        };
        // Whether the *client's* deadline is the binding constraint (it
        // is at least as tight as the server cap).
        let request_binding = match (request_ms, server_ms) {
            (Some(_), 0) => true,
            (Some(r), s) => r <= s,
            (None, _) => false,
        };
        let token = match effective_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let registration = self.register_token(&token);
        if effective_ms.is_none() && client_gone.is_none() {
            // Nothing to supervise: run inline. The token stays
            // registered so graceful drain can still fire it.
            let response = self.execute(id, request, &token);
            drop(registration);
            return self.finalize(response, &token, request_binding, server_ms);
        }
        let kind = request.kind();
        let supervisor_id = id.clone();
        let service = self.clone();
        let runner_token = token.clone();
        let (tx, rx) = mpsc::channel();
        // The runner is detached if the supervisor returns first, but the
        // armed token means a runaway analysis now unwinds at its next
        // check site instead of computing to completion for nobody. A
        // panic inside the runner (a bug — or an injected chaos fault) is
        // contained here: it bumps the panic counter and drops `tx`,
        // which the supervisor observes as a disconnect and answers with
        // a typed `internal`.
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.execute(id, request, &runner_token)
            }));
            match outcome {
                Ok(response) => {
                    let _ = tx.send(response);
                }
                Err(_) => {
                    service.inner.stats.panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let started = Instant::now();
        loop {
            let until_fire =
                effective_ms.map(|ms| Duration::from_millis(ms).saturating_sub(started.elapsed()));
            let slice = match (until_fire, client_gone) {
                (Some(remaining), Some(_)) => remaining.min(DISCONNECT_POLL),
                (Some(remaining), None) => remaining,
                (None, _) => DISCONNECT_POLL,
            };
            match rx.recv_timeout(slice) {
                Ok(response) => {
                    drop(registration);
                    return self.finalize(response, &token, request_binding, server_ms);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(gone) = client_gone {
                        if gone() {
                            // The reply is undeliverable; cancel the job
                            // so the worker frees promptly, and hand back
                            // a response the caller will fail to write.
                            token.cancel();
                            self.inner
                                .stats
                                .disconnect_cancels
                                .fetch_add(1, Ordering::Relaxed);
                            drop(registration);
                            return Response {
                                id: supervisor_id,
                                kind: Some(kind),
                                body: Err(ServeError::Internal(
                                    "client disconnected; request cancelled".into(),
                                )),
                            };
                        }
                    }
                    let deadline_fired = effective_ms
                        .is_some_and(|ms| started.elapsed() >= Duration::from_millis(ms));
                    if deadline_fired {
                        // The deadline armed in the token has fired; the
                        // runner unwinds on its own at the next check
                        // site. Answer now with the code of whichever
                        // bound was binding.
                        drop(registration);
                        let body = if request_binding {
                            self.inner
                                .stats
                                .deadline_exceeded
                                .fetch_add(1, Ordering::Relaxed);
                            Err(ServeError::DeadlineExceeded {
                                after_ms: effective_ms.unwrap_or(0),
                                site: "watchdog",
                            })
                        } else {
                            self.inner.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                            Err(ServeError::Timeout { ms: server_ms })
                        };
                        return Response {
                            id: supervisor_id,
                            kind: Some(kind),
                            body,
                        };
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    drop(registration);
                    return Response {
                        id: supervisor_id,
                        kind: Some(kind),
                        body: Err(ServeError::Internal(
                            "request worker died before producing a response".into(),
                        )),
                    };
                }
            }
        }
    }

    /// Attributes a `deadline_exceeded` body produced by the compute path
    /// to its cause: drain cancellation remaps to `shutting_down` (the
    /// request is retryable elsewhere), a binding client deadline keeps
    /// the typed code and counts it, and a binding server cap remaps to
    /// the legacy `timeout` code so pre-deadline clients see the same
    /// wire contract as before.
    fn finalize(
        &self,
        mut response: Response,
        token: &CancelToken,
        request_binding: bool,
        server_ms: u64,
    ) -> Response {
        if matches!(response.body, Err(ServeError::DeadlineExceeded { .. })) {
            let explicit = token.was_cancelled_explicitly();
            if explicit && self.is_draining() {
                response.body = Err(ServeError::ShuttingDown);
            } else if request_binding || explicit {
                self.inner
                    .stats
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                self.inner.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                response.body = Err(ServeError::Timeout { ms: server_ms });
            }
        }
        response
    }

    fn execute_body(&self, request: &Request, cancel: &CancelToken) -> Result<Json, ServeError> {
        #[cfg(feature = "chaos")]
        if request.needs_admission() {
            if let Some(chaos) = &self.inner.config.chaos {
                use relogic_sim::chaos::ChaosSite;
                chaos.maybe_delay(ChaosSite::ExecDelay);
                chaos.maybe_panic(ChaosSite::ExecPanic);
            }
        }
        let Some(payload) = request.payload() else {
            // `stats` and `health` read the service, not a circuit.
            return Ok(if matches!(request, Request::Stats) {
                self.stats_json()
            } else {
                self.health_json()
            });
        };
        let (artifact, cached) = self.inner.cache.get_or_compile(&payload)?;
        let outcome = api::run(request, &artifact, self.inner.cache.counters(), 0, cancel)?;
        if let api::Outcome::Estimate(report) = &outcome {
            self.inner.stats.record_tiers(&report.diagnostics);
        }
        let mut result = outcome.to_json(request, artifact.circuit())?;
        result.push("cache", Json::from(cached.tag()));
        Ok(result)
    }

    /// The `health` result object: readiness (not draining), the drain
    /// flag, the in-flight gauge against its limit, worker-pool queue
    /// depth, shed count, and active connections.
    #[must_use]
    pub fn health_json(&self) -> Json {
        let stats = &self.inner.stats;
        let draining = self.is_draining();
        let queue_depth = self.inner.queue_probe.get().map_or(0, |probe| probe());
        Json::obj([
            ("ready", Json::from(!draining)),
            ("draining", Json::from(draining)),
            (
                "inflight",
                Json::from(stats.inflight.load(Ordering::Relaxed)),
            ),
            ("max_inflight", Json::from(self.inner.config.max_inflight)),
            ("queue_depth", Json::from(queue_depth)),
            ("shed", Json::from(stats.shed.load(Ordering::Relaxed))),
            (
                "cancelled",
                Json::from(stats.cancelled.load(Ordering::Relaxed)),
            ),
            (
                "deadline_exceeded",
                Json::from(stats.deadline_exceeded.load(Ordering::Relaxed)),
            ),
            (
                "disconnect_cancels",
                Json::from(stats.disconnect_cancels.load(Ordering::Relaxed)),
            ),
            (
                "estimator_fallbacks",
                Json::from(stats.estimator_fallbacks.load(Ordering::Relaxed)),
            ),
            ("cache_dir", Json::from(self.cache_dir_state())),
            (
                "connections_active",
                Json::from(stats.connections_active.load(Ordering::Relaxed)),
            ),
            (
                "uptime_ms",
                Json::from(
                    u64::try_from(self.inner.started.elapsed().as_millis()).unwrap_or(u64::MAX),
                ),
            ),
        ])
    }

    /// The `stats` result object: per-kind request counters, cache
    /// counters, and service-time percentiles.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        let stats = &self.inner.stats;
        let counters = self.inner.cache.counters();
        let (entries, bytes) = self.inner.cache.usage();
        Json::obj([
            (
                "uptime_ms",
                Json::from(
                    u64::try_from(self.inner.started.elapsed().as_millis()).unwrap_or(u64::MAX),
                ),
            ),
            ("requests", stats.requests_json()),
            ("errors", Json::from(stats.errors.load(Ordering::Relaxed))),
            (
                "timeouts",
                Json::from(stats.timeouts.load(Ordering::Relaxed)),
            ),
            ("shed", Json::from(stats.shed.load(Ordering::Relaxed))),
            ("panics", Json::from(stats.panics.load(Ordering::Relaxed))),
            ("cancellation", stats.cancellation_json()),
            (
                "inflight",
                Json::from(stats.inflight.load(Ordering::Relaxed)),
            ),
            (
                "connections",
                Json::obj([
                    (
                        "accepted",
                        Json::from(stats.connections_accepted.load(Ordering::Relaxed)),
                    ),
                    (
                        "active",
                        Json::from(stats.connections_active.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("entries", Json::from(entries)),
                    ("bytes", Json::from(bytes)),
                    ("budget_bytes", Json::from(self.inner.cache.budget_bytes())),
                    ("hits", Json::from(counters.hits.load(Ordering::Relaxed))),
                    (
                        "misses",
                        Json::from(counters.misses.load(Ordering::Relaxed)),
                    ),
                    (
                        "evictions",
                        Json::from(counters.evictions.load(Ordering::Relaxed)),
                    ),
                    (
                        "uncacheable",
                        Json::from(counters.uncacheable.load(Ordering::Relaxed)),
                    ),
                    (
                        "circuits_parsed",
                        Json::from(counters.circuits_parsed.load(Ordering::Relaxed)),
                    ),
                    (
                        "weights_computed",
                        Json::from(counters.weights_computed.load(Ordering::Relaxed)),
                    ),
                    (
                        "observability_computed",
                        Json::from(counters.observability_computed.load(Ordering::Relaxed)),
                    ),
                    (
                        "tapes_compiled",
                        Json::from(counters.tapes_compiled.load(Ordering::Relaxed)),
                    ),
                    (
                        "estimates_computed",
                        Json::from(counters.estimates_computed.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("estimator", stats.estimator_json()),
            ("cache_dir", Json::from(self.cache_dir_state())),
            ("disk", {
                let snapshot = self
                    .inner
                    .cache
                    .disk()
                    .map(|disk| disk.counters())
                    .unwrap_or_default();
                let bytes = self
                    .inner
                    .cache
                    .disk()
                    .map_or(0, |disk| disk.bytes_on_disk());
                Json::obj([
                    ("disk_hits", Json::from(snapshot.hits)),
                    ("disk_misses", Json::from(snapshot.misses)),
                    ("corrupt_quarantined", Json::from(snapshot.quarantined)),
                    ("disk_writes", Json::from(snapshot.writes)),
                    ("bytes_on_disk", Json::from(bytes)),
                ])
            }),
            (
                "bdd_engine",
                Json::obj([
                    (
                        "runs",
                        Json::from(counters.bdd_engine.runs.load(Ordering::Relaxed)),
                    ),
                    (
                        "peak_live_nodes",
                        Json::from(counters.bdd_engine.peak_live_nodes.load(Ordering::Relaxed)),
                    ),
                    ("unique_load", Json::from(counters.bdd_engine.unique_load())),
                    (
                        "cache_hits",
                        Json::from(counters.bdd_engine.cache_hits.load(Ordering::Relaxed)),
                    ),
                    (
                        "cache_misses",
                        Json::from(counters.bdd_engine.cache_misses.load(Ordering::Relaxed)),
                    ),
                    (
                        "cache_hit_rate",
                        Json::from(counters.bdd_engine.cache_hit_rate()),
                    ),
                    (
                        "gc_runs",
                        Json::from(counters.bdd_engine.gc_runs.load(Ordering::Relaxed)),
                    ),
                    (
                        "reorders",
                        Json::from(counters.bdd_engine.reorders.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("latency_us", stats.latency.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "INPUT(a)\\nINPUT(b)\\nOUTPUT(y)\\nt = NAND(a, b)\\ny = NOT(t)\\n";

    fn service() -> Service {
        Service::new(ServiceConfig {
            timeout_ms: 0,
            ..ServiceConfig::default()
        })
    }

    fn analyze_frame(extra: &str) -> String {
        format!(r#"{{"kind":"analyze","netlist":"{SMALL}"{extra}}}"#)
    }

    #[test]
    fn analyze_round_trip_and_cache_tagging() {
        let svc = service();
        let first = svc.handle_line(&analyze_frame(r#","eps":0.1,"id":1"#));
        assert!(first.contains("\"ok\":true"), "{first}");
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        assert!(first.contains("\"id\":1"), "{first}");
        let second = svc.handle_line(&analyze_frame(r#","eps":0.1,"id":2"#));
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        // Identical payloads modulo id/cache tag.
        let strip = |s: &str| {
            s.replace("\"cache\":\"hit\"", "")
                .replace("\"cache\":\"miss\"", "")
                .replace("\"id\":1,", "")
                .replace("\"id\":2,", "")
        };
        assert_eq!(strip(&first), strip(&second));
    }

    #[test]
    fn stats_request_reports_counters() {
        let svc = service();
        let _ = svc.handle_line(&analyze_frame(""));
        let _ = svc.handle_line(&analyze_frame(""));
        let _ = svc.handle_line("garbage");
        let stats = svc.handle_line(r#"{"kind":"stats"}"#);
        let doc = crate::json::parse(stats.trim()).unwrap();
        let result = doc.get("result").unwrap();
        let requests = result.get("requests").unwrap();
        assert_eq!(requests.get("analyze").and_then(Json::as_u64), Some(2));
        assert_eq!(result.get("errors").and_then(Json::as_u64), Some(1));
        let cache = result.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(
            cache.get("weights_computed").and_then(Json::as_u64),
            Some(1)
        );
        assert!(result.get("latency_us").unwrap().get("count").is_some());
    }

    #[test]
    fn malformed_lines_never_panic_and_return_typed_errors() {
        let svc = service();
        for line in ["", "{", "[]", "\"x\"", "{\"kind\":\"zap\"}", "{\"kind\":1}"] {
            let out = svc.handle_line(line);
            assert!(out.contains("\"ok\":false"), "{line} -> {out}");
            assert!(out.contains("\"code\":\"bad_request\""), "{line} -> {out}");
        }
    }

    #[test]
    fn timeouts_produce_typed_errors() {
        let svc = Service::new(ServiceConfig {
            timeout_ms: 1,
            ..ServiceConfig::default()
        });
        // A large MC budget cannot finish in 1 ms.
        let out = svc.handle_line(&format!(
            r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":400000000,"threads":1}}"#
        ));
        assert!(out.contains("\"code\":\"timeout\""), "{out}");
        assert_eq!(svc.stats().timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn request_deadline_produces_deadline_exceeded_and_counters() {
        // No server cap: the client's deadline is the binding bound.
        let svc = service();
        let out = svc.handle_line(&format!(
            r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":400000000,"threads":1,"deadline_ms":1,"id":7}}"#
        ));
        assert!(out.contains("\"code\":\"deadline_exceeded\""), "{out}");
        assert!(out.contains("\"id\":7"), "{out}");
        assert_eq!(svc.stats().deadline_exceeded.load(Ordering::Relaxed), 1);
        assert_eq!(
            svc.stats().timeouts.load(Ordering::Relaxed),
            0,
            "a client deadline must not masquerade as a server timeout"
        );
        // The runner observes the fired token and unwinds with a typed
        // error — the cancelled counter ticks once the worker is free.
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.stats().cancelled.load(Ordering::Relaxed) == 0 {
            assert!(
                Instant::now() < deadline,
                "runner never observed the cancel"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(svc.stats().cancelled.load(Ordering::Relaxed), 1);
        // The counters surface in stats and health.
        let stats = svc.handle_line(r#"{"kind":"stats"}"#);
        let doc = crate::json::parse(stats.trim()).unwrap();
        let cancellation = doc.get("result").unwrap().get("cancellation").unwrap();
        assert_eq!(
            cancellation.get("deadline_exceeded").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            cancellation.get("cancelled").and_then(Json::as_u64),
            Some(1)
        );
        let health = svc.handle_line(r#"{"kind":"health"}"#);
        let doc = crate::json::parse(health.trim()).unwrap();
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("cancelled").and_then(Json::as_u64), Some(1));
        assert_eq!(
            result.get("deadline_exceeded").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            result.get("disconnect_cancels").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn deadline_tighter_than_server_cap_wins_and_keeps_its_code() {
        let svc = Service::new(ServiceConfig {
            timeout_ms: 60_000,
            ..ServiceConfig::default()
        });
        let out = svc.handle_line(&format!(
            r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":400000000,"threads":1,"deadline_ms":1}}"#
        ));
        assert!(out.contains("\"code\":\"deadline_exceeded\""), "{out}");
        assert_eq!(svc.stats().timeouts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn completed_under_deadline_is_bit_identical_to_undeadlined() {
        // Same seed, different thread counts, one bounded by a generous
        // deadline: all three answers must be byte-identical modulo the
        // cache tag. The token is a read-only early-exit — it never
        // perturbs the RNG stream or the merge order.
        let svc = service();
        let run = |threads: usize, deadline: &str| {
            svc.handle_line(&format!(
                r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":4096,"seed":5,"threads":{threads}{deadline}}}"#
            ))
            .replace("\"cache\":\"miss\"", "")
            .replace("\"cache\":\"hit\"", "")
        };
        let plain = run(2, "");
        let deadlined = run(2, r#","deadline_ms":60000"#);
        let deadlined_wide = run(7, r#","deadline_ms":60000"#);
        assert_eq!(plain, deadlined);
        assert_eq!(plain, deadlined_wide);
    }

    #[test]
    fn deadline_vs_completion_race_yields_exactly_one_outcome() {
        // A deadline sized near the actual runtime: whichever side wins,
        // the client sees exactly one of `ok` or `deadline_exceeded` —
        // never a partial result, never a mixed frame.
        let svc = service();
        for round in 0..8u32 {
            let out = svc.handle_line(&format!(
                r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":300000,"threads":1,"deadline_ms":{}}}"#,
                1 + round % 3
            ));
            let doc = crate::json::parse(out.trim()).unwrap();
            let ok = doc.get("ok").and_then(Json::as_bool).unwrap();
            if ok {
                assert!(doc.get("result").unwrap().get("delta").is_some(), "{out}");
            } else {
                let code = doc
                    .get("error")
                    .unwrap()
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string();
                assert_eq!(code, "deadline_exceeded", "{out}");
            }
        }
    }

    #[test]
    fn cancelled_estimate_reports_deadline_not_a_fallback() {
        // A fired token must unwind the estimator, not degrade it to a
        // cheaper tier: cancellation is an answer's absence, not an
        // approximation license.
        let svc = service();
        let (id, parsed) = proto::parse_request(
            &format!(r#"{{"kind":"estimate","netlist":"{SMALL}","eps":0.1}}"#),
            &RequestLimits::default(),
        );
        let token = CancelToken::new();
        token.cancel();
        let response = svc.execute(id, parsed.unwrap(), &token);
        match response.body {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        assert_eq!(svc.stats().tier_propagation.load(Ordering::Relaxed), 0);
        assert_eq!(svc.stats().cancelled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_cancel_remaps_to_shutting_down_and_frees_the_worker() {
        // A wedged-slow job under graceful drain: firing the in-flight
        // tokens unwinds it promptly, and the reply says "shutting_down"
        // (retryable elsewhere), not "deadline_exceeded".
        let svc = service();
        let worker = {
            let svc = svc.clone();
            std::thread::spawn(move || {
                svc.handle_line(&format!(
                    r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":400000000,"threads":1}}"#
                ))
            })
        };
        // Wait for the request to register its token.
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.inflight_token_count() == 0 {
            assert!(
                Instant::now() < deadline,
                "request never registered a token"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        svc.begin_drain();
        assert_eq!(svc.cancel_inflight(), 1);
        let out = worker.join().unwrap();
        assert!(out.contains("\"code\":\"shutting_down\""), "{out}");
        assert_eq!(svc.inflight_token_count(), 0, "token unregistered");
        assert_eq!(svc.stats().cancelled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn health_reports_readiness_and_flips_on_drain() {
        let svc = service();
        svc.install_queue_probe(|| 3);
        let out = svc.handle_line(r#"{"kind":"health","id":"h1"}"#);
        let doc = crate::json::parse(out.trim()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("ready").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("draining").and_then(Json::as_bool), Some(false));
        assert_eq!(result.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(result.get("inflight").and_then(Json::as_u64), Some(0));
        svc.begin_drain();
        let out = svc.handle_line(r#"{"kind":"health"}"#);
        let doc = crate::json::parse(out.trim()).unwrap();
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("ready").and_then(Json::as_bool), Some(false));
        assert_eq!(result.get("draining").and_then(Json::as_bool), Some(true));
        assert_eq!(
            svc.stats().requests[Request::Health.kind_index()].load(Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn admission_sheds_analysis_but_not_stats_or_health() {
        let svc = Service::new(ServiceConfig {
            timeout_ms: 0,
            max_inflight: 1,
            ..ServiceConfig::default()
        });
        // Occupy the only slot directly through the gauge; the next
        // analysis frame must be shed with a retry hint while stats and
        // health stay answerable.
        svc.stats().inflight.fetch_add(1, Ordering::Relaxed);
        let out = svc.handle_line(&analyze_frame(r#","id":9"#));
        assert!(out.contains("\"code\":\"overloaded\""), "{out}");
        assert!(out.contains("\"retry_after_ms\""), "{out}");
        assert!(out.contains("\"id\":9"), "{out}");
        assert_eq!(svc.stats().shed.load(Ordering::Relaxed), 1);
        let stats = svc.handle_line(r#"{"kind":"stats"}"#);
        assert!(stats.contains("\"ok\":true"), "{stats}");
        assert!(stats.contains("\"shed\":1"), "{stats}");
        let health = svc.handle_line(r#"{"kind":"health"}"#);
        assert!(health.contains("\"ok\":true"), "{health}");
        // Release the slot: analysis admits again and the permit is
        // returned after execution.
        svc.stats().inflight.fetch_sub(1, Ordering::Relaxed);
        let out = svc.handle_line(&analyze_frame(""));
        assert!(out.contains("\"ok\":true"), "{out}");
        assert_eq!(svc.stats().inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn estimate_tiers_are_reported_and_fallbacks_are_never_silent() {
        let svc = service();
        // Default budget: the two-gate circuit fits the exact tier.
        let out = svc.handle_line(&format!(
            r#"{{"kind":"estimate","netlist":"{SMALL}","eps":0.1,"id":1}}"#
        ));
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"tier\":\"exact\""), "{out}");
        // Budget 0 disables the exact tier: the answer degrades to the
        // propagation tier and says so.
        let out = svc.handle_line(&format!(
            r#"{{"kind":"estimate","netlist":"{SMALL}","eps":0.1,"bdd_node_budget":0}}"#
        ));
        assert!(out.contains("\"tier\":\"propagation\""), "{out}");
        assert!(out.contains("\"estimator_fallbacks\":1"), "{out}");
        // The fallback is visible in stats and health.
        let stats = svc.handle_line(r#"{"kind":"stats"}"#);
        let doc = crate::json::parse(stats.trim()).unwrap();
        let estimator = doc.get("result").unwrap().get("estimator").unwrap();
        assert_eq!(estimator.get("tier_exact").and_then(Json::as_u64), Some(1));
        assert_eq!(
            estimator.get("tier_propagation").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(estimator.get("fallbacks").and_then(Json::as_u64), Some(1));
        let requests = doc.get("result").unwrap().get("requests").unwrap();
        assert_eq!(requests.get("estimate").and_then(Json::as_u64), Some(2));
        let health = svc.handle_line(r#"{"kind":"health"}"#);
        let doc = crate::json::parse(health.trim()).unwrap();
        assert_eq!(
            doc.get("result")
                .unwrap()
                .get("estimator_fallbacks")
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn estimate_exact_tier_matches_observability_closed_form() {
        let svc = service();
        let obs = svc.handle_line(&format!(
            r#"{{"kind":"observability","netlist":"{SMALL}","eps":0.1}}"#
        ));
        let est = svc.handle_line(&format!(
            r#"{{"kind":"estimate","netlist":"{SMALL}","eps":0.1}}"#
        ));
        let delta_of = |line: &str| {
            let doc = crate::json::parse(line.trim()).unwrap();
            let result = doc.get("result").unwrap().clone();
            match result.get("points") {
                Some(points) => points.as_array().unwrap()[0].get("delta").unwrap().encode(),
                None => result.get("delta").unwrap().encode(),
            }
        };
        assert_eq!(delta_of(&obs), delta_of(&est));
    }

    #[test]
    fn budget_trip_is_never_cached_and_a_completed_build_fills_the_slot() {
        let svc = service();
        let estimate = |budget: u64| {
            svc.handle_line(&format!(
                r#"{{"kind":"estimate","netlist":"{SMALL}","eps":0.1,"bdd_node_budget":{budget}}}"#
            ))
        };
        let computed = || {
            svc.cache()
                .counters()
                .observability_computed
                .load(Ordering::Relaxed)
        };
        // The budgeted build trips: the estimate escalates, and the slot
        // stays empty instead of freezing the trip.
        let tripped = estimate(1);
        assert!(tripped.contains("\"tier\":\"propagation\""), "{tripped}");
        assert!(tripped.contains("budget"), "{tripped}");
        assert_eq!(computed(), 0);
        let obs = svc.handle_line(&format!(
            r#"{{"kind":"observability","netlist":"{SMALL}","eps":0.1}}"#
        ));
        assert!(obs.contains("\"ok\":true"), "{obs}");
        assert_eq!(computed(), 1, "the observability request computes once");
        // The filled slot now answers the exact tier under any budget.
        let exact = estimate(1);
        assert!(exact.contains("\"tier\":\"exact\""), "{exact}");
        assert_eq!(computed(), 1);

        // On a fresh service a completed budgeted build fills the slot, so
        // the observability request that follows computes nothing.
        let svc = service();
        let out = svc.handle_line(&format!(
            r#"{{"kind":"estimate","netlist":"{SMALL}","eps":0.1}}"#
        ));
        assert!(out.contains("\"tier\":\"exact\""), "{out}");
        let _ = svc.handle_line(&format!(
            r#"{{"kind":"observability","netlist":"{SMALL}","eps":0.1}}"#
        ));
        assert_eq!(
            svc.cache()
                .counters()
                .observability_computed
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn harden_and_estimate_share_one_propagation_estimate() {
        let svc = service();
        let computed = || {
            svc.cache()
                .counters()
                .estimates_computed
                .load(Ordering::Relaxed)
        };
        for _ in 0..2 {
            let out = svc.handle_line(&format!(
                r#"{{"kind":"harden","netlist":"{SMALL}","eps":0.1,"area_budget":20}}"#
            ));
            assert!(out.contains("\"ok\":true"), "{out}");
        }
        assert_eq!(computed(), 1, "the first harden fills the estimate slot");
        // A tripped exact tier falls to the propagation tier, which reads
        // the same slot.
        let out = svc.handle_line(&format!(
            r#"{{"kind":"estimate","netlist":"{SMALL}","eps":0.1,"bdd_node_budget":1}}"#
        ));
        assert!(out.contains("\"tier\":\"propagation\""), "{out}");
        assert_eq!(computed(), 1);
    }

    #[test]
    fn harden_round_trip_reports_a_front() {
        let svc = service();
        let out = svc.handle_line(&format!(
            r#"{{"kind":"harden","netlist":"{SMALL}","eps":0.1,"area_budget":20}}"#
        ));
        let doc = crate::json::parse(out.trim()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
        let result = doc.get("result").unwrap();
        let baseline = result.get("baseline").unwrap();
        assert_eq!(baseline.get("protected").and_then(Json::as_u64), Some(0));
        let front = result.get("front").and_then(Json::as_array).unwrap();
        assert!(!front.is_empty());
        assert!(!result
            .get("evaluated")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
        assert_eq!(
            result
                .get("ranking")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2),
            "both gates ranked"
        );
    }

    #[test]
    fn critical_eps_bisects_the_two_gate_chain() {
        let svc = service();
        let frame = format!(
            r#"{{"kind":"critical_eps","netlist":"{SMALL}","threshold":0.2,"metric":"max"}}"#
        );
        let out = svc.handle_line(&frame);
        let doc = crate::json::parse(out.trim()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("crossed").and_then(Json::as_bool), Some(true));
        // Two noisy gates in series: δ(ε) = ½(1 − (1−2ε)²) = 0.2 at
        // ε = (1 − √0.6)/2.
        let expected = 0.5 * (1.0 - 0.6f64.sqrt());
        let critical = result.get("critical").and_then(Json::as_f64).unwrap();
        assert!((critical - expected).abs() < 1e-9, "critical = {critical}");
        // Deterministic across repeats (modulo the cache tag).
        assert_eq!(
            out.replace("\"cache\":\"miss\"", ""),
            svc.handle_line(&frame).replace("\"cache\":\"hit\"", "")
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_through_the_service() {
        let svc = service();
        let frame = format!(
            r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":4096,"seed":3,"threads":2}}"#
        );
        let a = svc.handle_line(&frame);
        let b = svc.handle_line(&frame);
        // First run is a cache miss, second a hit; estimates identical.
        assert_eq!(
            a.replace("\"cache\":\"miss\"", ""),
            b.replace("\"cache\":\"hit\"", "")
        );
    }
}
