//! A std-only resilient client for the `relogic-serve` wire protocol.
//!
//! [`Client`] sends one NDJSON request frame per call and retries on
//! transient failures — transport errors, torn frames, `overloaded`
//! sheds, `shutting_down` farewells — under three interacting guards:
//!
//! - a **per-call deadline**: every attempt (connect, write, read) runs
//!   against the time remaining; the call fails with
//!   [`ClientError::DeadlineExceeded`] rather than overshooting.
//! - **decorrelated-jitter exponential backoff**: each retry sleeps
//!   `clamp(base, prev × 3, cap)` with a seeded splitmix64-driven
//!   uniform draw, honouring the server's `retry_after_ms` hint as a
//!   floor. The seed makes backoff schedules reproducible in tests.
//! - a **retry budget** (token bucket): each retry spends one token,
//!   each success refunds a fraction. Under systemic overload the budget
//!   runs dry and the client fails fast with
//!   [`ClientError::BudgetExhausted`] instead of amplifying the storm.
//!
//! Determinism contract: with a fixed `backoff_seed` the sleep schedule
//! is a pure function of the retry sequence, independent of wall-clock
//! time or thread interleaving.

use crate::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7171`.
    Tcp(String),
    /// A Unix-socket path.
    Unix(PathBuf),
}

/// Client tuning knobs; [`ClientConfig::new`] gives sensible defaults.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Server address.
    pub endpoint: Endpoint,
    /// Hard per-call budget covering every attempt and backoff sleep.
    pub deadline: Duration,
    /// Lower bound of every backoff sleep.
    pub base_backoff: Duration,
    /// Upper bound of every backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter generator; fixed seed ⇒ reproducible sleeps.
    pub backoff_seed: u64,
    /// Maximum retry tokens; each retry costs 1.
    pub retry_budget: f64,
    /// Tokens refunded per successful call (capped at `retry_budget`).
    pub refund: f64,
}

impl ClientConfig {
    /// Defaults: 30 s deadline, 25 ms–1 s backoff, seed 1, budget 10,
    /// refund 0.1 per success.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> ClientConfig {
        ClientConfig {
            endpoint,
            deadline: Duration::from_secs(30),
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            backoff_seed: 1,
            retry_budget: 10.0,
            refund: 0.1,
        }
    }
}

/// Why a call ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure with no retry possible (deadline or budget
    /// already spent reporting happens via the other variants; this is
    /// for non-retryable setup errors such as an unresolvable address).
    Io(std::io::Error),
    /// The server's reply was not a valid response frame.
    Protocol(String),
    /// The server answered with a non-retryable typed error.
    Server {
        /// The stable wire error code (e.g. `bad_request`).
        code: String,
        /// The human-readable message.
        message: String,
    },
    /// The per-call deadline expired before a successful reply.
    DeadlineExceeded {
        /// Attempts made before giving up.
        attempts: u64,
        /// The last transient failure observed.
        last_error: String,
    },
    /// The retry-token bucket ran dry (systemic overload guard).
    BudgetExhausted {
        /// Attempts made before giving up.
        attempts: u64,
        /// The last transient failure observed.
        last_error: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ClientError::DeadlineExceeded {
                attempts,
                last_error,
            } => write!(
                f,
                "deadline exceeded after {attempts} attempt(s); last error: {last_error}"
            ),
            ClientError::BudgetExhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "retry budget exhausted after {attempts} attempt(s); last error: {last_error}"
            ),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// SplitMix64 finalizer — the same generator the chaos engine uses, kept
/// local so the client builds without the `chaos` feature.
#[must_use]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One step of decorrelated-jitter backoff: advances `state` and returns
/// a sleep uniformly drawn from `[base_ms, max(base_ms, prev_ms × 3)]`,
/// clamped to `cap_ms`. Pure and seedable, so schedules are testable.
#[must_use]
pub fn decorrelated_jitter(state: &mut u64, prev_ms: u64, base_ms: u64, cap_ms: u64) -> u64 {
    *state = splitmix64(*state);
    let hi = prev_ms.saturating_mul(3).max(base_ms);
    let span = hi - base_ms + 1;
    (base_ms + *state % span).min(cap_ms)
}

/// How one attempt ended, before retry policy is applied.
enum Attempt {
    /// The `result` payload of an `ok` frame.
    Ok(Json),
    /// Retryable: transport error, torn frame, `overloaded`,
    /// `shutting_down`. `floor_ms` carries the server's retry hint.
    Transient {
        description: String,
        floor_ms: u64,
        /// Whether the connection must be discarded before retrying.
        reconnect: bool,
    },
    /// A typed server error that retrying cannot fix.
    Fatal { code: String, message: String },
}

/// Classifies one reply line. Pure, so the retry policy is unit-testable
/// without sockets.
fn classify_reply(line: &str) -> Attempt {
    let Ok(frame) = json::parse(line) else {
        return Attempt::Transient {
            description: format!("torn or malformed reply frame: {:?}", truncated(line)),
            floor_ms: 0,
            reconnect: true,
        };
    };
    if frame.get("ok").and_then(Json::as_bool) == Some(true) {
        return Attempt::Ok(frame.get("result").cloned().unwrap_or(Json::Null));
    }
    let error = frame.get("error");
    let code = error
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let message = error
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("no message")
        .to_string();
    match code.as_str() {
        "overloaded" => Attempt::Transient {
            description: format!("server overloaded: {message}"),
            floor_ms: error
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            // Admission-level sheds keep the connection open; connection
            // farewells close it, which the next write surfaces as an
            // I/O error. Either way reusing the stream is safe.
            reconnect: false,
        },
        "shutting_down" => Attempt::Transient {
            description: format!("server draining: {message}"),
            floor_ms: 0,
            reconnect: true,
        },
        // Deliberately non-retryable: the deadline is the *caller's*
        // budget, and the work was cancelled because that budget ran out.
        // Re-submitting the same request with the same deadline would
        // just burn a second deadline's worth of server compute to reach
        // the same outcome — the caller must decide to raise the deadline
        // (or drop the request), not the retry loop.
        "deadline_exceeded" => Attempt::Fatal { code, message },
        _ => Attempt::Fatal { code, message },
    }
}

fn truncated(line: &str) -> String {
    const MAX: usize = 80;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let mut end = MAX;
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &line[..end])
    }
}

/// Either transport, unified behind `Read + Write`.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
            Conn::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Retry/backoff state behind the client's mutex: the persistent
/// connection, jitter generator, and token bucket. Calls serialise on
/// this lock — one frame in flight per client, matching the server's
/// one-frame-at-a-time connection loop.
struct ClientState {
    conn: Option<BufReader<Conn>>,
    rng: u64,
    prev_backoff_ms: u64,
    budget: f64,
}

/// A retrying NDJSON client; see the [module docs](self) for the retry
/// semantics. Cloneless and `Sync` — share it behind an `Arc` if needed;
/// calls serialise internally.
pub struct Client {
    config: ClientConfig,
    state: Mutex<ClientState>,
    attempts: AtomicU64,
    retries: AtomicU64,
}

impl Client {
    /// Creates a client; no connection is made until the first call.
    #[must_use]
    pub fn new(config: ClientConfig) -> Client {
        let rng = splitmix64(config.backoff_seed);
        let budget = config.retry_budget;
        Client {
            config,
            state: Mutex::new(ClientState {
                conn: None,
                rng,
                prev_backoff_ms: 0,
                budget,
            }),
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Total attempts across every call (first tries + retries).
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Total retries across every call.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Sends one request frame (a JSON object, no trailing newline) and
    /// returns the `result` payload of the eventual `ok` reply.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for non-retryable typed errors,
    /// [`ClientError::DeadlineExceeded`] / [`ClientError::BudgetExhausted`]
    /// when the retry guards trip, [`ClientError::Protocol`] for replies
    /// that are not response frames.
    pub fn call(&self, request: &str) -> Result<Json, ClientError> {
        if request.contains('\n') {
            return Err(ClientError::Protocol(
                "request frame must not contain a newline".into(),
            ));
        }
        let deadline = Instant::now() + self.config.deadline;
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut call_attempts = 0u64;
        loop {
            call_attempts += 1;
            self.attempts.fetch_add(1, Ordering::Relaxed);
            let attempt = self.attempt_once(&mut state, request, deadline);
            let (description, floor_ms, reconnect) = match attempt {
                Attempt::Ok(result) => {
                    state.budget =
                        (state.budget + self.config.refund).min(self.config.retry_budget);
                    state.prev_backoff_ms = 0;
                    return Ok(result);
                }
                Attempt::Fatal { code, message } => {
                    return Err(ClientError::Server { code, message });
                }
                Attempt::Transient {
                    description,
                    floor_ms,
                    reconnect,
                } => (description, floor_ms, reconnect),
            };
            if reconnect {
                state.conn = None;
            }
            state.budget -= 1.0;
            if state.budget < 0.0 {
                state.budget = 0.0;
                return Err(ClientError::BudgetExhausted {
                    attempts: call_attempts,
                    last_error: description,
                });
            }
            let base = u64::try_from(self.config.base_backoff.as_millis()).unwrap_or(u64::MAX);
            let cap = u64::try_from(self.config.max_backoff.as_millis()).unwrap_or(u64::MAX);
            let prev_ms = state.prev_backoff_ms;
            let mut sleep_ms = decorrelated_jitter(&mut state.rng, prev_ms, base.max(1), cap);
            sleep_ms = sleep_ms.max(floor_ms);
            state.prev_backoff_ms = sleep_ms;
            let sleep = Duration::from_millis(sleep_ms);
            if Instant::now() + sleep >= deadline {
                return Err(ClientError::DeadlineExceeded {
                    attempts: call_attempts,
                    last_error: description,
                });
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(sleep);
        }
    }

    /// One connect → write → read → classify cycle against the deadline.
    fn attempt_once(&self, state: &mut ClientState, request: &str, deadline: Instant) -> Attempt {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Attempt::Transient {
                description: "deadline expired before the attempt started".into(),
                floor_ms: 0,
                reconnect: false,
            };
        }
        if state.conn.is_none() {
            match self.connect(remaining) {
                Ok(conn) => state.conn = Some(BufReader::new(conn)),
                Err(e) => {
                    return Attempt::Transient {
                        description: format!("connect failed: {e}"),
                        floor_ms: 0,
                        reconnect: true,
                    };
                }
            }
        }
        let Some(reader) = state.conn.as_mut() else {
            return Attempt::Transient {
                description: "no connection".into(),
                floor_ms: 0,
                reconnect: true,
            };
        };
        // Cap the read wait at the remaining deadline so a stalled server
        // cannot hold the call past its budget.
        let timeout = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        if let Err(e) = reader.get_ref().set_read_timeout(timeout) {
            return Attempt::Transient {
                description: format!("set_read_timeout failed: {e}"),
                floor_ms: 0,
                reconnect: true,
            };
        }
        let stream = reader.get_mut();
        if let Err(e) = stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
        {
            return Attempt::Transient {
                description: format!("write failed: {e}"),
                floor_ms: 0,
                reconnect: true,
            };
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Attempt::Transient {
                description: "connection closed before a reply arrived".into(),
                floor_ms: 0,
                reconnect: true,
            },
            Ok(_) => {
                if line.ends_with('\n') {
                    classify_reply(line.trim_end_matches('\n'))
                } else {
                    // A reply with no terminator is a torn frame: the
                    // server died mid-write. Never trust partial JSON.
                    Attempt::Transient {
                        description: format!("torn reply frame: {:?}", truncated(&line)),
                        floor_ms: 0,
                        reconnect: true,
                    }
                }
            }
            Err(e) => Attempt::Transient {
                description: format!("read failed: {e}"),
                floor_ms: 0,
                reconnect: true,
            },
        }
    }

    fn connect(&self, remaining: Duration) -> std::io::Result<Conn> {
        match &self.config.endpoint {
            Endpoint::Tcp(addr) => {
                let mut last = std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("address resolved to nothing: {addr}"),
                );
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, remaining) {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            return Ok(Conn::Tcp(stream));
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let mut a = splitmix64(7);
        let mut b = splitmix64(7);
        let mut prev = 0;
        for _ in 0..64 {
            let x = decorrelated_jitter(&mut a, prev, 25, 1000);
            let y = decorrelated_jitter(&mut b, prev, 25, 1000);
            assert_eq!(x, y);
            assert!((25..=1000).contains(&x), "sleep {x} out of bounds");
            prev = x;
        }
        // A different seed diverges somewhere in the schedule.
        let mut c = splitmix64(8);
        let schedule_a: Vec<u64> = {
            let mut s = splitmix64(7);
            (0..16)
                .map(|_| decorrelated_jitter(&mut s, 100, 25, 1000))
                .collect()
        };
        let schedule_c: Vec<u64> = (0..16)
            .map(|_| decorrelated_jitter(&mut c, 100, 25, 1000))
            .collect();
        assert_ne!(schedule_a, schedule_c);
    }

    #[test]
    fn jitter_grows_from_prev_and_respects_cap() {
        let mut s = splitmix64(3);
        // With prev = 0 the draw collapses to exactly base.
        assert_eq!(decorrelated_jitter(&mut s, 0, 25, 1000), 25);
        // With a huge prev the cap clamps.
        for _ in 0..32 {
            let x = decorrelated_jitter(&mut s, u64::MAX / 4, 25, 1000);
            assert!(x <= 1000);
        }
    }

    #[test]
    fn classify_routes_ok_overloaded_and_fatal() {
        match classify_reply(r#"{"ok":true,"kind":"stats","result":{"x":1}}"#) {
            Attempt::Ok(result) => {
                assert_eq!(result.get("x").and_then(Json::as_u64), Some(1));
            }
            _ => panic!("expected Ok"),
        }
        match classify_reply(
            r#"{"ok":false,"kind":"analyze","error":{"code":"overloaded","message":"m","retry_after_ms":120}}"#,
        ) {
            Attempt::Transient {
                floor_ms,
                reconnect,
                ..
            } => {
                assert_eq!(floor_ms, 120);
                assert!(!reconnect);
            }
            _ => panic!("expected Transient"),
        }
        match classify_reply(r#"{"ok":false,"error":{"code":"shutting_down","message":"m"}}"#) {
            Attempt::Transient { reconnect, .. } => assert!(reconnect),
            _ => panic!("expected Transient"),
        }
        match classify_reply(r#"{"ok":false,"error":{"code":"bad_request","message":"nope"}}"#) {
            Attempt::Fatal { code, .. } => assert_eq!(code, "bad_request"),
            _ => panic!("expected Fatal"),
        }
        // A blown deadline is the caller's budget running out — retrying
        // the identical request would only spend it again.
        match classify_reply(
            r#"{"ok":false,"error":{"code":"deadline_exceeded","message":"m","after_ms":51}}"#,
        ) {
            Attempt::Fatal { code, .. } => assert_eq!(code, "deadline_exceeded"),
            _ => panic!("deadline_exceeded must be fatal, not retried"),
        }
        match classify_reply(r#"{"ok":false,"error":{"code":"#) {
            Attempt::Transient { reconnect, .. } => assert!(reconnect),
            _ => panic!("torn frames must be transient"),
        }
    }

    #[test]
    fn budget_exhausts_against_a_dead_endpoint() {
        // Port 1 on localhost refuses instantly; the budget (not the
        // deadline) should end the call after budget+1 attempts.
        let mut config = ClientConfig::new(Endpoint::Tcp("127.0.0.1:1".into()));
        config.retry_budget = 2.0;
        config.base_backoff = Duration::from_millis(1);
        config.max_backoff = Duration::from_millis(2);
        config.deadline = Duration::from_secs(10);
        let client = Client::new(config);
        match client.call(r#"{"kind":"stats"}"#) {
            Err(ClientError::BudgetExhausted { attempts, .. }) => {
                assert_eq!(attempts, 3, "2 tokens -> 3 attempts");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(client.attempts(), 3);
        assert_eq!(client.retries(), 2);
    }

    #[test]
    fn embedded_newlines_are_rejected_up_front() {
        let client = Client::new(ClientConfig::new(Endpoint::Tcp("127.0.0.1:1".into())));
        assert!(matches!(
            client.call("{}\n{}"),
            Err(ClientError::Protocol(_))
        ));
    }
}
