//! End-to-end deadline and cancellation tests over real sockets: a
//! bound `deadline_ms` request answers `deadline_exceeded` promptly and
//! demonstrably frees its worker, the `--timeout-ms` cap answers
//! `timeout` the same way, a vanished client cancels its in-flight job,
//! and graceful drain completes under a wedged-slow job by firing the
//! outstanding cancel tokens after the grace period.

// Test helpers may unwrap: a panic here is a test failure, not a crash path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic_serve::json::{self, Json};
use relogic_serve::{Server, ServerConfig, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn c499_text() -> String {
    relogic_netlist::bench::write(&relogic_gen::suite::c499())
}

fn start_server(threads: usize, timeout_ms: u64, drain_grace_ms: u64) -> Server {
    Server::start(ServerConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        threads,
        drain_grace_ms,
        service: ServiceConfig {
            timeout_ms,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap()
}

fn round_trip(addr: std::net::SocketAddr, frame: &str) -> Json {
    Connection::open(addr).call(frame)
}

/// One persistent connection: each call writes a frame and reads its
/// reply line, so every frame is served by the same pool worker.
struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: std::net::SocketAddr) -> Connection {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Connection {
            reader: BufReader::new(stream),
        }
    }

    fn call(&mut self, frame: &str) -> Json {
        let stream = self.reader.get_mut();
        stream.write_all(frame.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    /// `stats`' in-flight gauge and its `cancellation` object's
    /// `cancelled`, `deadline_exceeded` and the top-level `timeouts`.
    fn counters(&mut self) -> [u64; 4] {
        let reply = self.call(r#"{"kind":"stats"}"#);
        let result = reply.get("result").unwrap();
        let cancellation = result.get("cancellation").unwrap();
        [
            result.get("inflight"),
            cancellation.get("cancelled"),
            cancellation.get("deadline_exceeded"),
            result.get("timeouts"),
        ]
        .map(|member| member.and_then(Json::as_u64).unwrap())
    }
}

// The deadline plus 250 ms, the bound `crates/cli/tests/exit_codes.rs`
// holds the CLI to.
const DEADLINE_MS: u64 = 500;
const REPLY_BOUND: Duration = Duration::from_millis(750);

/// An analysis frame on `netlist`, with `extra` members appended.
fn frame(kind: &str, id: u64, netlist: &str, extra: &[(&'static str, Json)]) -> String {
    let mut members = vec![
        ("kind", Json::from(kind)),
        ("id", Json::from(id)),
        ("netlist", Json::from(netlist)),
        ("eps", Json::from(0.05)),
    ];
    members.extend(extra.iter().cloned());
    Json::obj(members).encode()
}

/// A short `monte_carlo` on the same connection must answer: the worker
/// is free again.
fn assert_worker_answers(conn: &mut Connection, netlist: &str) {
    let quick = [
        ("patterns", Json::from(2_048u64)),
        ("threads", Json::from(1u64)),
    ];
    let reply = conn.call(&frame("monte_carlo", 99, netlist, &quick));
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.encode()
    );
}

/// The serve deadline contract on c1908, one pool worker, cold cache:
/// each kind answers `deadline_exceeded` within the deadline plus
/// 250 ms, naming the engine check site that unwound. By the time the
/// reply is read its compute has already stopped: `stats`, the next
/// frame on the same worker, shows nothing in flight and one more
/// cancellation, without polling. The worker then answers again.
#[test]
fn every_kind_meets_its_deadline_on_c1908_and_frees_its_worker() {
    let netlist = relogic_netlist::bench::write(&relogic_gen::suite::c1908());
    let server = start_server(1, 0, 2_000);
    let mut conn = Connection::open(server.tcp_addr().unwrap());
    let [_, mut cancelled, mut exceeded, _] = conn.counters();
    let huge_mc = [
        ("patterns", Json::from(4_000_000_000u64)),
        ("threads", Json::from(1u64)),
    ];
    // `observability` and `estimate` stop in the exact build, `analyze`
    // while its weights build, `monte_carlo` between tape chunks.
    let cases: [(&str, &[(&'static str, Json)]); 4] = [
        ("observability", &[]),
        ("monte_carlo", &huge_mc),
        ("estimate", &[]),
        ("analyze", &[]),
    ];
    for (id, (kind, extra)) in (1u64..).zip(cases) {
        let mut members = extra.to_vec();
        members.push(("deadline_ms", Json::from(DEADLINE_MS)));
        let started = Instant::now();
        let reply = conn.call(&frame(kind, id, &netlist, &members));
        let waited = started.elapsed();
        let error = reply
            .get("error")
            .unwrap_or_else(|| panic!("{kind}: {}", reply.encode()));
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{kind}: {}",
            reply.encode()
        );
        let site = error.get("site").and_then(Json::as_str).unwrap();
        assert_ne!(site, "watchdog", "{kind}: {}", reply.encode());
        assert!(waited < REPLY_BOUND, "{kind}: answered after {waited:?}");
        let [inflight, now_cancelled, now_exceeded, _] = conn.counters();
        assert_eq!(inflight, 0, "{kind}: compute outlived its reply");
        assert_eq!(
            now_cancelled,
            cancelled + 1,
            "{kind}: cancellation not yet counted"
        );
        assert_eq!(now_exceeded, exceeded + 1, "{kind}");
        (cancelled, exceeded) = (now_cancelled, now_exceeded);
    }
    assert_worker_answers(&mut conn, &netlist);
    server.shutdown();
}

/// The `--timeout-ms` cap fires like a client deadline but answers the
/// legacy `timeout` code, within the same bound and with the worker free
/// by the time the reply is read.
#[test]
fn the_server_cap_answers_timeout_and_frees_the_worker() {
    let netlist = relogic_netlist::bench::write(&relogic_gen::suite::c1908());
    let server = start_server(1, DEADLINE_MS, 2_000);
    let mut conn = Connection::open(server.tcp_addr().unwrap());
    let [_, cancelled, exceeded, timeouts] = conn.counters();
    let started = Instant::now();
    let reply = conn.call(&wedge_frame(&netlist, 1));
    let waited = started.elapsed();
    let error = reply.get("error").unwrap();
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("timeout"),
        "{}",
        reply.encode()
    );
    assert_eq!(error.get("ms").and_then(Json::as_u64), Some(DEADLINE_MS));
    assert!(waited < REPLY_BOUND, "answered after {waited:?}");
    assert_eq!(
        conn.counters(),
        [0, cancelled + 1, exceeded, timeouts + 1],
        "[inflight, cancelled, deadline_exceeded, timeouts]"
    );
    assert_worker_answers(&mut conn, &netlist);
    server.shutdown();
}

/// A Monte Carlo budget large enough to run for minutes on one thread —
/// the "wedged-slow job" stand-in. Only ever run under a deadline or a
/// cancel, so the full budget is never actually simulated.
fn wedge_frame(netlist: &str, id: u64) -> String {
    Json::obj([
        ("kind", Json::from("monte_carlo")),
        ("id", Json::from(id)),
        ("netlist", Json::from(netlist)),
        ("eps", Json::from(0.1)),
        ("patterns", Json::from(4_000_000_000u64)),
        ("seed", Json::from(9u64)),
        ("threads", Json::from(1u64)),
    ])
    .encode()
}

/// Acceptance: a `deadline_ms: 50` observability request against c499
/// with a cold cache answers a typed `deadline_exceeded` promptly, the
/// worker frees, and a follow-up request on the same server succeeds —
/// the cancelled materialization did not poison the cache slot.
#[test]
fn cold_observability_deadline_returns_typed_error_and_slot_recovers() {
    let netlist = c499_text();
    let server = start_server(2, 0, 2_000);
    let addr = server.tcp_addr().unwrap();
    let deadlined = Json::obj([
        ("kind", Json::from("observability")),
        ("id", Json::from(1u64)),
        ("netlist", Json::from(netlist.as_str())),
        ("eps", Json::from(0.05)),
        ("deadline_ms", Json::from(50u64)),
    ])
    .encode();
    let started = Instant::now();
    let reply = round_trip(addr, &deadlined);
    let waited = started.elapsed();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").unwrap();
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{}",
        reply.encode()
    );
    assert!(
        error.get("after_ms").and_then(Json::as_u64).is_some(),
        "typed payload must say how long the work ran: {}",
        reply.encode()
    );
    assert!(
        waited < Duration::from_secs(10),
        "the deadline reply must be prompt, waited {waited:?}"
    );
    // The same request without a deadline now succeeds: the cancelled
    // build released the single-flight slot instead of freezing into it.
    let plain = Json::obj([
        ("kind", Json::from("observability")),
        ("id", Json::from(2u64)),
        ("netlist", Json::from(netlist.as_str())),
        ("eps", Json::from(0.05)),
    ])
    .encode();
    let reply = round_trip(addr, &plain);
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.encode()
    );
    let stats = server.service().stats();
    assert!(
        stats.deadline_exceeded.load(Ordering::Relaxed) >= 1,
        "the deadline fire must be counted"
    );
    assert_eq!(stats.inflight.load(Ordering::Relaxed), 0, "no zombie work");
    server.shutdown();
}

/// A client that vanishes mid-`monte_carlo` frees its worker within the
/// disconnect check interval: with a single connection worker, a second
/// client's request completes only because the first job was cancelled,
/// and the disconnect is accounted exactly once.
#[test]
fn client_disconnect_mid_monte_carlo_frees_the_worker() {
    let netlist = c499_text();
    let server = start_server(1, 0, 2_000);
    let addr = server.tcp_addr().unwrap();
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(wedge_frame(&netlist, 1).as_bytes())
            .unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        // Give the frame time to reach the worker, then vanish.
        std::thread::sleep(Duration::from_millis(300));
    }
    // The sole worker is busy with the abandoned job; this request can
    // only complete if the disconnect probe cancels it.
    let quick = Json::obj([
        ("kind", Json::from("monte_carlo")),
        ("id", Json::from(2u64)),
        ("netlist", Json::from(netlist.as_str())),
        ("eps", Json::from(0.1)),
        ("patterns", Json::from(2_048u64)),
        ("seed", Json::from(9u64)),
        ("threads", Json::from(1u64)),
    ])
    .encode();
    let started = Instant::now();
    let reply = round_trip(addr, &quick);
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.encode()
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "worker was not freed promptly"
    );
    let stats = server.service().stats();
    assert_eq!(
        stats.disconnect_cancels.load(Ordering::Relaxed),
        1,
        "exactly one disconnect cancellation"
    );
    // The cancelled compute unwinds at its next chunk boundary and ticks
    // the cancelled counter exactly once.
    let deadline = Instant::now() + Duration::from_secs(30);
    let cancelled = || server.service().cache().counters().engine().cancellations();
    while cancelled() == 0 {
        assert!(
            Instant::now() < deadline,
            "abandoned job never observed its cancel"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(cancelled(), 1);
    server.shutdown();
}

/// Graceful drain under a wedged-slow job: shutdown waits out the grace
/// period, fires the outstanding tokens, and completes promptly — the
/// abandoned client is answered with `shutting_down`.
#[test]
fn drain_completes_under_a_wedged_slow_job() {
    let netlist = c499_text();
    let server = start_server(2, 0, 100);
    let addr = server.tcp_addr().unwrap();
    let wedged = {
        let frame = wedge_frame(&netlist, 1);
        std::thread::spawn(move || round_trip(addr, &frame))
    };
    // Wait until the job is actually executing.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.service().stats().inflight.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "wedge request never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drain must not wait for a minutes-long job, took {:?}",
        started.elapsed()
    );
    let reply = wedged.join().unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("shutting_down"),
        "a drain-cancelled job is retryable elsewhere: {}",
        reply.encode()
    );
}
