//! Socket front-end: TCP + Unix listeners, a bounded connection worker
//! pool, per-connection frame loops, and graceful drain.
//!
//! Backpressure chain: accept threads hand connections to a
//! [`relogic_sim::exec::WorkerPool`] with a bounded queue; when every
//! worker is busy and the queue is full, the acceptor waits a bounded
//! 500 ms for space and then sheds the connection with a typed
//! `overloaded` farewell (carrying a retry hint), so a saturated or
//! wedged pool surfaces to clients as a retryable error rather than a
//! stuck accept loop.

use crate::proto::{Response, ServeError};
use crate::service::{Service, ServiceConfig};
use relogic_sim::exec::{Job, WorkerPool};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection read blocks before re-checking the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// How often the connection watcher probes the sockets of in-flight
/// requests. Bounds how long a cancelled job can outlive its client: the
/// worker is freed within one watch interval plus one engine check
/// interval.
const WATCH_INTERVAL: Duration = Duration::from_millis(100);

/// How long an acceptor waits for worker-pool queue space before shedding
/// the connection with an `overloaded` farewell. Bounded so a wedged pool
/// surfaces as a typed error on the client, never as a silently stuck
/// accept loop.
const SUBMIT_WAIT: Duration = Duration::from_millis(500);

/// Server configuration: transports plus the embedded [`ServiceConfig`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP listen address (e.g. `127.0.0.1:7171`), or `None` for no TCP.
    pub tcp: Option<String>,
    /// Unix-socket path, or `None` for no Unix listener.
    pub unix: Option<PathBuf>,
    /// Connection worker threads; `0` auto-detects.
    pub threads: usize,
    /// Bounded depth of the pending-connection queue feeding the workers.
    pub queue_capacity: usize,
    /// Close a connection after this much idle time between frames; `0`
    /// disables the idle timeout.
    pub idle_timeout_ms: u64,
    /// Graceful-drain grace period: after shutdown begins, in-flight
    /// requests get this long to finish before their cancel tokens are
    /// fired. `0` cancels immediately. Bounds how long a wedged-slow job
    /// can delay shutdown to roughly the grace period plus one engine
    /// check interval.
    pub drain_grace_ms: u64,
    /// Transport-independent service settings.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tcp: None,
            unix: None,
            threads: 0,
            queue_capacity: 64,
            idle_timeout_ms: 30_000,
            drain_grace_ms: 2_000,
            service: ServiceConfig::default(),
        }
    }
}

struct Shared {
    service: Service,
    idle_timeout: Duration,
    drain_grace: Duration,
    max_request_bytes: usize,
}

/// A running server; dropping it does **not** stop it — call
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    pool: WorkerPool,
    accept_threads: Vec<JoinHandle<()>>,
    watcher: Watcher,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds the configured listeners and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a listener cannot be bound (address in
    /// use, bad path, permissions).
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let max_request_bytes = config.service.max_request_bytes;
        let shared = Arc::new(Shared {
            service: Service::new(config.service),
            idle_timeout: Duration::from_millis(config.idle_timeout_ms),
            drain_grace: Duration::from_millis(config.drain_grace_ms),
            max_request_bytes,
        });
        let pool = WorkerPool::new(config.threads, config.queue_capacity.max(1));
        #[cfg(feature = "chaos")]
        if let Some(chaos) = shared.service.chaos() {
            pool.install_chaos(Arc::clone(chaos));
        }
        {
            let submitter = pool.submitter();
            shared
                .service
                .install_queue_probe(move || submitter.queued());
        }
        let mut accept_threads = Vec::new();
        let mut tcp_addr = None;
        let mut unix_path = None;
        // Any failure past this point (bind, listener setup, thread
        // spawn) must tear the partially started server down instead of
        // leaking accept threads or the socket file.
        let setup = (|| -> std::io::Result<Watcher> {
            if let Some(addr) = &config.tcp {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                tcp_addr = Some(listener.local_addr()?);
                accept_threads.push(spawn_acceptor(
                    "relogic-serve-tcp-accept",
                    listener,
                    Arc::clone(&shared),
                    pool_handle(&pool),
                    |stream: TcpStream, shared| {
                        let _ = stream.set_nodelay(true);
                        serve_connection(stream, &shared);
                    },
                )?);
            }
            if let Some(path) = &config.unix {
                // A stale socket file from a previous run would make bind
                // fail.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                unix_path = Some(path.clone());
                accept_threads.push(spawn_acceptor(
                    "relogic-serve-unix-accept",
                    listener,
                    Arc::clone(&shared),
                    pool_handle(&pool),
                    |stream: UnixStream, shared| serve_connection(stream, &shared),
                )?);
            }
            Watcher::spawn(shared.service.clone())
        })();
        let watcher = match setup {
            Ok(watcher) => watcher,
            Err(e) => {
                shared.service.begin_drain();
                for handle in accept_threads {
                    let _ = handle.join();
                }
                pool.shutdown();
                if let Some(path) = &unix_path {
                    let _ = std::fs::remove_file(path);
                }
                return Err(e);
            }
        };
        Ok(Server {
            shared,
            pool,
            accept_threads,
            watcher,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address, if a TCP listener was configured.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path, if configured.
    #[must_use]
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// The underlying service (counters, cache — useful in tests).
    #[must_use]
    pub fn service(&self) -> &Service {
        &self.shared.service
    }

    /// True once a drain has been requested.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.service.is_draining()
    }

    /// Graceful shutdown: stop accepting, give in-flight frames the
    /// configured grace period to finish, then *fire* their cancel
    /// tokens, join every thread (the connection watcher last, once no
    /// request can register), and unlink the Unix socket. A
    /// wedged-slow job cannot hold shutdown hostage: past the grace
    /// period it unwinds at its next engine check site and its client is
    /// answered with `shutting_down`.
    pub fn shutdown(self) {
        self.shared.service.begin_drain();
        for handle in self.accept_threads {
            let _ = handle.join();
        }
        let deadline = Instant::now() + self.shared.drain_grace;
        while self.shared.service.inflight_token_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.shared.service.cancel_inflight();
        // Queued connections still run; each notices the drain flag after
        // at most one poll interval and closes after its current frame.
        self.pool.shutdown();
        self.watcher.stop();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The connection watcher: one thread that, every [`WATCH_INTERVAL`],
/// probes the socket of each in-flight request with [`peer_disconnected`]
/// and fires the cancel tokens of requests whose client is gone, so a
/// vanished client frees its worker instead of leaving it to compute a
/// reply nobody will read.
struct Watcher {
    /// Dropping the sender stops the thread at its next wake-up.
    stop: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

impl Watcher {
    /// Starts the watcher over `service`'s in-flight registry.
    ///
    /// # Errors
    ///
    /// Returns the spawn error if the thread cannot be created.
    fn spawn(service: Service) -> std::io::Result<Watcher> {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("relogic-serve-watch".to_string())
            .spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) =
                    stopped.recv_timeout(WATCH_INTERVAL)
                {
                    service.cancel_disconnected(peer_disconnected);
                }
            })?;
        Ok(Watcher { stop, thread })
    }

    /// Stops the watcher and joins its thread.
    fn stop(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// A cloneable handle that submits boxed jobs to the shared worker pool,
/// waiting at most [`SUBMIT_WAIT`] for queue space. Rejections are
/// handled by the job's own drop guard (see [`PendingConn`]), so the
/// result is intentionally discarded here.
type Submit = Arc<dyn Fn(Job) + Send + Sync>;

fn pool_handle(pool: &WorkerPool) -> Submit {
    let submitter = pool.submitter();
    Arc::new(move |job| {
        // Bounded patience: if the queue stays full (overload, or a
        // wedged pool) the job is dropped and its PendingConn guard
        // answers the client with `overloaded` instead of leaving the
        // connection silently stuck behind the accept loop.
        let _ = submitter.submit(job, SUBMIT_WAIT);
    })
}

/// An accepted connection on its way to a pool worker. If the job never
/// runs — the queue stayed full, or the pool is already draining — the
/// guard's `Drop` still answers the client with a typed farewell
/// (`overloaded` with a retry hint, or `shutting_down` during drain) and
/// accounts the shed, so no client is ever left staring at a silent
/// close.
struct PendingConn<S: Write> {
    stream: Option<S>,
    shared: Arc<Shared>,
}

impl<S: Write> PendingConn<S> {
    /// Runs the connection handler, disarming the farewell guard.
    fn serve(mut self, handler: fn(S, Arc<Shared>)) {
        if let Some(stream) = self.stream.take() {
            let shared = Arc::clone(&self.shared);
            handler(stream, shared);
        }
    }
}

impl<S: Write> Drop for PendingConn<S> {
    fn drop(&mut self) {
        let Some(mut stream) = self.stream.take() else {
            return;
        };
        let service = &self.shared.service;
        let error = if service.is_draining() {
            ServeError::ShuttingDown
        } else {
            service.stats().shed.fetch_add(1, Ordering::Relaxed);
            ServeError::Overloaded {
                retry_after_ms: service.retry_after_hint_ms(),
            }
        };
        let line = Response {
            id: None,
            kind: None,
            body: Err(error),
        }
        .to_line();
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.flush();
    }
}

/// Generic accept loop over either listener type.
///
/// # Errors
///
/// Returns the spawn error if the acceptor thread cannot be created
/// (resource exhaustion); the caller is responsible for tearing down any
/// partially started server state.
fn spawn_acceptor<L, S>(
    name: &str,
    listener: L,
    shared: Arc<Shared>,
    submit: Submit,
    handler: fn(S, Arc<Shared>),
) -> std::io::Result<JoinHandle<()>>
where
    L: Accept<Stream = S> + Send + 'static,
    S: Write + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || loop {
            if shared.service.is_draining() {
                return;
            }
            match listener.accept_stream() {
                Ok(stream) => {
                    shared
                        .service
                        .stats()
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let pending = PendingConn {
                        stream: Some(stream),
                        shared: Arc::clone(&shared),
                    };
                    submit(Box::new(move || pending.serve(handler)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        })
}

/// Uniform non-blocking accept over TCP and Unix listeners.
trait Accept {
    /// The accepted stream type.
    type Stream;
    /// Accepts one pending connection, `WouldBlock` if none.
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
}

impl Accept for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }
}

impl Accept for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }
}

/// A stream the frame loop can drive: read with a poll timeout, write.
trait Connection: Read + Write {
    /// Sets the read timeout used for drain-flag polling.
    fn set_poll_timeout(&self, timeout: Duration) -> std::io::Result<()>;

    /// The raw socket descriptor the connection watcher probes, when the
    /// stream has one. `None` leaves the request unwatched (it still runs
    /// under its deadline, it just cannot notice a vanished client early).
    fn probe_fd(&self) -> Option<RawFd> {
        None
    }
}

impl Connection for TcpStream {
    fn set_poll_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }

    fn probe_fd(&self) -> Option<RawFd> {
        Some(self.as_raw_fd())
    }
}

impl Connection for UnixStream {
    fn set_poll_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }

    fn probe_fd(&self) -> Option<RawFd> {
        Some(self.as_raw_fd())
    }
}

/// Whether the peer of `fd` has closed the connection, observed without
/// consuming any pipelined bytes: a non-blocking one-byte `MSG_PEEK`
/// `recv(2)` returns 0 exactly at EOF, while a live-but-quiet peer yields
/// `EAGAIN` (-1) and a pipelined frame yields the peeked byte (>0).
///
/// Note a client that half-closes its write side while still waiting to
/// read the reply is indistinguishable from a vanished one here; the
/// NDJSON protocol keeps the stream fully open for its lifetime, so a
/// write-side EOF is treated as abandonment.
fn peer_disconnected(fd: RawFd) -> bool {
    const MSG_PEEK: i32 = 2;
    const MSG_DONTWAIT: i32 = 0x40;
    // Declared directly (see `signal.rs`) to avoid the `libc` crate;
    // `recv` is in every libc the workspace targets.
    unsafe extern "C" {
        fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }
    let mut byte = 0u8;
    // SAFETY: the buffer is a valid one-byte write target, and MSG_PEEK
    // leaves the stream state untouched. The watcher probes `fd` under the
    // in-flight registry lock, and a request unregisters before its
    // connection's stream can close, so `fd` is still that live socket.
    let n = unsafe { recv(fd, &raw mut byte, 1, MSG_PEEK | MSG_DONTWAIT) };
    n == 0
}

/// A fault-injecting wrapper around a live connection stream. Reads can
/// stall (latency spike) or come back torn into single bytes; a write can
/// be cut mid-frame, after which the stream reports `BrokenPipe` forever —
/// the closest a userspace shim gets to a peer dying between two
/// `write(2)` calls.
#[cfg(feature = "chaos")]
struct ChaosStream<S: Connection> {
    inner: S,
    chaos: Arc<relogic_sim::chaos::Chaos>,
    /// Set after an injected mid-write EOF; every later write fails.
    dead: bool,
}

#[cfg(feature = "chaos")]
impl<S: Connection> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use relogic_sim::chaos::ChaosSite;
        self.chaos.maybe_delay(ChaosSite::ReadStall);
        if buf.len() > 1 && self.chaos.should(ChaosSite::TornRead) {
            // A torn read: deliver one byte, forcing the frame loop to
            // reassemble the request across many short reads.
            return self.inner.read(&mut buf[..1]);
        }
        self.inner.read(buf)
    }
}

#[cfg(feature = "chaos")]
impl<S: Connection> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        use relogic_sim::chaos::ChaosSite;
        if self.dead {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "chaos: connection torn down by injected EOF",
            ));
        }
        if self.chaos.should(ChaosSite::WriteEof) {
            // Push half the frame out, then die: the client sees a
            // truncated line with no newline — a torn frame it must
            // discard and retry on a fresh connection.
            let _ = self.inner.write(&buf[..buf.len() / 2]);
            let _ = self.inner.flush();
            self.dead = true;
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "chaos: injected mid-write EOF",
            ));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(feature = "chaos")]
impl<S: Connection> Connection for ChaosStream<S> {
    fn set_poll_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.inner.set_poll_timeout(timeout)
    }

    fn probe_fd(&self) -> Option<RawFd> {
        self.inner.probe_fd()
    }
}

/// Runs the NDJSON frame loop on one connection until EOF, idle timeout,
/// drain, or an unrecoverable I/O error. With an active chaos config the
/// stream is first wrapped in the fault-injecting [`ChaosStream`].
fn serve_connection<S: Connection>(stream: S, shared: &Arc<Shared>) {
    #[cfg(feature = "chaos")]
    if let Some(chaos) = shared.service.chaos() {
        let wrapped = ChaosStream {
            inner: stream,
            chaos: Arc::clone(chaos),
            dead: false,
        };
        serve_connection_impl(wrapped, shared);
        return;
    }
    serve_connection_impl(stream, shared);
}

fn serve_connection_impl<S: Connection>(stream: S, shared: &Arc<Shared>) {
    let stats = shared.service.stats();
    stats.connections_active.fetch_add(1, Ordering::Relaxed);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        frame_loop(stream, shared);
    }));
    stats.connections_active.fetch_sub(1, Ordering::Relaxed);
    // A panic in the frame loop kills only this connection; the counter
    // stays balanced and the worker thread survives via the pool's own
    // catch_unwind as well.
    drop(result);
}

fn frame_loop<S: Connection>(stream: S, shared: &Arc<Shared>) {
    if stream.set_poll_timeout(POLL_INTERVAL).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut idle = Duration::ZERO;
    loop {
        if shared.service.is_draining() {
            let line = Response {
                id: None,
                kind: None,
                body: Err(ServeError::ShuttingDown),
            }
            .to_line();
            let _ = reader.get_mut().write_all(line.as_bytes());
            return;
        }
        match read_frame(&mut reader, &mut buf, shared.max_request_bytes) {
            FrameRead::Frame => {
                idle = Duration::ZERO;
                let reply = match std::str::from_utf8(&buf) {
                    Ok(text) => {
                        let text = text.trim();
                        if text.is_empty() {
                            buf.clear();
                            continue;
                        }
                        // The request registers this socket while it
                        // computes, so the connection watcher can cancel
                        // it once the client is gone.
                        shared
                            .service
                            .handle_line_with_probe(text, reader.get_ref().probe_fd())
                    }
                    Err(_) => Response {
                        id: None,
                        kind: None,
                        body: Err(ServeError::BadRequest(
                            "request frame is not valid UTF-8".into(),
                        )),
                    }
                    .to_line(),
                };
                buf.clear();
                if reader.get_mut().write_all(reply.as_bytes()).is_err()
                    || reader.get_mut().flush().is_err()
                {
                    return;
                }
            }
            FrameRead::TooLarge => {
                let line = Response {
                    id: None,
                    kind: None,
                    body: Err(ServeError::TooLarge {
                        limit: shared.max_request_bytes,
                    }),
                }
                .to_line();
                let _ = reader.get_mut().write_all(line.as_bytes());
                // The stream is mid-frame; resynchronising is not worth
                // it — close and let the client reconnect.
                return;
            }
            FrameRead::Eof => return,
            FrameRead::WouldBlock => {
                idle += POLL_INTERVAL;
                if !shared.idle_timeout.is_zero() && idle >= shared.idle_timeout {
                    return;
                }
            }
            FrameRead::Error => return,
        }
    }
}

enum FrameRead {
    /// A full newline-terminated frame is in the buffer.
    Frame,
    /// The frame exceeded the size limit.
    TooLarge,
    /// Clean end of stream (a final unterminated frame is promoted to
    /// `Frame` first if non-empty).
    Eof,
    /// Poll timeout expired with no new bytes.
    WouldBlock,
    /// Unrecoverable I/O error.
    Error,
}

/// Reads until `\n`, EOF, size limit, or poll timeout. Partial data is
/// kept in `buf` across `WouldBlock` returns so slow writers work.
fn read_frame<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>, limit: usize) -> FrameRead {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return FrameRead::WouldBlock;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return FrameRead::Error,
        };
        if available.is_empty() {
            if buf.is_empty() {
                return FrameRead::Eof;
            }
            // Final frame without a trailing newline.
            return FrameRead::Frame;
        }
        let (consume, done) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (available.len(), false),
        };
        if buf.len() + consume > limit {
            reader.consume(consume);
            buf.clear();
            return FrameRead::TooLarge;
        }
        buf.extend_from_slice(&available[..consume]);
        reader.consume(consume);
        if done {
            if buf.last() == Some(&b'\n') {
                buf.pop();
            }
            return FrameRead::Frame;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_frame_splits_on_newlines() {
        let mut reader = BufReader::new(Cursor::new(b"one\ntwo\n".to_vec()));
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut reader, &mut buf, 1024),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"one");
        buf.clear();
        assert!(matches!(
            read_frame(&mut reader, &mut buf, 1024),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"two");
        buf.clear();
        assert!(matches!(
            read_frame(&mut reader, &mut buf, 1024),
            FrameRead::Eof
        ));
    }

    #[test]
    fn read_frame_promotes_trailing_partial_to_frame() {
        let mut reader = BufReader::new(Cursor::new(b"tail".to_vec()));
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut reader, &mut buf, 1024),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"tail");
    }

    #[test]
    fn read_frame_enforces_the_size_limit() {
        let mut reader = BufReader::new(Cursor::new(vec![b'x'; 64]));
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut reader, &mut buf, 16),
            FrameRead::TooLarge
        ));
        assert!(buf.is_empty());
    }
}
