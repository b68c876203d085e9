//! Deterministic chunked fan-out executor.
//!
//! Both embarrassingly parallel workloads in this suite — Monte Carlo fault
//! injection over pattern blocks and δ(ε⃗) sweeps over grid points — reduce
//! to the same shape: *N independent chunks of work, each identified by its
//! index, whose results must be merged in index order*. [`ChunkExecutor`]
//! implements exactly that shape on `std::thread::scope` (no external
//! thread-pool dependency, per the workspace's offline dependency policy):
//!
//! * Work is handed out dynamically through an atomic cursor, so uneven
//!   chunk costs load-balance across workers.
//! * Every result is tagged with its chunk index and the merged `Vec` is
//!   reassembled in index order, so the output is **independent of thread
//!   count and scheduling** — callers that also make each chunk's *content*
//!   independent of scheduling (e.g. by drawing every random word from its
//!   position, as the tape Monte Carlo kernel does) get bit-identical
//!   results for any `threads` value.
//! * Workers can keep per-thread scratch state (simulator buffers) via
//!   [`ChunkExecutor::try_map_chunks_with_state`], amortizing allocations
//!   across all chunks a worker processes.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cancel::{CancelToken, Cancelled};

/// Number of hardware threads available to this process (at least 1).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed-width deterministic executor over indexed chunks.
///
/// # Examples
///
/// ```
/// use relogic_sim::exec::ChunkExecutor;
///
/// let exec = ChunkExecutor::new(4);
/// let squares = exec.map_chunks(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ChunkExecutor {
    threads: usize,
}

impl ChunkExecutor {
    /// Creates an executor running on `threads` worker threads;
    /// `0` auto-detects [`available_threads`].
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ChunkExecutor {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
        }
    }

    /// The resolved worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `work` over chunk indices `0..chunks`, returning results in
    /// index order regardless of which worker processed which chunk.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker thread.
    pub fn map_chunks<T, F>(&self, chunks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let never = CancelToken::new();
        match self.try_map_chunks_with_state(
            chunks,
            &never,
            "exec_chunk",
            || (),
            |(), i| Ok(work(i)),
        ) {
            Ok((out, _)) => out,
            Err(_) => unreachable!("a fresh token never fires"),
        }
    }

    /// Like [`ChunkExecutor::map_chunks`], under a [`CancelToken`] and with
    /// per-worker scratch state.
    ///
    /// Each worker thread first builds scratch state with `init` and
    /// reuses it for every chunk it processes — the hook the Monte Carlo
    /// engine uses to allocate its simulator buffers once per worker rather
    /// than once per chunk. The final scratch state of every worker that
    /// ran comes back alongside the results (in no particular order): the
    /// BDD-backed observability engine keeps a whole decision-diagram
    /// manager per worker and merges the managers' statistics after the
    /// fan-out.
    ///
    /// Workers poll `cancel` before claiming each chunk and stop claiming
    /// once it fires; a chunk's `work` may also notice cancellation itself
    /// mid-chunk and return `Err`. The call returns `Ok` **iff every chunk
    /// completed** — a token that fires after the last chunk was already
    /// claimed and finished does not retract the answer, so a run that
    /// completes under its deadline is bit-identical to an undeadlined run
    /// (the checks are read-only early-exits; no arithmetic changes).
    ///
    /// `site` labels the executor's own hand-out check in the returned
    /// [`Cancelled`]; an error returned by `work` (with its own, more
    /// precise site) takes precedence, lowest chunk index first.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before all chunks completed. No
    /// partial results escape.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker thread.
    pub fn try_map_chunks_with_state<S, T, I, F>(
        &self,
        chunks: usize,
        cancel: &CancelToken,
        site: &'static str,
        init: I,
        work: F,
    ) -> Result<(Vec<T>, Vec<S>), Cancelled>
    where
        T: Send,
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> Result<T, Cancelled> + Sync,
    {
        if self.threads <= 1 || chunks <= 1 {
            let mut scratch = init();
            let mut results = Vec::with_capacity(chunks);
            for i in 0..chunks {
                cancel.check(site)?;
                results.push(work(&mut scratch, i)?);
            }
            return Ok((results, vec![scratch]));
        }

        let workers = self.threads.min(chunks);
        let cursor = AtomicUsize::new(0);
        // Set once any worker sees a fired token or a work error; the other
        // workers stop claiming chunks at their next hand-out check.
        let aborted = AtomicBool::new(false);
        // First work-reported error, by lowest chunk index (deterministic
        // pick when several workers trip in the same window).
        let first_err: Mutex<Option<(usize, Cancelled)>> = Mutex::new(None);
        let (mut tagged, states): (Vec<(usize, T)>, Vec<S>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = init();
                        let mut produced = Vec::new();
                        loop {
                            if aborted.load(Ordering::Relaxed) || cancel.is_cancelled() {
                                aborted.store(true, Ordering::Relaxed);
                                break;
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= chunks {
                                break;
                            }
                            match work(&mut scratch, i) {
                                Ok(t) => produced.push((i, t)),
                                Err(e) => {
                                    aborted.store(true, Ordering::Relaxed);
                                    let mut slot = match first_err.lock() {
                                        Ok(g) => g,
                                        Err(poisoned) => poisoned.into_inner(),
                                    };
                                    if slot.is_none_or(|(j, _)| i < j) {
                                        *slot = Some((i, e));
                                    }
                                    break;
                                }
                            }
                        }
                        (produced, scratch)
                    })
                })
                .collect();
            let mut tagged = Vec::with_capacity(chunks);
            let mut states = Vec::with_capacity(workers);
            for h in handles {
                match h.join() {
                    Ok((produced, scratch)) => {
                        tagged.extend(produced);
                        states.push(scratch);
                    }
                    // Re-raise the worker's panic payload on the caller's
                    // thread instead of aborting with a generic message.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            (tagged, states)
        });
        // All chunks completed: the answer stands even if the token fired
        // while the last chunks were in flight (completed under the wire).
        if tagged.len() == chunks {
            tagged.sort_unstable_by_key(|&(i, _)| i);
            return Ok((tagged.into_iter().map(|(_, t)| t).collect(), states));
        }
        let work_err = match first_err.lock() {
            Ok(g) => *g,
            Err(poisoned) => *poisoned.into_inner(),
        };
        Err(match work_err {
            Some((_, e)) => e,
            None => Cancelled {
                after: cancel.elapsed(),
                checked_at: site,
            },
        })
    }
}

/// Why a submission was rejected.
///
/// Returned by [`PoolSubmitter::submit`]. In every rejection case the job
/// is **dropped unexecuted** — its destructor runs on the submitting
/// thread, which callers can exploit to attach cleanup (e.g.
/// `relogic-serve` answers a rejected connection with an `overloaded`
/// farewell from the job's drop guard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitRejection {
    /// The pool has begun shutting down; it will never accept the job.
    Closed,
    /// The queue stayed at capacity for the allowed wait; the pool is
    /// overloaded or wedged.
    Full,
}

impl std::fmt::Display for SubmitRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRejection::Closed => write!(f, "worker pool is shutting down; job rejected"),
            SubmitRejection::Full => write!(f, "worker pool queue is full; job rejected"),
        }
    }
}

impl std::error::Error for SubmitRejection {}

/// A boxed job as consumed by [`WorkerPool`] workers.
pub type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: VecDeque<Job>,
    open: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    #[cfg(any(test, feature = "chaos"))]
    chaos: std::sync::OnceLock<Arc<crate::chaos::Chaos>>,
}

impl PoolShared {
    /// Locks the pool state, recovering from a poisoned mutex (a panicking
    /// job must not wedge every other connection).
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Enqueues `job`, waiting for queue space until `deadline`. On `Err`
    /// the job has been dropped (running its destructor on the calling
    /// thread).
    fn push(&self, job: Job, deadline: Instant) -> Result<(), SubmitRejection> {
        let mut state = self.lock();
        loop {
            if !state.open {
                return Err(SubmitRejection::Closed);
            }
            if state.queue.len() < self.capacity {
                state.queue.push_back(job);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SubmitRejection::Full);
            }
            state = match self.not_full.wait_timeout(state, deadline - now) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// A long-lived pool of worker threads consuming a **bounded** job queue.
///
/// [`ChunkExecutor`] covers the *batch* shape (N indexed chunks, merged in
/// order, workers die at the end); `WorkerPool` covers the *service* shape
/// layered above it: jobs arrive continuously (one per client connection in
/// `relogic-serve`), each job may itself fan out through a `ChunkExecutor`,
/// and the pool outlives every job. The queue bound is the backpressure
/// mechanism — [`PoolSubmitter::submit`] waits (up to its timeout) while
/// the queue is full, so an accept loop naturally stops pulling work off
/// the listener when the workers are saturated.
///
/// # Examples
///
/// ```
/// use relogic_sim::exec::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let pool = WorkerPool::new(2, 8);
/// let submitter = pool.submitter();
/// let done = Arc::new(AtomicUsize::new(0));
/// for _ in 0..5 {
///     let done = Arc::clone(&done);
///     let job = Box::new(move || {
///         done.fetch_add(1, Ordering::SeqCst);
///     });
///     submitter.submit(job, Duration::from_secs(60)).unwrap();
/// }
/// pool.shutdown(); // drains the queue, then joins the workers
/// assert_eq!(done.load(Ordering::SeqCst), 5);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (`0` auto-detects
    /// [`available_threads`]) and a job queue bounded at `queue_capacity`
    /// pending jobs (at least 1).
    #[must_use]
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        let threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: queue_capacity.max(1),
            #[cfg(any(test, feature = "chaos"))]
            chaos: std::sync::OnceLock::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// The number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (not yet picked up by a worker).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Installs a fault injector: every job the pool subsequently runs is
    /// preceded by [`crate::chaos::Chaos::pool_job_hook`] (a possible
    /// latency spike and/or injected panic, confined by the pool's per-job
    /// `catch_unwind`). The first installation wins; later calls are
    /// ignored.
    #[cfg(any(test, feature = "chaos"))]
    pub fn install_chaos(&self, chaos: Arc<crate::chaos::Chaos>) {
        let _ = self.shared.chaos.set(chaos);
    }

    /// A cloneable submit handle that can outlive borrows of the pool
    /// (e.g. held by accept threads while the owner retains the pool for
    /// shutdown). Every job enters the pool through
    /// [`PoolSubmitter::submit`].
    #[must_use]
    pub fn submitter(&self) -> PoolSubmitter {
        PoolSubmitter {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drains and joins the pool: no new jobs are accepted, every job
    /// already queued still runs, and the call returns once all workers
    /// have exited. A worker that panicked is ignored (its panic was
    /// confined to its own job).
    pub fn shutdown(self) {
        {
            let mut state = self.shared.lock();
            state.open = false;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// A detached, cloneable handle for submitting jobs to a [`WorkerPool`].
#[derive(Clone)]
pub struct PoolSubmitter {
    shared: Arc<PoolShared>,
}

impl PoolSubmitter {
    /// Enqueues a job, waiting at most `timeout` for queue space
    /// (backpressure with bounded patience: a stuck pool can never wedge
    /// the caller). `Duration::ZERO` rejects at once when the queue is
    /// full.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection::Full`] if no space freed up within `timeout`, or
    /// [`SubmitRejection::Closed`] if shutdown has begun. Either way the
    /// job is dropped unexecuted (its destructor runs here).
    pub fn submit(&self, job: Job, timeout: Duration) -> Result<(), SubmitRejection> {
        self.shared.push(job, Instant::now() + timeout)
    }

    /// Jobs currently queued (not yet picked up by a worker).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut state = shared.lock();
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            shared.not_full.notify_one();
            // A panicking job must not kill the worker: the pool serves
            // many independent clients and its width is part of the
            // service's capacity contract. An installed fault injector runs
            // inside the same boundary so injected panics stay confined.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(any(test, feature = "chaos"))]
                if let Some(chaos) = shared.chaos.get() {
                    chaos.pool_job_hook();
                }
                job();
            }));
            state = shared.lock();
        } else if state.open {
            state = match shared.not_empty.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let exec = ChunkExecutor::new(threads);
            let out = exec.map_chunks(37, |i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_auto_detects() {
        let exec = ChunkExecutor::new(0);
        assert!(exec.threads() >= 1);
        assert_eq!(exec.map_chunks(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_chunk_count_yields_empty_result() {
        let exec = ChunkExecutor::new(4);
        assert_eq!(exec.map_chunks(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn scratch_state_is_reused_within_a_worker() {
        let exec = ChunkExecutor::new(2);
        // Each worker counts how many chunks it has processed in its own
        // scratch; the per-chunk snapshots must therefore be positive and
        // their per-worker maxima must sum to the chunk count.
        let (counts, _) = exec
            .try_map_chunks_with_state(
                24,
                &CancelToken::new(),
                "site",
                || 0usize,
                |seen, _i| {
                    *seen += 1;
                    Ok(*seen)
                },
            )
            .unwrap();
        assert_eq!(counts.len(), 24);
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn final_worker_states_cover_every_chunk() {
        for threads in [1, 2, 5] {
            let exec = ChunkExecutor::new(threads);
            let (results, states) = exec
                .try_map_chunks_with_state(
                    20,
                    &CancelToken::new(),
                    "site",
                    || 0usize,
                    |seen: &mut usize, i| {
                        *seen += 1;
                        Ok(i * 2)
                    },
                )
                .unwrap();
            assert_eq!(results, (0..20).map(|i| i * 2).collect::<Vec<_>>());
            assert!(!states.is_empty() && states.len() <= threads.max(1));
            assert_eq!(states.iter().sum::<usize>(), 20, "threads={threads}");
        }
    }

    #[test]
    fn oversubscription_is_harmless() {
        let exec = ChunkExecutor::new(16);
        let out = exec.map_chunks(4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pre_fired_token_yields_cancelled_before_any_chunk_runs() {
        for threads in [1, 4] {
            let exec = ChunkExecutor::new(threads);
            let token = CancelToken::new();
            token.cancel();
            let ran = AtomicUsize::new(0);
            let err = exec
                .try_map_chunks_with_state(
                    16,
                    &token,
                    "test_site",
                    || (),
                    |(), i| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        Ok(i)
                    },
                )
                .unwrap_err();
            assert_eq!(err.checked_at, "test_site");
            assert_eq!(ran.load(Ordering::SeqCst), 0, "threads={threads}");
        }
    }

    #[test]
    fn mid_run_cancel_stops_hand_out_and_returns_no_partial_result() {
        for threads in [1, 4] {
            let exec = ChunkExecutor::new(threads);
            let token = CancelToken::new();
            let fire_at = 5usize;
            let res = exec.try_map_chunks_with_state(
                64,
                &token,
                "hand_out",
                || (),
                |(), i| {
                    if i == fire_at {
                        token.cancel();
                        return Err(Cancelled {
                            after: token.elapsed(),
                            checked_at: "work_inner",
                        });
                    }
                    Ok(i)
                },
            );
            let err = res.unwrap_err();
            assert!(
                err.checked_at == "work_inner" || err.checked_at == "hand_out",
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn completed_run_under_token_is_bit_identical_to_uncancelled_run() {
        for threads in [1, 2, 8] {
            let exec = ChunkExecutor::new(threads);
            let plain = exec.map_chunks(33, |i| i * 7 + 1);
            let token = CancelToken::with_deadline(Duration::from_secs(3600));
            let (under_token, _) = exec
                .try_map_chunks_with_state(33, &token, "site", || (), |(), i| Ok(i * 7 + 1))
                .unwrap();
            assert_eq!(plain, under_token, "threads={threads}");
        }
    }

    /// A timeout no test run reaches: submission blocks for queue space.
    const FOREVER: Duration = Duration::from_secs(3600);

    fn submit(
        pool: &WorkerPool,
        job: impl FnOnce() + Send + 'static,
        timeout: Duration,
    ) -> Result<(), SubmitRejection> {
        pool.submitter().submit(Box::new(job), timeout)
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(3, 4);
        assert_eq!(pool.threads(), 3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            submit(
                &pool,
                move || {
                    done.fetch_add(1, Ordering::SeqCst);
                },
                FOREVER,
            )
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn worker_pool_rejects_jobs_after_shutdown_started() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(1, 1);
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            submit(
                &pool,
                move || {
                    done.fetch_add(1, Ordering::SeqCst);
                },
                FOREVER,
            )
            .unwrap();
        }
        // Flip the pool closed from another handle before submitting more.
        let shared = Arc::clone(&pool.shared);
        shared.lock().open = false;
        shared.not_empty.notify_all();
        assert_eq!(submit(&pool, || (), FOREVER), Err(SubmitRejection::Closed));
        pool.shutdown();
    }

    #[test]
    fn worker_pool_survives_a_panicking_job() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(1, 8);
        submit(&pool, || panic!("job panic must stay confined"), FOREVER).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            submit(
                &pool,
                move || {
                    done.fetch_add(1, Ordering::SeqCst);
                },
                FOREVER,
            )
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::SeqCst),
            1,
            "the worker must outlive a panicking job"
        );
    }

    #[test]
    fn worker_pool_zero_threads_auto_detects() {
        let pool = WorkerPool::new(0, 1);
        assert!(pool.threads() >= 1);
        pool.shutdown();
    }

    /// A pool whose single worker is parked on a barrier-like gate, so the
    /// queue can be filled deterministically.
    fn wedged_pool(capacity: usize) -> (WorkerPool, Arc<(Mutex<bool>, Condvar)>) {
        let pool = WorkerPool::new(1, capacity);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            submit(
                &pool,
                move || {
                    let (lock, cv) = &*gate;
                    let mut released = lock.lock().unwrap();
                    while !*released {
                        released = cv.wait(released).unwrap();
                    }
                },
                FOREVER,
            )
            .unwrap();
        }
        // Wait until the worker has actually picked the gate job up, so the
        // queue length is exactly what the tests subsequently submit.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        (pool, gate)
    }

    fn release(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn zero_timeout_submit_rejects_when_full_and_runs_rejected_jobs_destructor() {
        let (pool, gate) = wedged_pool(1);
        submit(&pool, || (), Duration::ZERO).unwrap(); // fills the queue
        struct DropFlag(Arc<AtomicUsize>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let flag = DropFlag(Arc::clone(&dropped));
        let rejected = submit(
            &pool,
            move || {
                let _keep = &flag;
            },
            Duration::ZERO,
        );
        assert_eq!(rejected, Err(SubmitRejection::Full));
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            1,
            "rejected job must be dropped on the submitting thread"
        );
        release(&gate);
        pool.shutdown();
    }

    #[test]
    fn submit_times_out_on_a_wedged_pool_then_succeeds_after_release() {
        let (pool, gate) = wedged_pool(1);
        submit(&pool, || (), Duration::ZERO).unwrap();
        let t0 = Instant::now();
        let rejected = submit(&pool, || (), Duration::from_millis(50));
        assert_eq!(rejected, Err(SubmitRejection::Full));
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "must actually wait out the timeout"
        );
        release(&gate);
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            submit(
                &pool,
                move || {
                    done.fetch_add(1, Ordering::SeqCst);
                },
                Duration::from_secs(10),
            )
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn submit_reports_closed_after_shutdown_started() {
        let pool = WorkerPool::new(1, 2);
        let submitter = pool.submitter();
        pool.shared.lock().open = false;
        pool.shared.not_empty.notify_all();
        assert_eq!(
            submit(&pool, || (), Duration::ZERO),
            Err(SubmitRejection::Closed)
        );
        assert_eq!(
            submit(&pool, || (), Duration::from_millis(10)),
            Err(SubmitRejection::Closed)
        );
        assert_eq!(
            submitter.submit(Box::new(|| ()), FOREVER),
            Err(SubmitRejection::Closed)
        );
        assert_eq!(submitter.queued(), 0);
        pool.shutdown();
    }

    #[test]
    fn pool_chaos_hook_panics_are_confined_and_counted() {
        use crate::chaos::{Chaos, ChaosConfig, ChaosSite, SitePolicy};
        let pool = WorkerPool::new(1, 8);
        let chaos = Chaos::new(
            ChaosConfig::quiet(7).site(ChaosSite::PoolPanic, SitePolicy::limited(1.0, 2)),
        );
        pool.install_chaos(Arc::clone(&chaos));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let done = Arc::clone(&done);
            submit(
                &pool,
                move || {
                    done.fetch_add(1, Ordering::SeqCst);
                },
                FOREVER,
            )
            .unwrap();
        }
        pool.shutdown();
        // The first two jobs were replaced by injected panics; the worker
        // survived and ran the remaining three.
        assert_eq!(chaos.fired(ChaosSite::PoolPanic), 2);
        assert_eq!(done.load(Ordering::SeqCst), 3);
    }
}
