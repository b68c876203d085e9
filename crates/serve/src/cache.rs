//! Content-addressed compiled-circuit artifact cache.
//!
//! The paper's economics are "pay once, query many": weight vectors and
//! signal probabilities (and the §3 observability matrix) depend only on
//! circuit structure, never on ε⃗, so a long-lived service should compute
//! them once per distinct netlist and amortize them across every
//! subsequent request (§4, Table 2). This cache implements that
//! amortization:
//!
//! * **Keying** — an artifact is addressed by a 128-bit content hash (two
//!   independent 64-bit FNV-1a streams) over the netlist text, its format
//!   tag, and the backend descriptor. Identical text ⇒ same artifact; one
//!   mutated byte ⇒ a different key. No canonicalization is attempted —
//!   whitespace-different netlists compile twice, which is the cheap and
//!   predictable trade.
//! * **Laziness** — parsing happens on first use of a netlist; weight
//!   vectors and the observability matrix are materialized on the first
//!   request that needs them (a Monte Carlo-only client never pays for
//!   BDDs). Each fallible slot is a `LazySlot`: single-flight like a
//!   `OnceLock` (concurrent requests block on one computation instead of
//!   racing duplicates), but a **cancelled** or **budget-tripped**
//!   materialization releases the slot instead of freezing the error — the
//!   next request recomputes, so one client's deadline or node budget can
//!   never poison the artifact for everyone else. Backend failures stay
//!   sticky.
//! * **Eviction** — least-recently-used, under a configurable byte budget.
//!   Entry sizes are charged up front from circuit structure
//!   ([`Weights::projected_heap_bytes`] plus netlist text and projected
//!   observability payload), so lazy materialization never overdrafts the
//!   budget. An artifact larger than the whole budget is served but not
//!   cached.
//!
//! Evicting an entry another thread is still using is safe: entries hand
//! out `Arc<Artifact>` clones, so memory is reclaimed when the last
//! in-flight request drops its reference.

use crate::proto::{BackendSpec, CircuitPayload, NetlistFormat, ServeError};
use relogic::{
    CancelToken, Diagnostics, InputDistribution, ObservabilityMatrix, RelogicError, Weights,
};
use relogic_estimate::PropagationEstimate;
use relogic_netlist::structure::CircuitStats;
use relogic_netlist::Circuit;
use relogic_sim::CircuitTape;
use relogic_store::{ArtifactMeta, Loaded, Store, StoreCountersSnapshot, StoreError, StoreKey};
use std::collections::{HashMap, HashSet};
use std::io::ErrorKind;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// How often a request waiting on another request's slot build re-checks
/// its own cancel token.
const SLOT_WAIT_POLL: Duration = Duration::from_millis(10);

/// The 128-bit content address of an artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArtifactKey(StoreKey);

impl ArtifactKey {
    /// Hashes a circuit payload (netlist text + format + backend).
    ///
    /// Delegates to [`StoreKey::digest`], so the in-memory cache and the
    /// on-disk store can never disagree about a circuit's address.
    #[must_use]
    pub fn of(payload: &CircuitPayload) -> ArtifactKey {
        ArtifactKey(StoreKey::digest(
            payload.format.tag(),
            &payload.backend.cache_tag(),
            &payload.netlist,
        ))
    }

    /// The key this version gives the payload a stored provenance record
    /// describes, or `None` when the record names a format or backend tag
    /// this version never produces. A stored key that differs from this
    /// is one no request can reach.
    #[must_use]
    pub fn of_meta(meta: &ArtifactMeta) -> Option<ArtifactKey> {
        let format = NetlistFormat::from_tag(&meta.format_tag)?;
        let backend = BackendSpec::from_cache_tag(&meta.backend_tag)?;
        Some(ArtifactKey(StoreKey::digest(
            format.tag(),
            &backend.cache_tag(),
            &meta.netlist,
        )))
    }

    /// The equivalent on-disk store key.
    #[must_use]
    pub fn store_key(self) -> StoreKey {
        self.0
    }
}

/// The persistent tier behind the in-memory cache: a `relogic-store`
/// directory plus the serve-side degradation policy.
///
/// Every operation is best-effort. A read that misses, quarantines, or
/// errors simply falls back to recompute; a write that fails loses
/// durability, not correctness. When the directory itself is unusable —
/// missing, unwritable, or out of space — the tier **degrades**: one loud
/// stderr line, `cache_dir: "degraded"` in stats/health, and no further
/// disk I/O until restart. Transient error kinds (including every
/// chaos-injected fault) never degrade the tier.
#[derive(Debug)]
pub struct DiskTier {
    store: Option<Store>,
    degraded: AtomicBool,
}

impl DiskTier {
    /// Opens (creating if needed) the store directory. Never fails: an
    /// unusable directory yields a tier that starts degraded.
    #[must_use]
    pub fn open(dir: &Path) -> DiskTier {
        match Store::open(dir) {
            Ok(store) => DiskTier {
                store: Some(store),
                degraded: AtomicBool::new(false),
            },
            Err(err) => {
                eprintln!(
                    "relogic: cache dir unusable, persistence DEGRADED \
                     (serving from memory only): {err}"
                );
                DiskTier {
                    store: None,
                    degraded: AtomicBool::new(true),
                }
            }
        }
    }

    /// Attaches a fault injector to the underlying store (disk sites).
    #[cfg(feature = "chaos")]
    pub fn set_chaos(&mut self, chaos: Arc<relogic_sim::chaos::Chaos>) {
        if let Some(store) = &mut self.store {
            store.set_chaos(chaos);
        }
    }

    /// `true` once the tier has stopped doing disk I/O.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Store counters (hits/misses/quarantined/writes); zeros when
    /// degraded from the start.
    #[must_use]
    pub fn counters(&self) -> StoreCountersSnapshot {
        self.store.as_ref().map(Store::counters).unwrap_or_default()
    }

    /// Live artifact bytes in the store directory (0 when degraded or
    /// unscannable).
    #[must_use]
    pub fn bytes_on_disk(&self) -> u64 {
        if self.is_degraded() {
            return 0;
        }
        self.store
            .as_ref()
            .and_then(|s| s.bytes_on_disk().ok())
            .unwrap_or(0)
    }

    fn active(&self) -> Option<&Store> {
        if self.is_degraded() {
            None
        } else {
            self.store.as_ref()
        }
    }

    /// Applies the degradation policy to a store failure: persistent
    /// error kinds switch the tier off (loudly, once); transient kinds —
    /// including every chaos-injected fault — are tolerated silently.
    fn note(&self, err: &StoreError) {
        let persistent = matches!(
            err.kind(),
            ErrorKind::PermissionDenied
                | ErrorKind::StorageFull
                | ErrorKind::NotFound
                | ErrorKind::NotADirectory
                | ErrorKind::ReadOnlyFilesystem
        );
        if persistent && !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "relogic: cache dir unusable, persistence DEGRADED \
                 (serving from memory only): {err}"
            );
        }
    }

    /// Reads one artifact through the tier: `Ok` on a verified hit,
    /// otherwise the [`Origin`] the recomputed value will carry.
    fn load<T>(
        &self,
        read: impl FnOnce(&Store) -> Result<Loaded<T>, StoreError>,
    ) -> Result<T, Origin> {
        let Some(store) = self.active() else {
            return Err(Origin::Computed);
        };
        match read(store) {
            Ok(Loaded::Hit(value)) => Ok(value),
            Ok(Loaded::Miss) => Err(Origin::DiskMiss),
            Ok(Loaded::Quarantined(reason)) => Err(Origin::Quarantined(reason.to_string())),
            Err(e) => {
                self.note(&e);
                Err(Origin::ReadFailed(e.to_string()))
            }
        }
    }

    /// Writes one artifact through the tier (best-effort).
    fn save(&self, write: impl FnOnce(&Store) -> Result<(), StoreError>) {
        if let Some(store) = self.active() {
            if let Err(e) = write(store) {
                self.note(&e);
            }
        }
    }

    fn save_meta(&self, key: StoreKey, meta: &ArtifactMeta) {
        // Skip rewriting provenance the store already has: meta is tiny
        // but every serve hit would otherwise pay a disk write.
        if let Some(store) = self.active() {
            if matches!(store.load_meta(key), Ok(Loaded::Hit(_))) {
                return;
            }
        }
        self.save(|store| store.save_meta(key, meta));
    }
}

/// Where a materialized artifact slot's value came from, recorded once
/// per slot (the CLI's `--diagnostics` provenance lines read it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Computed in memory: no usable persistent tier, or a kind the tier
    /// never stores.
    Computed,
    /// Read back from the persistent tier, verified bit-exact.
    DiskHit,
    /// Absent from the persistent tier: computed and written through.
    DiskMiss,
    /// The on-disk copy failed verification and was quarantined; the
    /// value was recomputed and written through.
    Quarantined(String),
    /// Reading the on-disk copy failed; the value was recomputed.
    ReadFailed(String),
}

/// A lazily materialized, single-flight artifact slot that **never caches
/// a cancellation or a budget trip**.
///
/// `OnceLock<Result<…>>` slots have one failure mode under deadlines: a
/// request whose token fires mid-materialization would freeze its
/// `Cancelled` error into the slot, poisoning the artifact for every
/// later request. This slot keeps the same single-flight economics (one
/// builder, waiters block) with three outcomes:
///
/// * success — the value (and its [`Origin`]) is frozen in a `OnceLock`;
/// * backend failure — cached so a doomed compute is not re-run per
///   request;
/// * cancellation or a live-node budget trip — properties of the
///   *request*, not the artifact: the slot **resets to empty** and waiters
///   are woken; the next request recomputes from scratch.
#[derive(Debug)]
struct LazySlot<T> {
    /// The materialized value; written once, by the builder that completes.
    value: OnceLock<(T, Origin)>,
    state: Mutex<SlotState>,
    /// Signalled whenever a builder finishes (any outcome).
    done: Condvar,
}

// Derived `Default` would demand `T: Default`; an empty slot needs no
// value at all.
impl<T> Default for LazySlot<T> {
    fn default() -> Self {
        LazySlot {
            value: OnceLock::new(),
            state: Mutex::new(SlotState::default()),
            done: Condvar::new(),
        }
    }
}

#[derive(Debug, Default)]
struct SlotState {
    /// A builder is running right now; waiters block on `done`.
    building: bool,
    /// Sticky backend failure.
    failed: Option<RelogicError>,
}

/// Clears `building` and wakes waiters on every builder exit — success,
/// typed failure, cancellation, or panic — so a waiter can never block on
/// a builder that is gone.
struct BuildGuard<'a> {
    state: &'a Mutex<SlotState>,
    done: &'a Condvar,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        let mut state = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.building = false;
        drop(state);
        self.done.notify_all();
    }
}

impl<T> LazySlot<T> {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The value if it is already materialized; never builds.
    fn peek(&self) -> Option<&T> {
        self.value.get().map(|(v, _)| v)
    }

    /// Where the materialized value came from; `None` while empty.
    fn origin(&self) -> Option<&Origin> {
        self.value.get().map(|(_, origin)| origin)
    }

    /// Returns the materialized value, building it if this call is first.
    /// Concurrent callers block until the builder finishes or their own
    /// `cancel` fires (checked as `site` before building and every
    /// [`SLOT_WAIT_POLL`] while waiting); a cancelled or budget-tripped
    /// build leaves the slot empty so the next caller rebuilds.
    fn get_or_build(
        &self,
        cancel: &CancelToken,
        site: &'static str,
        build: impl FnOnce() -> Result<(T, Origin), RelogicError>,
    ) -> Result<&T, RelogicError> {
        if let Some(v) = self.peek() {
            return Ok(v);
        }
        let mut state = self.lock();
        loop {
            if let Some(v) = self.peek() {
                return Ok(v);
            }
            if let Some(e) = &state.failed {
                return Err(e.clone());
            }
            cancel.check(site)?;
            if !state.building {
                break;
            }
            state = match self.done.wait_timeout(state, SLOT_WAIT_POLL) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        state.building = true;
        drop(state);
        let guard = BuildGuard {
            state: &self.state,
            done: &self.done,
        };
        match build() {
            Ok(v) => {
                let _ = self.value.set(v);
                drop(guard);
                match self.peek() {
                    Some(v) => Ok(v),
                    None => unreachable!("the sole builder just set the value"),
                }
            }
            Err(e) => {
                // A cancellation or a budget trip is the caller's limit,
                // not the artifact's fault: leave the slot empty for the
                // next request. Anything else is cached.
                if !matches!(
                    e,
                    RelogicError::Cancelled(_) | RelogicError::BddBudgetExceeded { .. }
                ) {
                    self.lock().failed = Some(e.clone());
                }
                drop(guard);
                Err(e)
            }
        }
    }
}

/// A compiled circuit: the parsed netlist plus lazily materialized,
/// ε-independent analysis state (weight vectors, observability matrix,
/// instruction tape, propagation estimate).
///
/// The daemon's cache and the one-shot CLI commands both read artifacts
/// through these accessors, so persistence and the exact-tier rule (see
/// [`crate::api::run`]) behave the same on both surfaces.
#[derive(Debug)]
pub struct Artifact {
    circuit: Circuit,
    stats: CircuitStats,
    backend: BackendSpec,
    key: ArtifactKey,
    /// The persistent tier, when the service runs with `--cache-dir`.
    /// Read-through and write-through happen inside the slot builders
    /// below, so disk I/O inherits their single-flight semantics for
    /// free.
    disk: Option<Arc<DiskTier>>,
    weights: LazySlot<Weights>,
    observability: LazySlot<ObservabilityMatrix>,
    tape: OnceLock<CircuitTape>,
    estimate: LazySlot<PropagationEstimate>,
}

impl Artifact {
    /// Wraps a circuit already parsed from `payload`, as the CLI's one-shot
    /// commands hold it. With a persistent tier, the payload's provenance
    /// is written through on first sight.
    #[must_use]
    pub fn new(
        payload: &CircuitPayload,
        circuit: Circuit,
        disk: Option<Arc<DiskTier>>,
    ) -> Artifact {
        Artifact::with_key(payload, ArtifactKey::of(payload), circuit, disk)
    }

    fn compile(
        payload: &CircuitPayload,
        key: ArtifactKey,
        disk: Option<Arc<DiskTier>>,
    ) -> Result<Artifact, ServeError> {
        let circuit = payload
            .format
            .parse_netlist(&payload.netlist)
            .map_err(|e| ServeError::netlist(&e))?;
        Ok(Artifact::with_key(payload, key, circuit, disk))
    }

    fn with_key(
        payload: &CircuitPayload,
        key: ArtifactKey,
        circuit: Circuit,
        disk: Option<Arc<DiskTier>>,
    ) -> Artifact {
        if let Some(disk) = &disk {
            // `relogic cache warm`/`ls` need the provenance, and a warm
            // restart re-parses from it.
            disk.save_meta(
                key.store_key(),
                &ArtifactMeta {
                    format_tag: payload.format.tag().to_owned(),
                    backend_tag: payload.backend.cache_tag(),
                    netlist: payload.netlist.clone(),
                },
            );
        }
        Artifact {
            stats: CircuitStats::of(&circuit),
            circuit,
            backend: payload.backend,
            key,
            disk,
            weights: LazySlot::default(),
            observability: LazySlot::default(),
            tape: OnceLock::new(),
            estimate: LazySlot::default(),
        }
    }

    /// The parsed circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Structural statistics, computed once at compile time.
    #[must_use]
    pub fn stats(&self) -> &CircuitStats {
        &self.stats
    }

    /// The content address of this artifact (and of its store files).
    #[must_use]
    pub fn key(&self) -> ArtifactKey {
        self.key
    }

    /// Read-through, compute, write-through for one slot: a verified disk
    /// artifact is bit-identical to a recompute by the store's contract,
    /// so it short-circuits `compute`; misses, quarantines and I/O errors
    /// fall through to it. `computed` counts completed computes only.
    fn materialize<T, E>(
        &self,
        computed: &AtomicU64,
        load: fn(&Store, StoreKey) -> Result<Loaded<T>, StoreError>,
        save: fn(&Store, StoreKey, &T) -> Result<(), StoreError>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, Origin), E> {
        let key = self.key.store_key();
        let origin = match &self.disk {
            Some(disk) => match disk.load(|store| load(store, key)) {
                Ok(value) => return Ok((value, Origin::DiskHit)),
                Err(origin) => origin,
            },
            None => Origin::Computed,
        };
        let value = compute()?;
        computed.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            disk.save(|store| save(store, key, &value));
        }
        Ok((value, origin))
    }

    /// The ε-independent weight vectors, materialized on first use with
    /// `threads` sampling workers (`0` auto-detects; the weights are
    /// identical for every count), checking `cancel` before the backend
    /// runs and inside it (see
    /// [`Weights::try_compute_threads_cancellable`]). A cancelled
    /// materialization leaves the slot empty — the next request recomputes
    /// instead of observing a frozen `Cancelled`.
    /// `counters.weights_computed` increments only when this call actually
    /// runs the backend.
    ///
    /// # Errors
    ///
    /// Propagates the weight backend's [`RelogicError`] (also for callers
    /// arriving after a failed first materialization), plus the deadline
    /// error once the token has fired.
    pub fn weights(
        &self,
        counters: &CacheCounters,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<&Weights, ServeError> {
        let slot = self.weights.get_or_build(cancel, "weights_build", || {
            self.materialize(
                &counters.weights_computed,
                Store::load_weights,
                Store::save_weights,
                || {
                    Weights::try_compute_threads_cancellable(
                        &self.circuit,
                        &InputDistribution::Uniform,
                        self.backend.backend(),
                        threads,
                        cancel,
                    )
                },
            )
        });
        slot.map_err(ServeError::from)
    }

    /// The compiled instruction tape (see [`CircuitTape`]), compiled on
    /// first use and shared by every Monte Carlo request against this
    /// artifact. Compilation is infallible for parsed circuits, and
    /// faster than reading a tape back from disk, so the tape is never
    /// persisted. `counters.tapes_compiled` increments only when this
    /// call actually compiles.
    pub fn tape(&self, counters: &CacheCounters) -> &CircuitTape {
        self.tape.get_or_init(|| {
            counters.tapes_compiled.fetch_add(1, Ordering::Relaxed);
            CircuitTape::compile(&self.circuit)
        })
    }

    /// The §3 observability matrix, materialized on first use with
    /// `threads` BDD workers (`0` auto-detects; the matrix is identical
    /// for every count), threading `cancel` into the §3 engine
    /// (per-output-chunk and per-node checks; see `relogic`). A cancelled
    /// materialization leaves the slot empty, never poisoned: the next
    /// request recomputes.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`RelogicError`], plus the deadline error
    /// once the token has fired.
    pub fn observability(
        &self,
        counters: &CacheCounters,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<&ObservabilityMatrix, ServeError> {
        self.observability_within(counters, threads, None, cancel)
            .map_err(ServeError::from)
    }

    /// The observability slot, its BDD build bounded by a live-node
    /// `budget` when one is given. Whatever answers an unbudgeted request
    /// answers a budgeted one: a matrix in memory or verified on disk. A
    /// completed build fills the slot and is written through; a budget
    /// trip, like a cancellation, leaves the slot empty.
    pub(crate) fn observability_within(
        &self,
        counters: &CacheCounters,
        threads: usize,
        budget: Option<usize>,
        cancel: &CancelToken,
    ) -> Result<&ObservabilityMatrix, RelogicError> {
        self.observability.get_or_build(cancel, "obs_build", || {
            self.materialize(
                &counters.observability_computed,
                Store::load_observability,
                Store::save_observability,
                || {
                    let dist = &InputDistribution::Uniform;
                    let matrix = match (budget, self.backend) {
                        (Some(budget), BackendSpec::Bdd) => {
                            ObservabilityMatrix::try_compute_budgeted_cancellable(
                                &self.circuit,
                                dist,
                                threads,
                                budget,
                                cancel,
                            )
                        }
                        _ => ObservabilityMatrix::try_compute_threads_cancellable(
                            &self.circuit,
                            dist,
                            self.backend.backend(),
                            threads,
                            cancel,
                        ),
                    }?;
                    // Disk hits carry their persisted diagnostics, but the
                    // engine record counts only runs this process made.
                    if matrix.diagnostics().bdd_stats().is_some() {
                        counters.bdd_runs.fetch_add(1, Ordering::Relaxed);
                    }
                    counters.engine().merge(matrix.diagnostics());
                    Ok(matrix)
                },
            )
        })
    }

    /// The observability matrix **only if it is already materialized** —
    /// never triggers a compute.
    #[must_use]
    pub fn observability_if_ready(&self) -> Option<&ObservabilityMatrix> {
        self.observability.peek()
    }

    /// The propagation estimate (signal probabilities + per-output
    /// observability estimates), computed on first use, checking `cancel`
    /// before the estimator runs (the estimator itself is linear-time, so
    /// one up-front check is the right granularity, and computing it is
    /// faster than reading it back, so it is never persisted). A
    /// cancelled materialization leaves the slot empty.
    /// `counters.estimates_computed` increments only when this call
    /// actually runs the estimator.
    ///
    /// Returns the raw [`RelogicError`] (not a [`ServeError`]) because the
    /// caller is the escalation policy, which needs the typed error to
    /// decide whether to escalate; wrap with `ServeError::from` at the
    /// protocol boundary.
    ///
    /// # Errors
    ///
    /// Propagates the estimator's [`RelogicError`], plus
    /// [`RelogicError::Cancelled`] once the token has fired.
    pub fn propagation_estimate(
        &self,
        counters: &CacheCounters,
        cancel: &CancelToken,
    ) -> Result<&PropagationEstimate, RelogicError> {
        self.estimate.get_or_build(cancel, "estimate_build", || {
            let estimate =
                PropagationEstimate::try_compute(&self.circuit, &InputDistribution::Uniform)?;
            counters.estimates_computed.fetch_add(1, Ordering::Relaxed);
            Ok((estimate, Origin::Computed))
        })
    }

    /// Where each persisted slot materialized so far came from, in a
    /// fixed order (`weights`, `observability`).
    #[must_use]
    pub fn provenance(&self) -> Vec<(&'static str, &Origin)> {
        [
            ("weights", self.weights.origin()),
            ("observability", self.observability.origin()),
        ]
        .into_iter()
        .filter_map(|(slot, origin)| Some((slot, origin?)))
        .collect()
    }

    /// Up-front byte charge for this artifact: netlist-scale circuit
    /// storage plus the projected weight and observability payloads. A
    /// structural estimate (see module docs), deliberately charged before
    /// lazy materialization so the budget cannot be overdrafted later.
    #[must_use]
    pub fn charged_bytes(&self) -> usize {
        let nodes = self.circuit.len();
        let circuit_bytes = nodes * 96; // node, fanin, and name storage
        let weight_bytes = Weights::projected_heap_bytes(&self.circuit);
        let obs_bytes = ObservabilityMatrix::projected_heap_bytes(&self.circuit);
        let tape_bytes = CircuitTape::projected_heap_bytes(&self.circuit);
        // The estimate is a second matrix plus one signal probability per node.
        let estimate_bytes = obs_bytes + nodes * 8;
        circuit_bytes + weight_bytes + obs_bytes + tape_bytes + estimate_bytes
    }
}

/// Monotonic counters exposed through the `stats` request.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Requests served from an existing artifact.
    pub hits: AtomicU64,
    /// Requests that had to compile a new artifact.
    pub misses: AtomicU64,
    /// Artifacts evicted to respect the byte budget.
    pub evictions: AtomicU64,
    /// Netlists parsed (≤ misses; parse failures count here too).
    pub circuits_parsed: AtomicU64,
    /// Weight-vector tables actually computed (cache hits skip this).
    pub weights_computed: AtomicU64,
    /// Observability matrices actually computed.
    pub observability_computed: AtomicU64,
    /// Circuit tapes actually compiled (cache hits skip this).
    pub tapes_compiled: AtomicU64,
    /// Propagation estimates actually computed (cache hits skip this).
    pub estimates_computed: AtomicU64,
    /// Artifacts larger than the whole budget, served uncached.
    pub uncacheable: AtomicU64,
    /// BDD builds whose engine statistics reached the engine record: the
    /// observability matrices this process computed and the exact-tier
    /// budget trips (the `bdd_engine.runs` member of `stats`).
    pub bdd_runs: AtomicU64,
    /// The service-wide engine record: BDD engine statistics, estimator
    /// tiers and fallbacks, and cancellations, folded with
    /// [`Diagnostics::merge`]'s rules. Read it through
    /// [`CacheCounters::engine`].
    engine: Mutex<Diagnostics>,
}

impl CacheCounters {
    /// The service-wide engine record, locked. A poisoned lock is
    /// recovered: every update is one merge or one increment, so the
    /// record is whole after any panic. Hold the guard only to update or
    /// clone the record.
    pub fn engine(&self) -> MutexGuard<'_, Diagnostics> {
        match self.engine.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

struct Entry {
    artifact: Arc<Artifact>,
    bytes: usize,
    last_used: u64,
}

/// Releases a claimed in-flight compile key on drop and wakes waiters.
/// Dropped on every exit from the compile path (success, parse error,
/// uncacheable, or panic), so a waiter can never block forever.
struct PendingGuard<'a> {
    cache: &'a ArtifactCache,
    key: ArtifactKey,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.lock();
        inner.pending.remove(&self.key);
        drop(inner);
        self.cache.compile_done.notify_all();
    }
}

struct CacheInner {
    entries: HashMap<ArtifactKey, Entry>,
    /// Keys being compiled right now. A miss claims its key here before
    /// parsing (single-flight); concurrent lookups for the same key wait
    /// on [`ArtifactCache::compile_done`] instead of re-parsing.
    pending: HashSet<ArtifactKey>,
    total_bytes: usize,
    tick: u64,
}

/// The shared artifact cache: `get_or_compile` is the only lookup path.
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
    /// Signalled whenever a key leaves `CacheInner::pending`.
    compile_done: Condvar,
    budget_bytes: usize,
    counters: CacheCounters,
    /// The persistent tier (`--cache-dir`); `None` runs memory-only.
    disk: Option<Arc<DiskTier>>,
    #[cfg(feature = "chaos")]
    chaos: Option<Arc<relogic_sim::chaos::Chaos>>,
}

/// Whether a lookup was served from cache or had to compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Artifact already compiled.
    Hit,
    /// Artifact compiled by this lookup.
    Miss,
}

impl CacheOutcome {
    /// The wire tag (`"hit"` / `"miss"`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

impl ArtifactCache {
    /// Creates a cache with the given byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                pending: HashSet::new(),
                total_bytes: 0,
                tick: 0,
            }),
            compile_done: Condvar::new(),
            budget_bytes,
            counters: CacheCounters::default(),
            disk: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }

    /// Attaches a persistent tier. Artifacts compiled afterwards
    /// read-through on materialization miss and write-through on
    /// materialization; disk hits are charged into the same LRU budget as
    /// computed ones (the charge is projected up front either way).
    #[must_use]
    pub fn with_disk_tier(mut self, disk: Option<Arc<DiskTier>>) -> ArtifactCache {
        self.disk = disk;
        self
    }

    /// The persistent tier, when configured.
    #[must_use]
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.disk.as_ref()
    }

    /// Attaches a fault injector: every lookup first draws
    /// [`ChaosSite::CacheEvict`] (forced full eviction — churn) and
    /// [`ChaosSite::CacheFail`] (the lookup fails with a typed `internal`
    /// error, simulating a materialization failure). The failure is
    /// injected *before* any `OnceLock` is touched, so a retry of the same
    /// request can still succeed.
    ///
    /// [`ChaosSite::CacheEvict`]: relogic_sim::chaos::ChaosSite::CacheEvict
    /// [`ChaosSite::CacheFail`]: relogic_sim::chaos::ChaosSite::CacheFail
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn with_chaos(mut self, chaos: Arc<relogic_sim::chaos::Chaos>) -> ArtifactCache {
        self.chaos = Some(chaos);
        self
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The shared counters.
    #[must_use]
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Entries currently resident and the bytes charged for them.
    #[must_use]
    pub fn usage(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.entries.len(), inner.total_bytes)
    }

    /// Looks up (or compiles) the artifact for a payload.
    ///
    /// Compilation is single-flight: the first lookup to miss claims the
    /// key and parses outside the cache lock (a slow compile never stalls
    /// hits on *other* circuits); concurrent lookups for the same key wait
    /// for it and then share its artifact as a hit. A netlist is therefore
    /// parsed exactly once per residency no matter how many clients race
    /// the cold cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Netlist`] when the payload fails to parse. A parse
    /// failure releases the key, so waiting lookups retry (and report
    /// their own parse error) rather than observing a cached failure.
    pub fn get_or_compile(
        &self,
        payload: &CircuitPayload,
    ) -> Result<(Arc<Artifact>, CacheOutcome), ServeError> {
        #[cfg(feature = "chaos")]
        if let Some(chaos) = &self.chaos {
            use relogic_sim::chaos::ChaosSite;
            if chaos.should(ChaosSite::CacheEvict) {
                self.evict_all();
            }
            if chaos.should(ChaosSite::CacheFail) {
                return Err(ServeError::Internal(
                    "chaos: injected artifact materialization failure".into(),
                ));
            }
        }
        let key = ArtifactKey::of(payload);
        {
            let mut inner = self.lock();
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(entry) = inner.entries.get_mut(&key) {
                    entry.last_used = tick;
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(&entry.artifact), CacheOutcome::Hit));
                }
                if !inner.pending.contains(&key) {
                    break;
                }
                // Another thread is compiling this key; wait for it, then
                // re-check (the entry appears before the key is released).
                inner = match self.compile_done.wait(inner) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            inner.pending.insert(key);
        }
        // We own the compile for `key`. The guard releases it on every exit
        // path — including a parse panic — so waiters never hang.
        let pending = PendingGuard { cache: self, key };
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.counters
            .circuits_parsed
            .fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(Artifact::compile(payload, key, self.disk.clone())?);
        let bytes = artifact.charged_bytes();
        if bytes > self.budget_bytes {
            // Served uncached: the guard releases the key and waiters
            // compile for themselves, matching "never resident" semantics.
            self.counters.uncacheable.fetch_add(1, Ordering::Relaxed);
            return Ok((artifact, CacheOutcome::Miss));
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key,
            Entry {
                artifact: Arc::clone(&artifact),
                bytes,
                last_used: tick,
            },
        );
        inner.total_bytes += bytes;
        self.evict_over_budget(&mut inner, key);
        drop(inner);
        drop(pending);
        Ok((artifact, CacheOutcome::Miss))
    }

    /// Evicts least-recently-used entries (never `just_inserted`) until the
    /// budget is respected. Linear scan per eviction: entry counts are
    /// small (tens of circuits, not millions), so an ordered index would
    /// cost more than it saves.
    fn evict_over_budget(&self, inner: &mut CacheInner, just_inserted: ArtifactKey) {
        while inner.total_bytes > self.budget_bytes && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != just_inserted)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.entries.remove(&victim) {
                inner.total_bytes -= entry.bytes;
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops every resident artifact, counting each as an eviction. An
    /// operational hook (and the chaos engine's churn lever): in-flight
    /// requests holding `Arc<Artifact>` clones are unaffected; memory is
    /// reclaimed as they finish.
    pub fn evict_all(&self) {
        let mut inner = self.lock();
        let dropped = inner.entries.len() as u64;
        inner.entries.clear();
        inner.total_bytes = 0;
        if dropped > 0 {
            self.counters
                .evictions
                .fetch_add(dropped, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::NetlistFormat;

    fn payload(text: &str) -> CircuitPayload {
        CircuitPayload {
            netlist: text.to_owned(),
            format: NetlistFormat::Bench,
            backend: BackendSpec::Bdd,
        }
    }

    const SMALL: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOT(t)\n";

    #[test]
    fn second_lookup_hits_and_skips_weight_recomputation() {
        let cache = ArtifactCache::new(1 << 20);
        let (a1, o1) = cache.get_or_compile(&payload(SMALL)).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let w1 = a1
            .weights(cache.counters(), 0, &CancelToken::new())
            .unwrap()
            .signal_probs()
            .to_vec();
        let (a2, o2) = cache.get_or_compile(&payload(SMALL)).unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        let w2 = a2
            .weights(cache.counters(), 0, &CancelToken::new())
            .unwrap()
            .signal_probs()
            .to_vec();
        assert_eq!(w1, w2);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.counters().weights_computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mutated_netlist_misses() {
        let cache = ArtifactCache::new(1 << 20);
        let _ = cache.get_or_compile(&payload(SMALL)).unwrap();
        let mutated = SMALL.replace("NAND", "NOR");
        let (_, o) = cache.get_or_compile(&payload(&mutated)).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(cache.counters().misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn format_and_backend_partition_the_key_space() {
        let p = payload(SMALL);
        let mut q = p.clone();
        q.backend = BackendSpec::Sim {
            patterns: 64,
            seed: 1,
        };
        assert_ne!(ArtifactKey::of(&p), ArtifactKey::of(&q));
        let mut r = p.clone();
        r.format = NetlistFormat::Blif;
        assert_ne!(ArtifactKey::of(&p), ArtifactKey::of(&r));
    }

    #[test]
    fn parse_failures_are_typed() {
        let cache = ArtifactCache::new(1 << 20);
        let err = cache
            .get_or_compile(&payload("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"))
            .unwrap_err();
        assert_eq!(err.code(), "netlist_error");
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        // Budget sized to hold roughly one artifact.
        let one = {
            let cache = ArtifactCache::new(usize::MAX);
            let (a, _) = cache.get_or_compile(&payload(SMALL)).unwrap();
            a.charged_bytes()
        };
        let cache = ArtifactCache::new(one + one / 2);
        // Same circuit, four distinct texts (content addressing is exact).
        let texts: Vec<String> = (0..4).map(|i| format!("{SMALL}# v{i}\n")).collect();
        for t in &texts {
            let _ = cache.get_or_compile(&payload(t)).unwrap();
        }
        let (entries, bytes) = cache.usage();
        assert!(bytes <= cache.budget_bytes(), "{bytes} > budget");
        assert!(entries >= 1);
        assert!(cache.counters().evictions.load(Ordering::Relaxed) >= 2);
        // The most recent artifact must still be resident.
        let (_, o) = cache.get_or_compile(&payload(&texts[3])).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn oversized_artifacts_are_served_uncached() {
        let cache = ArtifactCache::new(1);
        let (_, o) = cache.get_or_compile(&payload(SMALL)).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        let (entries, _) = cache.usage();
        assert_eq!(entries, 0);
        assert_eq!(cache.counters().uncacheable.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn observability_charge_matches_materialized_footprint() {
        let cache = ArtifactCache::new(1 << 20);
        let (a, _) = cache.get_or_compile(&payload(SMALL)).unwrap();
        let obs = a
            .observability(cache.counters(), 0, &CancelToken::new())
            .unwrap();
        assert_eq!(
            ObservabilityMatrix::projected_heap_bytes(a.circuit()),
            obs.approx_heap_bytes(),
            "cache must charge exactly the projected observability footprint"
        );
    }

    #[test]
    fn evict_all_clears_residency_but_not_inflight_references() {
        let cache = ArtifactCache::new(1 << 20);
        let (held, _) = cache.get_or_compile(&payload(SMALL)).unwrap();
        let _ = cache
            .get_or_compile(&payload(&SMALL.replace("NOT", "BUF")))
            .unwrap();
        let (entries, bytes) = cache.usage();
        assert_eq!(entries, 2);
        assert!(bytes > 0);
        cache.evict_all();
        let (entries, bytes) = cache.usage();
        assert_eq!((entries, bytes), (0, 0));
        assert_eq!(cache.counters().evictions.load(Ordering::Relaxed), 2);
        // The held artifact keeps working after eviction.
        assert!(held
            .weights(cache.counters(), 0, &CancelToken::new())
            .is_ok());
        // And the next lookup recompiles.
        let (_, o) = cache.get_or_compile(&payload(SMALL)).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn propagation_estimate_is_lazy_and_peek_never_computes() {
        let cache = ArtifactCache::new(1 << 20);
        let (a, _) = cache.get_or_compile(&payload(SMALL)).unwrap();
        // The peek must not trigger a compute.
        assert!(a.observability_if_ready().is_none());
        assert_eq!(
            cache
                .counters()
                .observability_computed
                .load(Ordering::Relaxed),
            0
        );
        let _ = a
            .propagation_estimate(cache.counters(), &CancelToken::new())
            .unwrap();
        let _ = a
            .propagation_estimate(cache.counters(), &CancelToken::new())
            .unwrap();
        assert_eq!(
            cache.counters().estimates_computed.load(Ordering::Relaxed),
            1
        );
        let _ = a
            .observability(cache.counters(), 0, &CancelToken::new())
            .unwrap();
        assert!(a.observability_if_ready().is_some());
    }

    #[test]
    fn cancelled_materialization_does_not_poison_the_slot() {
        // Request A's deadline fires mid-materialization; request B on the
        // same artifact must recompute and succeed instead of observing a
        // frozen `Cancelled`.
        let cache = ArtifactCache::new(1 << 20);
        let (a, _) = cache.get_or_compile(&payload(SMALL)).unwrap();
        let fired = CancelToken::new();
        fired.cancel();

        let err = a.observability(cache.counters(), 0, &fired).unwrap_err();
        assert_eq!(err.code(), "deadline_exceeded", "{err}");
        assert!(a.observability_if_ready().is_none(), "slot must stay empty");
        assert!(a
            .observability(cache.counters(), 0, &CancelToken::new())
            .is_ok());
        assert!(a.observability_if_ready().is_some());

        let err = a.weights(cache.counters(), 0, &fired).unwrap_err();
        assert_eq!(err.code(), "deadline_exceeded", "{err}");
        assert!(a.weights(cache.counters(), 0, &CancelToken::new()).is_ok());

        let err = a
            .propagation_estimate(cache.counters(), &fired)
            .unwrap_err();
        assert!(matches!(err, RelogicError::Cancelled(_)), "{err}");
        assert!(a
            .propagation_estimate(cache.counters(), &CancelToken::new())
            .is_ok());
    }

    #[test]
    fn waiters_on_a_cancelled_builder_recompute_instead_of_hanging() {
        // A holds the slot's build with a fired token while B waits; when
        // A unwinds with `Cancelled`, B must take over and succeed.
        let cache = Arc::new(ArtifactCache::new(1 << 20));
        let (a, _) = cache.get_or_compile(&payload(SMALL)).unwrap();
        let artifact = Arc::clone(&a);
        let cache2 = Arc::clone(&cache);
        let fired = CancelToken::new();
        fired.cancel();
        // Sequential stand-in for the race: the cancelled builder runs
        // first, then the "waiter". The interleaved case is covered by
        // BuildGuard + the Empty reset; this pins the observable contract.
        assert!(artifact
            .observability(cache2.counters(), 0, &fired)
            .is_err());
        let fresh = std::thread::spawn(move || {
            artifact
                .observability(cache2.counters(), 0, &CancelToken::new())
                .is_ok()
        });
        assert!(fresh.join().unwrap());
    }

    #[test]
    fn a_waiter_unwinds_on_its_own_token_while_another_request_builds() {
        let slot = Arc::new(LazySlot::<u32>::default());
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (started, building) = std::sync::mpsc::channel::<()>();
        let builder = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let value = slot.get_or_build(&CancelToken::new(), "test_build", || {
                    started.send(()).unwrap();
                    held.recv().unwrap();
                    Ok((7, Origin::Computed))
                });
                value.copied().unwrap()
            })
        };
        building.recv().unwrap();
        let waited = std::time::Instant::now();
        let deadlined = CancelToken::with_deadline(Duration::from_millis(20));
        let err = slot
            .get_or_build(&deadlined, "test_build", || {
                unreachable!("the slot is building")
            })
            .unwrap_err();
        assert!(
            matches!(err, RelogicError::Cancelled(c) if c.checked_at == "test_build"),
            "{err}"
        );
        assert!(
            waited.elapsed() < Duration::from_secs(5),
            "{:?}",
            waited.elapsed()
        );
        release.send(()).unwrap();
        assert_eq!(builder.join().unwrap(), 7);
        assert_eq!(slot.peek(), Some(&7));
    }

    #[test]
    fn engine_record_folds_diagnostics() {
        let counters = CacheCounters::default();
        let mut d = Diagnostics::new();
        d.record_estimator_fallback();
        d.record_tier_propagation();
        counters.engine().merge(&d);
        counters.engine().merge(&d);
        let engine = counters.engine().clone();
        assert_eq!(engine.tier_exact(), 0);
        assert_eq!(engine.tier_propagation(), 2);
        assert_eq!(engine.estimator_fallbacks(), 2);
    }

    #[test]
    fn observability_is_lazy_and_counted_once() {
        let cache = ArtifactCache::new(1 << 20);
        let (a, _) = cache.get_or_compile(&payload(SMALL)).unwrap();
        assert_eq!(
            cache
                .counters()
                .observability_computed
                .load(Ordering::Relaxed),
            0
        );
        let _ = a
            .observability(cache.counters(), 0, &CancelToken::new())
            .unwrap();
        let _ = a
            .observability(cache.counters(), 0, &CancelToken::new())
            .unwrap();
        assert_eq!(
            cache
                .counters()
                .observability_computed
                .load(Ordering::Relaxed),
            1
        );
    }
}
