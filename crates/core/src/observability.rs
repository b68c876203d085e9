//! Observability-based reliability analysis (§3 of the paper).
//!
//! The *observability* `o_i` of node `i` at output `y` is the probability
//! (over the input distribution) that flipping node `i` changes `y` in the
//! noise-free circuit. Given observabilities, the paper derives the closed
//! form (Eq. 3)
//!
//! ```text
//! δ_y(ε⃗) = ½ · (1 − Π_i (1 − 2 ε_i o_i))
//! ```
//!
//! which is exact when at most one gate fails (hence its use for soft-error
//! rate estimation) and accurate whenever multiple simultaneous failures
//! are improbable.

use crate::exact::ExactModel;
use crate::{Backend, BddEngineStats, Diagnostics, GateEps, InputDistribution, RelogicError};
use relogic_bdd::{BddManager, BddRef, CircuitBdds};
use relogic_netlist::{Circuit, NodeId};
use relogic_sim::exec::ChunkExecutor;
use relogic_sim::{CancelToken, Cancelled};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Output columns per sweep worker beyond the first. Every worker holds a
/// full BDD manager (about 0.14 GB on the c499 analogue), so the worker
/// count is capped at `⌈outputs / 8⌉ + 1` — the manager count of the
/// earlier split by output column — instead of following the thread count
/// up, and peak memory never exceeds that design's on any host. Only two
/// workers have been measured to pay (`results/obs_throughput.json`).
const OUTPUTS_PER_WORKER: usize = 8;

/// Live-node count headroom above the base circuit functions before a
/// worker garbage-collects. Collection wipes the operation caches and the
/// probability memo — both of which carry most of the algorithm's shared
/// work — so it is deliberately rare.
const GC_HEADROOM_NODES: usize = 2_000_000;

/// Live-node count above which a worker's manager runs a sifting pass (a
/// backstop for pathological growth; the static DFS order handles the
/// common case).
const REORDER_TRIGGER_NODES: usize = 6_000_000;

/// Compact `u32` node/output key. Circuit node indices fit `u32` by
/// construction (`NodeId` is `u32`-backed), and output/variable counts are
/// bounded by the node count.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn key32(index: usize) -> u32 {
    index as u32
}

/// Per-node, per-output noiseless observabilities, plus each node's
/// any-output observability.
///
/// One table for every way of filling it: exactly with BDDs (§3), by
/// fault simulation ([`Backend::Simulation`]), or by the propagation
/// estimator in `relogic-estimate`. The closed form (Eq. 3) and the
/// criticality ranking read it the same way whichever filled it.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservabilityMatrix {
    per_output: Vec<Vec<f64>>, // [node][output]
    any_output: Vec<f64>,
    diagnostics: Diagnostics,
}

/// How a node's observability predicates are obtained during the backward
/// sweep (see [`ObsPlan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeMode {
    /// No live path to any output: all zeros.
    Dead,
    /// Only output ports observe the node: the predicate is TRUE for the
    /// columns whose port reads it and FALSE elsewhere — no symbolic work.
    PortsOnly,
    /// The node's flips reconverge at its immediate post-dominator (the
    /// payload) before reaching any output, so the generalized chain rule
    /// is *exact* for every column:
    /// `∂y/∂g = region_difference(g, dom) ∧ ∂y/∂dom`.
    /// A node with a single gate observer is the degenerate case (the
    /// region is just that gate).
    Region(u32),
    /// The node's flips reach two or more outputs along paths that only
    /// reconverge at the output boundary — no post-dominator short of the
    /// virtual sink — so the node pays the full auxiliary-variable splice.
    Stem,
}

/// Static sweep plan: classifies every node by computing immediate
/// post-dominators over the observation DAG (gate fanouts, with every
/// output port feeding a virtual sink) and counts how long each node's
/// predicate row must stay alive.
struct ObsPlan {
    mode: Vec<NodeMode>,
    /// Output columns whose port reads the node directly.
    ports: Vec<Vec<u32>>,
    /// Number of [`NodeMode::Region`] fanins that will read this node's
    /// predicate row (rows with zero readers are dropped immediately).
    readers: Vec<u32>,
    /// Post-dominator trees, each a node list in descending node order
    /// (the sweep's order), listed by descending root. A tree is a non-region
    /// root plus every node whose chain of [`NodeMode::Region`] dominators
    /// ends there; a region row needs its dominator's row from the same
    /// manager, so a tree is always swept whole by one worker.
    trees: Vec<Vec<usize>>,
}

impl ObsPlan {
    fn build(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut ports: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (k, out) in circuit.outputs().iter().enumerate() {
            ports[out.node().index()].push(key32(k));
        }
        // Distinct gate observers per node: a gate reading a node on two
        // pins flips both together, so it counts once (the region
        // derivative handles the multi-pin case exactly).
        let mut observers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, node) in circuit.iter() {
            for &f in node.fanins() {
                let obs = &mut observers[f.index()];
                let tag = key32(id.index());
                if !obs.contains(&tag) {
                    obs.push(tag);
                }
            }
        }
        // Immediate post-dominators (Cooper–Harvey–Kennedy intersect on
        // the acyclic observation DAG, one reverse-topological pass). The
        // virtual sink — index `n` — post-dominates everything observable;
        // `usize::MAX` marks dead nodes.
        let sink = n;
        let order = |v: usize| if v == sink { 0 } else { n - v };
        let mut idom: Vec<usize> = vec![usize::MAX; n + 1];
        idom[sink] = sink;
        let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while order(a) > order(b) {
                    a = idom[a];
                }
                while order(b) > order(a) {
                    b = idom[b];
                }
            }
            a
        };
        for v in (0..n).rev() {
            let mut dom: Option<usize> = if ports[v].is_empty() {
                None
            } else {
                Some(sink)
            };
            for &h in &observers[v] {
                let h = h as usize;
                if idom[h] == usize::MAX {
                    continue; // dead observer: flips through it vanish
                }
                dom = Some(match dom {
                    None => h,
                    Some(d) => intersect(&idom, d, h),
                });
            }
            if let Some(d) = dom {
                idom[v] = d;
            }
        }
        let mode: Vec<NodeMode> = (0..n)
            .map(|v| {
                let live_gates = observers[v].iter().any(|&h| idom[h as usize] != usize::MAX);
                match idom[v] {
                    usize::MAX => NodeMode::Dead,
                    d if d == sink && !live_gates => NodeMode::PortsOnly,
                    d if d == sink => NodeMode::Stem,
                    d => NodeMode::Region(key32(d)),
                }
            })
            .collect();
        let mut readers = vec![0u32; n];
        for m in &mode {
            if let NodeMode::Region(d) = m {
                readers[*d as usize] += 1;
            }
        }
        // A dominator follows its region nodes in topological order, so a
        // descending pass meets every root before the nodes under it.
        let mut tree_of = vec![0usize; n];
        let mut trees: Vec<Vec<usize>> = Vec::new();
        for v in (0..n).rev() {
            let t = match mode[v] {
                NodeMode::Region(d) => tree_of[d as usize],
                _ => {
                    trees.push(Vec::new());
                    trees.len() - 1
                }
            };
            tree_of[v] = t;
            trees[t].push(v);
        }
        ObsPlan {
            mode,
            ports,
            readers,
            trees,
        }
    }
}

/// Per-worker symbolic state: a full BDD manager plus the base circuit
/// functions it splices auxiliaries into. Every worker's copy comes from
/// the identical deterministic construction sequence (the budget probe's
/// manager is handed on as the first worker's), so any worker computes
/// bit-identical results for any node — which is what makes the fan-out
/// independent of thread count and scheduling.
struct BddWorker {
    manager: BddManager,
    bdds: CircuitBdds,
    var_probs: Vec<f64>,
    aux: relogic_bdd::Var,
    /// Probability memo shared across nodes; keyed by node index, so it
    /// must be dropped whenever the manager collects or reorders.
    memo: HashMap<BddRef, f64>,
    gc_floor: usize,
}

impl BddWorker {
    /// Readies an exact model for the sweep: arms the garbage-collection
    /// headroom and the sifting backstop.
    fn new(model: ExactModel) -> Self {
        let ExactModel {
            mut manager,
            bdds,
            var_probs,
            aux,
        } = model;
        // Collect back to the base functions once the splice garbage
        // outgrows the circuit itself by a wide margin.
        let gc_floor = manager.live_node_count() + GC_HEADROOM_NODES;
        manager.enable_reordering(REORDER_TRIGGER_NODES);
        BddWorker {
            manager,
            bdds,
            var_probs,
            aux,
            memo: HashMap::new(),
            gc_floor,
        }
    }
}

/// Worker threads for the exact sweep: `threads` (`0` auto-detects the
/// hardware), capped at one worker per [`OUTPUTS_PER_WORKER`] outputs
/// plus one.
fn sweep_threads(threads: usize, outputs: usize) -> usize {
    ChunkExecutor::new(threads)
        .threads()
        .min(outputs.div_ceil(OUTPUTS_PER_WORKER) + 1)
}

impl ObservabilityMatrix {
    /// Computes observabilities for every node of `circuit`.
    ///
    /// With [`Backend::Bdd`] the computation is exact: an auxiliary
    /// variable is spliced in at each node and the Boolean difference of
    /// each output with respect to it is weighted by the input
    /// distribution. With [`Backend::Simulation`] observabilities are
    /// estimated by parallel-pattern fault simulation.
    ///
    /// # Panics
    ///
    /// Panics on any condition
    /// [`ObservabilityMatrix::try_compute_threads_cancellable`] reports as
    /// an error, e.g. an input distribution that does not match the
    /// circuit.
    #[must_use]
    pub fn compute(circuit: &Circuit, dist: &InputDistribution, backend: Backend) -> Self {
        let never = CancelToken::new();
        match Self::try_compute_threads_cancellable(circuit, dist, backend, 0, &never) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ObservabilityMatrix::compute`] with an explicit worker
    /// thread count (`0` auto-detects the hardware), checking `cancel`
    /// while it works.
    ///
    /// The BDD backend's backward sweep is split by post-dominator tree:
    /// each worker sweeps whole trees, computing every output column plus
    /// the any column for the nodes it owns, so every stem splice runs
    /// exactly once whatever the thread count. Each worker holds a full BDD
    /// manager, so at most `⌈outputs / 8⌉ + 1` workers start.
    ///
    /// Results are **bit-identical for every thread count**: each worker
    /// builds the circuit's BDDs through the same deterministic
    /// construction sequence, every row is a canonical BDD under the same
    /// variable order, so a node's row does not depend on which worker
    /// computed it, and rows are reassembled in node order.
    ///
    /// The simulation backend splits the target nodes across workers;
    /// every worker replays the same sampled input stream, so the counts
    /// are bit-identical for every thread count as well.
    ///
    /// The BDD backend checks `cancel` per gate of every worker's base
    /// build (the probe path of
    /// [`ObservabilityMatrix::try_compute_budgeted_cancellable`], with no
    /// budget), then per post-dominator tree and per node of the backward
    /// sweep; the simulation backend checks it once per 64-pattern block
    /// in every worker. A run that completes before the token fires
    /// returns values bit-identical to an uncancelled run — the checks are
    /// read-only early exits that never perturb the computation.
    ///
    /// # Errors
    ///
    /// [`RelogicError::DistributionMismatch`] if the input distribution
    /// does not match the circuit, [`RelogicError::CircuitTooLarge`] if
    /// the circuit exhausts the BDD variable space, [`RelogicError::Sim`]
    /// wrapping [`relogic_sim::SimError::ZeroPatternBudget`] for a sampled
    /// backend with zero patterns, or [`RelogicError::Cancelled`] once the
    /// token fires.
    pub fn try_compute_threads_cancellable(
        circuit: &Circuit,
        dist: &InputDistribution,
        backend: Backend,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<Self, RelogicError> {
        let _ = dist.try_position_probs(circuit)?;
        match backend {
            Backend::Bdd => {
                Self::try_compute_budgeted_cancellable(circuit, dist, threads, usize::MAX, cancel)
            }
            Backend::Simulation { patterns: 0, .. } => {
                Err(RelogicError::Sim(relogic_sim::SimError::ZeroPatternBudget))
            }
            Backend::Simulation { patterns, seed } => {
                let (per_output, any_output) = relogic_sim::observabilities_biased(
                    circuit,
                    &dist.position_probs(circuit),
                    patterns,
                    seed,
                    threads,
                    cancel,
                )?;
                Ok(ObservabilityMatrix {
                    per_output,
                    any_output,
                    diagnostics: Diagnostics::new(),
                })
            }
        }
    }

    /// Like [`ObservabilityMatrix::try_compute_threads_cancellable`] with
    /// the BDD backend and no cancellation, but the deterministic base
    /// circuit construction is bounded by a live-node `budget`.
    ///
    /// The budget is checked gate-by-gate during a single-threaded probe
    /// build — the identical sequence every parallel worker would replay —
    /// so the trip decision is a pure function of `(circuit, budget)` and
    /// cannot depend on thread count or scheduling. A probe that fits
    /// becomes the first worker's state, so only extra workers build the
    /// circuit again. The subsequent backward sweep is GC-managed (a
    /// worker collects once splice garbage outgrows the base functions by
    /// two million nodes) rather than budget-checked; the base build is
    /// where multiplier-class reconvergence blows up.
    ///
    /// # Errors
    ///
    /// [`RelogicError::BddBudgetExceeded`] when the probe build trips the
    /// budget, otherwise as
    /// [`ObservabilityMatrix::try_compute_threads_cancellable`].
    pub fn try_compute_budgeted(
        circuit: &Circuit,
        dist: &InputDistribution,
        threads: usize,
        budget: usize,
    ) -> Result<Self, RelogicError> {
        let never = CancelToken::new();
        Self::try_compute_budgeted_cancellable(circuit, dist, threads, budget, &never)
    }

    /// Like [`ObservabilityMatrix::try_compute_budgeted`], checking
    /// `cancel` while it works: the probe build and every other worker's
    /// build poll the token at the same per-gate point as the budget check
    /// (one extra branch), and the subsequent sweep checks per
    /// post-dominator tree and per node.
    ///
    /// # Errors
    ///
    /// [`RelogicError::Cancelled`] once the token fires, otherwise as
    /// [`ObservabilityMatrix::try_compute_budgeted`].
    pub fn try_compute_budgeted_cancellable(
        circuit: &Circuit,
        dist: &InputDistribution,
        threads: usize,
        budget: usize,
        cancel: &CancelToken,
    ) -> Result<Self, RelogicError> {
        let probs = dist.try_position_probs(circuit)?;
        let probe = ExactModel::try_build(circuit, &probs, budget, cancel)?;
        Self::compute_bdd(circuit, &probs, threads, cancel, BddWorker::new(probe))
    }

    /// One backward sweep over the nodes in `owned` (one post-dominator
    /// tree, descending node order), returning one row per owned
    /// node: every output column, then the any-output observability (the
    /// OR, in ascending output order, of every output's predicate).
    ///
    /// A node's predicate row is one of:
    ///
    /// * **Stem** (post-dominated only by the virtual sink): full
    ///   auxiliary-variable splice — the only expensive case, and exact
    ///   under arbitrary reconvergence. Ports need no special casing: the
    ///   splice replaces the node's own function with the auxiliary, so a
    ///   port column's Boolean difference collapses to TRUE by itself.
    /// * **Region** (immediate post-dominator `d` short of the sink):
    ///   `D ∧ P_d` per column, where `D = region_difference(node, d)` is
    ///   the Boolean difference of `d` over the reconvergent region
    ///   between them. Exact because every sensitized path to every
    ///   output runs through `d`; distributing `D ∧ ·` over the OR in the
    ///   any column is sound for the same reason. A region node never
    ///   feeds a port directly (a port would pull its post-dominator up
    ///   to the sink), so no column overrides exist. `d` is in the same
    ///   tree, so its row was computed earlier in this sweep.
    /// * **PortsOnly / Dead**: constant TRUE/FALSE rows, no symbolic work.
    ///
    /// Rows are dropped as soon as their last region reader has consumed
    /// them, and the manager garbage-collects (rooting the base functions
    /// plus every live row) only when splice garbage exceeds
    /// [`GC_HEADROOM_NODES`].
    fn sweep(
        worker: &mut BddWorker,
        circuit: &Circuit,
        plan: &ObsPlan,
        owned: &[usize],
        cancel: &CancelToken,
    ) -> Result<Vec<Vec<f64>>, Cancelled> {
        let out_nodes: Vec<usize> = circuit.outputs().iter().map(|o| o.node().index()).collect();
        let mut vals: Vec<Vec<f64>> = Vec::with_capacity(owned.len());
        // Rows still awaiting region readers, with the readers left. Keyed
        // in node order so the GC sees its roots in a fixed order.
        let mut rows: BTreeMap<usize, (u32, Vec<BddRef>)> = BTreeMap::new();
        for &i in owned {
            // Per-node check: a stem splice can dwarf everything else in
            // the sweep, so finer granularity buys nothing.
            cancel.check("obs_node")?;
            let id = NodeId::from_index(i);
            let preds: Vec<BddRef> = match plan.mode[i] {
                NodeMode::Dead => vec![BddRef::FALSE; out_nodes.len() + 1],
                NodeMode::PortsOnly => (0..out_nodes.len())
                    .map(|y| {
                        if plan.ports[i].contains(&key32(y)) {
                            BddRef::TRUE
                        } else {
                            BddRef::FALSE
                        }
                    })
                    .chain([BddRef::TRUE])
                    .collect(),
                NodeMode::Region(d) => {
                    let d = d as usize;
                    let manager = &mut worker.manager;
                    let diff = worker.bdds.region_difference(
                        manager,
                        circuit,
                        id,
                        NodeId::from_index(d),
                        worker.aux,
                    );
                    // The dominator's row is pinned until its last region
                    // reader (this node, at the latest) is done.
                    let Some((_, drow)) = rows.get(&d) else {
                        unreachable!("region dominator row dropped before its readers")
                    };
                    drow.iter().map(|&p| manager.and(diff, p)).collect()
                }
                NodeMode::Stem => {
                    let BddWorker {
                        manager, bdds, aux, ..
                    } = worker;
                    let funcs = bdds.with_aux_at(manager, circuit, id, *aux);
                    let mut preds: Vec<BddRef> = out_nodes
                        .iter()
                        .map(|&on| manager.boolean_difference(funcs[on], *aux))
                        .collect();
                    // Fixed ascending fold order keeps the any column
                    // bit-identical across thread counts.
                    let any = preds
                        .iter()
                        .fold(BddRef::FALSE, |acc, &p| manager.or(acc, p));
                    preds.push(any);
                    preds
                }
            };
            vals.push(
                preds
                    .iter()
                    .map(|&p| {
                        worker
                            .manager
                            .probability_memo(p, &worker.var_probs, &mut worker.memo)
                    })
                    .collect(),
            );
            if plan.readers[i] > 0 {
                rows.insert(i, (plan.readers[i], preds));
            }
            if let NodeMode::Region(d) = plan.mode[i] {
                let d = d as usize;
                if let Some((left, _)) = rows.get_mut(&d) {
                    *left -= 1;
                    if *left == 0 {
                        rows.remove(&d);
                    }
                }
            }
            if worker.manager.live_node_count() > worker.gc_floor {
                let mut roots: Vec<BddRef> = worker.bdds.funcs().to_vec();
                for (_, row) in rows.values() {
                    roots.extend_from_slice(row);
                }
                // maybe_reorder gc's as part of sifting; otherwise collect
                // explicitly. Either way node indices are recycled, so the
                // probability memo goes with them.
                if !worker.manager.maybe_reorder(&roots) {
                    worker.manager.gc(&roots);
                }
                worker.memo.clear();
                worker.gc_floor = worker.manager.live_node_count() + GC_HEADROOM_NODES;
            }
        }
        Ok(vals)
    }

    /// The exact matrix, swept one post-dominator tree per chunk: each
    /// chunk computes every column for the nodes it owns, so each stem
    /// splice is paid exactly once whatever the thread count, and the
    /// executor hands the trees out to at most [`sweep_threads`] workers.
    /// `probe` is the worker whose build the budget was checked on; it
    /// becomes the first worker's state, and only the other workers build
    /// again, polling `cancel` per gate as the probe did.
    fn compute_bdd(
        circuit: &Circuit,
        input_probs: &[f64],
        threads: usize,
        cancel: &CancelToken,
        probe: BddWorker,
    ) -> Result<Self, RelogicError> {
        let n = circuit.len();
        let plan = ObsPlan::build(circuit);
        let exec = ChunkExecutor::new(sweep_threads(threads, circuit.output_count()));
        let probe = Mutex::new(Some(probe));
        let (tree_vals, workers) = exec.try_map_chunks_with_state(
            plan.trees.len(),
            cancel,
            "obs_chunk",
            || {
                // Only `take` runs under the lock, so a poisoned slot is
                // still either full or empty.
                let handed_on = match probe.lock() {
                    Ok(mut slot) => slot.take(),
                    Err(poisoned) => poisoned.into_inner().take(),
                };
                // The other workers replay the probe's build, which fit the
                // budget, so only the token can stop them: `None`.
                handed_on.or_else(|| {
                    ExactModel::try_build(circuit, input_probs, usize::MAX, cancel)
                        .ok()
                        .map(BddWorker::new)
                })
            },
            |worker, tree| match worker {
                Some(worker) => Self::sweep(worker, circuit, &plan, &plan.trees[tree], cancel),
                None => Err(Cancelled {
                    after: cancel.elapsed(),
                    checked_at: "bdd_gate",
                }),
            },
        )?;
        let mut per_output: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut any_output: Vec<f64> = vec![0.0; n];
        for (owned, vals) in plan.trees.iter().zip(tree_vals) {
            for (&i, mut row) in owned.iter().zip(vals) {
                let Some(any) = row.pop() else {
                    unreachable!("sweep rows always carry the any column last")
                };
                any_output[i] = any;
                per_output[i] = row;
            }
        }
        let mut engine = BddEngineStats::default();
        for w in workers.iter().flatten() {
            engine.merge(&w.manager.stats());
        }
        let mut diagnostics = Diagnostics::new();
        diagnostics.record_bdd_stats(engine);
        Ok(ObservabilityMatrix {
            per_output,
            any_output,
            diagnostics,
        })
    }

    /// Numerical and symbolic-engine diagnostics for the computation that
    /// produced this matrix (BDD engine statistics are present when the
    /// BDD backend ran).
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// All per-output rows, indexed `[node][output]`; exposed for the
    /// persistent artifact store.
    #[must_use]
    pub fn per_output_rows(&self) -> &[Vec<f64>] {
        &self.per_output
    }

    /// All any-output observabilities, indexed by [`NodeId::index`].
    #[must_use]
    pub fn any_output_values(&self) -> &[f64] {
        &self.any_output
    }

    /// Rebuilds a matrix from deserialized arrays, validating what
    /// [`ObservabilityMatrix::compute`] guarantees: one row per node,
    /// uniform row width, and every value finite. Checksummed payloads
    /// still route through here so a hash collision degrades into an
    /// error, never a panic downstream.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn from_parts(
        per_output: Vec<Vec<f64>>,
        any_output: Vec<f64>,
        diagnostics: Diagnostics,
    ) -> Result<Self, String> {
        if per_output.len() != any_output.len() {
            return Err(format!(
                "{} rows but {} any-output entries",
                per_output.len(),
                any_output.len()
            ));
        }
        let width = per_output.first().map_or(0, Vec::len);
        for (i, row) in per_output.iter().enumerate() {
            if row.len() != width {
                return Err(format!("row {i} has width {} != {width}", row.len()));
            }
            if row.iter().any(|x| !x.is_finite()) {
                return Err(format!("non-finite entry in row {i}"));
            }
        }
        if any_output.iter().any(|x| !x.is_finite()) {
            return Err("non-finite any-output entry".to_owned());
        }
        Ok(ObservabilityMatrix {
            per_output,
            any_output,
            diagnostics,
        })
    }

    /// Approximate heap footprint of this matrix in bytes (per-output row
    /// payloads and headers plus the any-output array). A structural
    /// estimate for cache byte-accounting, not an allocator-exact figure.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        let row_payload: usize = self.per_output.iter().map(|r| r.len() * 8).sum();
        let row_headers = self.per_output.len() * std::mem::size_of::<Vec<f64>>();
        row_payload + row_headers + self.any_output.len() * 8
    }

    /// The heap footprint [`ObservabilityMatrix::compute`] *would*
    /// produce for `circuit`, computable without running either backend
    /// (rows are `output_count` wide for every node — a pure function of
    /// circuit structure). Lets a cache charge an entry for its
    /// observability matrix before the matrix is lazily materialized.
    #[must_use]
    pub fn projected_heap_bytes(circuit: &Circuit) -> usize {
        let n = circuit.len();
        n * (std::mem::size_of::<Vec<f64>>() + circuit.output_count() * 8) + n * 8
    }

    /// Observability of `node` at output `output_index`.
    #[must_use]
    pub fn at_output(&self, node: NodeId, output_index: usize) -> f64 {
        self.per_output[node.index()][output_index]
    }

    /// Probability a flip at `node` changes at least one output.
    #[must_use]
    pub fn any(&self, node: NodeId) -> f64 {
        self.any_output[node.index()]
    }

    /// Number of outputs covered.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.per_output.first().map_or(0, Vec::len)
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.any_output.len()
    }

    /// Returns `true` if no nodes are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.any_output.is_empty()
    }

    /// The closed-form reliability (Eq. 3) of output `output_index`:
    /// `δ_y = ½ (1 − Π_i (1 − 2 ε_i o_i))` over all noisy nodes.
    #[must_use]
    pub fn closed_form_output(&self, eps: &GateEps, output_index: usize) -> f64 {
        let mut prod = 1.0f64;
        for node in eps.noisy_nodes() {
            prod *= 1.0 - 2.0 * eps.get(node) * self.at_output(node, output_index);
        }
        0.5 * (1.0 - prod)
    }

    /// Closed-form reliability for every output.
    #[must_use]
    pub fn closed_form(&self, eps: &GateEps) -> Vec<f64> {
        (0..self.output_count())
            .map(|k| self.closed_form_output(eps, k))
            .collect()
    }

    /// The gates of `circuit` ranked by soft-error *criticality*
    /// `ε_i · o_i` against the any-output observability — each gate's
    /// single-failure contribution, the ranking signal for hardening
    /// (§5.1): descending, ties by ascending node id. Sources are left
    /// out.
    #[must_use]
    pub fn criticality(&self, circuit: &Circuit, eps: &GateEps) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = circuit
            .iter()
            .filter(|(_, node)| node.kind().is_gate())
            .map(|(id, _)| (id, eps.get(id) * self.any(id)))
            .collect();
        // Stable, so equal criticalities keep ascending node order.
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic_sim::{exact_reliability, flip_influence};

    /// y = (a & b) | c.
    fn aoi() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g = c.and([a, b]);
        let y = c.or([g, x]);
        c.add_output("y", y);
        c
    }

    #[test]
    fn bdd_observabilities_match_flip_influence() {
        let c = aoi();
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        for id in c.node_ids() {
            let inf = flip_influence(&c, &[id]);
            assert!(
                (obs.at_output(id, 0) - inf[0]).abs() < 1e-12,
                "{id}: {} vs {}",
                obs.at_output(id, 0),
                inf[0]
            );
        }
    }

    #[test]
    fn sim_observabilities_converge_to_bdd() {
        let c = aoi();
        let exact = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let approx = ObservabilityMatrix::compute(
            &c,
            &InputDistribution::Uniform,
            Backend::Simulation {
                patterns: 1 << 15,
                seed: 9,
            },
        );
        for id in c.node_ids() {
            assert!((exact.at_output(id, 0) - approx.at_output(id, 0)).abs() < 0.02);
            assert!((exact.any(id) - approx.any(id)).abs() < 0.02);
        }
    }

    #[test]
    fn closed_form_exact_for_single_noisy_gate() {
        // With exactly one noisy gate the closed form is exact: δ = ε·o.
        let c = aoi();
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let g = NodeId::from_index(3); // the AND gate, o = 1/2
        for &e in &[0.05, 0.2, 0.45] {
            let mut eps = GateEps::zero(&c);
            eps.try_set(g, e).unwrap();
            let cf = obs.closed_form_output(&eps, 0);
            let exact = exact_reliability(&c, eps.as_slice());
            assert!(
                (cf - exact.per_output[0]).abs() < 1e-12,
                "ε={e}: closed form {cf} vs exact {}",
                exact.per_output[0]
            );
        }
    }

    #[test]
    fn closed_form_is_accurate_for_small_eps_on_all_gates() {
        let c = aoi();
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let eps = GateEps::try_uniform(&c, 0.01).unwrap();
        let cf = obs.closed_form(&eps);
        let exact = exact_reliability(&c, eps.as_slice());
        assert!(
            (cf[0] - exact.per_output[0]).abs() < 1e-4,
            "closed form {} vs exact {}",
            cf[0],
            exact.per_output[0]
        );
    }

    #[test]
    fn closed_form_saturates_at_half() {
        let c = aoi();
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let eps = GateEps::try_uniform(&c, 0.5).unwrap();
        for &d in &obs.closed_form(&eps) {
            assert!(d <= 0.5 + 1e-12);
        }
        assert_eq!(obs.closed_form(&GateEps::zero(&c)), vec![0.0]);
    }

    #[test]
    fn sim_backend_honours_input_distribution() {
        // obs(AND gate) = Pr(c = 0); bias c to 0.9 → obs = 0.1, and the
        // sampling backend must reproduce it.
        let c = aoi();
        let dist = InputDistribution::Independent(vec![0.5, 0.5, 0.9]);
        let obs = ObservabilityMatrix::compute(
            &c,
            &dist,
            Backend::Simulation {
                patterns: 1 << 16,
                seed: 12,
            },
        );
        let g = NodeId::from_index(3);
        assert!((obs.at_output(g, 0) - 0.1).abs() < 0.01);
    }

    #[test]
    fn observability_weights_with_input_distribution() {
        // obs(AND gate) = Pr(c = 0); bias c to 0.9 → obs = 0.1.
        let c = aoi();
        let dist = InputDistribution::Independent(vec![0.5, 0.5, 0.9]);
        let obs = ObservabilityMatrix::compute(&c, &dist, Backend::Bdd);
        let g = NodeId::from_index(3);
        assert!((obs.at_output(g, 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn criticality_ranks_by_single_failure_contribution() {
        let c = aoi();
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();
        let ranked = obs.criticality(&c, &eps);
        // The OR gate is the output gate (o = 1): must rank first, ahead
        // of the AND gate (o = 1/2). Inputs are not ranked.
        let and = NodeId::from_index(3);
        let or = NodeId::from_index(4);
        assert_eq!(ranked, vec![(or, 0.1), (and, 0.05)]);
        // At ε = 0 every gate ties, in ascending node order.
        let ties = obs.criticality(&c, &GateEps::zero(&c));
        assert_eq!(ties, vec![(and, 0.0), (or, 0.0)]);
    }

    #[test]
    fn from_parts_rejects_bad_shapes_and_values() {
        let obs = ObservabilityMatrix::compute(&aoi(), &InputDistribution::Uniform, Backend::Bdd);
        let rebuilt = ObservabilityMatrix::from_parts(
            obs.per_output_rows().to_vec(),
            obs.any_output_values().to_vec(),
            obs.diagnostics().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt, obs);
        let parts = |rows: Vec<Vec<f64>>, any: Vec<f64>| {
            ObservabilityMatrix::from_parts(rows, any, Diagnostics::new())
        };
        assert!(parts(vec![], vec![0.5]).is_err(), "one any entry per row");
        assert!(parts(vec![vec![0.5], vec![0.5, 0.5]], vec![0.5, 0.5]).is_err());
        assert!(parts(vec![vec![f64::NAN]], vec![0.5]).is_err());
        assert!(parts(vec![vec![0.5]], vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn pre_fired_token_cancels_bdd_and_budgeted_compute() {
        let c = aoi();
        let fired = CancelToken::new();
        fired.cancel();
        for &threads in &[1usize, 4] {
            let err = ObservabilityMatrix::try_compute_threads_cancellable(
                &c,
                &InputDistribution::Uniform,
                Backend::Bdd,
                threads,
                &fired,
            )
            .expect_err("fired token must cancel the compute");
            assert!(matches!(err, RelogicError::Cancelled(_)), "{err}");
        }
        // The budgeted probe build polls at the per-gate check: the
        // cancellation surfaces there, before any sweep work starts.
        let err = ObservabilityMatrix::try_compute_budgeted_cancellable(
            &c,
            &InputDistribution::Uniform,
            1,
            1 << 20,
            &fired,
        )
        .expect_err("fired token must cancel the probe build");
        match err {
            RelogicError::Cancelled(cc) => assert_eq!(cc.checked_at, "bdd_gate"),
            other => panic!("expected Cancelled, got {other}"),
        }
        // A budget trip still reports as a budget trip, not a cancel.
        let err = ObservabilityMatrix::try_compute_budgeted_cancellable(
            &c,
            &InputDistribution::Uniform,
            1,
            0,
            &CancelToken::new(),
        )
        .expect_err("zero budget must trip");
        assert!(
            matches!(err, RelogicError::BddBudgetExceeded { .. }),
            "{err}"
        );
    }

    #[test]
    fn completed_compute_under_deadline_is_bit_identical() {
        let c = aoi();
        let plain = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        for &threads in &[1usize, 2, 8] {
            let generous = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
            let under = ObservabilityMatrix::try_compute_threads_cancellable(
                &c,
                &InputDistribution::Uniform,
                Backend::Bdd,
                threads,
                &generous,
            )
            .expect("generous deadline must not fire");
            assert_eq!(under.per_output_rows(), plain.per_output_rows());
            assert_eq!(under.any_output_values(), plain.any_output_values());
        }
    }

    #[test]
    fn trees_partition_nodes_and_keep_regions_with_their_dominators() {
        for name in ["x2", "cu", "b9", "c499"] {
            let c = relogic_gen::suite::build(name).expect("suite circuit");
            let plan = ObsPlan::build(&c);
            assert!(
                plan.mode.iter().any(|m| matches!(m, NodeMode::Region(_))),
                "{name}: no region nodes, so the tree invariant is vacuous"
            );
            let mut owner = vec![None; c.len()];
            for (k, nodes) in plan.trees.iter().enumerate() {
                assert!(
                    nodes.windows(2).all(|w| w[0] > w[1]),
                    "{name}: tree {k} is not in sweep order"
                );
                assert!(
                    !matches!(plan.mode[nodes[0]], NodeMode::Region(_)),
                    "{name}: tree {k} does not start at its root"
                );
                for &v in nodes {
                    assert_eq!(owner[v], None, "{name}: node {v} owned twice");
                    owner[v] = Some(k);
                }
            }
            assert!(
                owner.iter().all(Option::is_some),
                "{name}: the trees do not cover every node"
            );
            for (v, m) in plan.mode.iter().enumerate() {
                if let NodeMode::Region(d) = *m {
                    assert_eq!(
                        owner[v], owner[d as usize],
                        "{name}: region node {v} split from its dominator {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_workers_are_capped_by_output_count() {
        // (threads, outputs, cap): one worker per 8 outputs plus one.
        for (threads, outputs, cap) in [(1, 7, 1), (2, 1, 2), (7, 7, 2), (7, 11, 3), (64, 32, 5)] {
            let exec = ChunkExecutor::new(sweep_threads(threads, outputs));
            let never = CancelToken::new();
            let (_, workers) = exec
                .try_map_chunks_with_state(200, &never, "test_chunk", || (), |(), i| Ok(i))
                .expect("a fresh token never fires");
            assert!(
                !workers.is_empty() && workers.len() <= cap,
                "{threads} threads, {outputs} outputs: {} workers",
                workers.len()
            );
        }
        assert!(sweep_threads(0, 1000) >= 1, "auto-detect yields a worker");
    }

    #[test]
    fn multi_output_any_observability() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.not(a);
        let h = c.and([g, b]);
        c.add_output("y1", g);
        c.add_output("y2", h);
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        assert!((obs.at_output(g, 0) - 1.0).abs() < 1e-12);
        assert!((obs.at_output(g, 1) - 0.5).abs() < 1e-12);
        assert!((obs.any(g) - 1.0).abs() < 1e-12);
        assert_eq!(obs.output_count(), 2);
    }
}
