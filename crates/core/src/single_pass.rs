//! Single-pass reliability analysis (§4 of the paper) with correlation
//! coefficients for reconvergent fanout (§4.1).
//!
//! Gates are processed once, in topological order. Each signal carries two
//! conditional error probabilities — `Pr(0→1 | fault-free value 0)` and
//! `Pr(1→0 | fault-free value 1)`. At every gate, the *propagated* error
//! component is computed by enumerating (error-free input combination,
//! perturbed input combination) pairs weighted by the gate's weight vector
//! (this generalizes the paper's Table 1, which spells out the 2-input AND
//! case), and is then mixed with the gate's *local* BSC failure ε:
//!
//! ```text
//! Pr(g_{b→¬b}) = (1−ε)·PW(b)/W(b) + ε·(1 − PW(b)/W(b))
//! ```
//!
//! Reconvergent fanout makes fanin error events dependent. Following §4.1,
//! every signal pair that shares a fanout stem carries four correlation
//! coefficients `C_vw, C_vw̃, C_ṽw, C_ṽw̃` (one per combination of 0→1/1→0
//! events), seeded at the stem (`C = 1/Pr`, cross terms 0) and propagated
//! through each gate by re-running the propagation step conditioned on the
//! partner's event (the paper's Fig. 4). At a reconvergence site the
//! coefficients re-weight the propagation terms, e.g.
//! `Pr(i_{0→1})·(1 − Pr(j_{1→0})·C_{ij̃})`.

use crate::weights::MAX_ANALYSIS_ARITY;
use crate::{Diagnostics, GateEps, RelogicError, Weights};
use relogic_netlist::structure::FanoutMap;
use relogic_netlist::{Circuit, GateKind, NodeId};

/// Compact `u32` node key. Safe after [`SinglePass::try_new`] has verified
/// the circuit's node count fits `u32`.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn node_key(index: usize) -> u32 {
    index as u32
}

/// A `0→1` or `1→0` error event on a signal.
///
/// Used to index the four correlation coefficients of a signal pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorEvent {
    /// The signal's fault-free value is 0 and the noisy value is 1.
    Rise,
    /// The signal's fault-free value is 1 and the noisy value is 0.
    Fall,
}

impl ErrorEvent {
    /// Both events, for iteration.
    pub const BOTH: [ErrorEvent; 2] = [ErrorEvent::Rise, ErrorEvent::Fall];
}

/// Four correlation coefficients for a signal pair, indexed
/// `[event on first][event on second]`. `1.0` everywhere means independent.
pub type CorrCoeffs = [[f64; 2]; 2];

const INDEPENDENT: CorrCoeffs = [[1.0, 1.0], [1.0, 1.0]];

/// Tracked coefficients for a signal pair: the four §4.1 error-event
/// coefficients plus four Ercolani-style *signal-value* coefficients
/// `V[value on first][value on second]` (the paper's ref [8]), used to
/// condition weight vectors on a partner's fault-free value.
#[derive(Clone, Copy, Debug)]
struct PairCoeffs {
    err: CorrCoeffs,
    val: CorrCoeffs,
}

const PAIR_INDEPENDENT: PairCoeffs = PairCoeffs {
    err: INDEPENDENT,
    val: INDEPENDENT,
};

impl PairCoeffs {
    /// The same pair seen from the other signal: indices swapped.
    fn transposed(&self) -> PairCoeffs {
        let t = |c: &CorrCoeffs| [[c[0][0], c[1][0]], [c[0][1], c[1][1]]];
        PairCoeffs {
            err: t(&self.err),
            val: t(&self.val),
        }
    }
}

/// A signal's tracked partners, sorted by ascending node key. Node ids are
/// topological and a pair is registered when its later signal is
/// processed, so every registration appends at the end.
type PartnerList = Vec<(u32, PairCoeffs)>;

/// The coefficients `list` holds for partner `key`, by binary search.
fn find_partner(list: &[(u32, PairCoeffs)], key: u32) -> Option<&PairCoeffs> {
    list.binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .map(|at| &list[at].1)
}

/// Options controlling the single-pass engine.
#[derive(Clone, Debug)]
pub struct SinglePassOptions {
    /// Track and apply correlation coefficients (§4.1). Without this, all
    /// fanin error events are assumed independent — the plain §4 algorithm.
    pub correlations: bool,
    /// Maximum number of correlated partners retained per signal; `None`
    /// keeps every partner. When trimming, the partners closest to
    /// independence (smallest `max |C − 1|`) are dropped first; among
    /// partners of equal strength the one with the lower node id is kept,
    /// so the result never depends on anything but the inputs.
    pub partner_cap: Option<usize>,
    /// Partners whose coefficients are all within this distance of 1 are
    /// pruned (they carry no information).
    pub prune_tolerance: f64,
    /// Extension beyond the paper: condition weight vectors on the
    /// partner's fault-free value using Ercolani-style signal-value
    /// coefficients (the paper's ref [8]) while propagating error
    /// coefficients. The Fig. 4 conditionals otherwise use the
    /// unconditioned weight vector, which overestimates correlation where
    /// the partner's value restricts the gate's input space. The
    /// first-order product form implemented here helps modestly on control
    /// logic and is neutral on the XOR lattices (see EXPERIMENTS.md), so
    /// the default stays faithful to the paper: off.
    pub value_conditioning: bool,
    /// Strict numeric policy. When set, [`SinglePass::try_run`] rejects
    /// ε > 0.5 (outside the sensible von Neumann BSC regime) and turns
    /// non-finite correlation numerics into
    /// [`RelogicError::NumericRange`] errors instead of silently falling
    /// back to uncorrelated propagation.
    pub strict: bool,
}

impl Default for SinglePassOptions {
    fn default() -> Self {
        SinglePassOptions {
            correlations: true,
            partner_cap: Some(64),
            prune_tolerance: 1e-4,
            value_conditioning: false,
            strict: false,
        }
    }
}

impl SinglePassOptions {
    /// The plain §4 algorithm, with no reconvergence correction.
    #[must_use]
    pub fn without_correlations() -> Self {
        SinglePassOptions {
            correlations: false,
            ..SinglePassOptions::default()
        }
    }
}

/// Result of one single-pass run: per-node conditional error probabilities,
/// per-node and per-output error probabilities, and the surviving
/// correlation coefficients.
#[derive(Clone, Debug)]
pub struct SinglePassResult {
    p01: Vec<f64>,
    p10: Vec<f64>,
    node_delta: Vec<f64>,
    per_output: Vec<f64>,
    partners: Vec<PartnerList>,
    diagnostics: Diagnostics,
}

impl SinglePassResult {
    /// `Pr(0→1 error | fault-free value 0)` at `node`.
    #[must_use]
    pub fn p01(&self, node: NodeId) -> f64 {
        self.p01[node.index()]
    }

    /// `Pr(1→0 error | fault-free value 1)` at `node`.
    #[must_use]
    pub fn p10(&self, node: NodeId) -> f64 {
        self.p10[node.index()]
    }

    /// Unconditional error probability of `node`:
    /// `Pr(n=0)·p01 + Pr(n=1)·p10`. For an output node this is the paper's
    /// `δ_y`; the per-node values support selective-hardening studies
    /// (§5.1).
    #[must_use]
    pub fn node_delta(&self, node: NodeId) -> f64 {
        self.node_delta[node.index()]
    }

    /// `δ_y` for each primary output, in declaration order.
    #[must_use]
    pub fn per_output(&self) -> &[f64] {
        &self.per_output
    }

    /// The tracked error-event correlation coefficients between two
    /// signals, if the pair survived propagation (`None` means they are
    /// treated as independent). Indexed `[event on a][event on b]`.
    #[must_use]
    pub fn correlation(&self, a: NodeId, b: NodeId) -> Option<CorrCoeffs> {
        u32::try_from(b.index())
            .ok()
            .and_then(|k| find_partner(&self.partners[a.index()], k))
            .map(|c| c.err)
    }

    /// The tracked signal-value correlation coefficients
    /// `V[value on a][value on b]` for a pair, if tracked.
    #[must_use]
    pub fn value_correlation(&self, a: NodeId, b: NodeId) -> Option<CorrCoeffs> {
        u32::try_from(b.index())
            .ok()
            .and_then(|k| find_partner(&self.partners[a.index()], k))
            .map(|c| c.val)
    }

    /// Numerical diagnostics accumulated during this run: clamp events,
    /// coefficient saturations, and correlation fallbacks.
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }
}

/// The single-pass reliability engine.
///
/// Construction precomputes ε-independent structure; [`SinglePass::run`] is
/// then `O(n · 4^arity)` per ε vector (plus correlation bookkeeping), which
/// is what makes 50-point ε sweeps cheap compared to Monte Carlo.
///
/// # Examples
///
/// ```
/// use relogic::{Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
/// use relogic_netlist::Circuit;
///
/// let mut c = Circuit::new("inv");
/// let a = c.add_input("a");
/// let g = c.not(a);
/// c.add_output("y", g);
///
/// let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
/// let engine = SinglePass::new(&c, &w, SinglePassOptions::default());
/// let r = engine.run(&GateEps::uniform(&c, 0.1));
/// assert!((r.per_output()[0] - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct SinglePass<'a> {
    circuit: &'a Circuit,
    weights: &'a Weights,
    options: SinglePassOptions,
    is_stem: Vec<bool>,
    /// Per node, where its compiled flip enumeration lives in
    /// `flip_combos` (unused for sources).
    flips: Vec<GateFlips>,
    /// Each gate's `2^arity` input combinations, those with output 0 first,
    /// each group in ascending order.
    flip_combos: Vec<u16>,
}

/// Location of one gate's flip enumeration in [`SinglePass::flip_combos`].
#[derive(Clone, Copy, Debug, Default)]
struct GateFlips {
    start: usize,
    /// Number of combinations with output 0.
    zeros: usize,
}

/// One gate's ε-independent flip enumeration: its input combinations
/// grouped by output value, each group in ascending order.
type ByOutput<'t> = [&'t [u16]; 2];

impl<'a> SinglePass<'a> {
    /// Creates an engine over `circuit` with precomputed `weights`.
    ///
    /// # Panics
    ///
    /// Panics if [`SinglePass::try_new`] would return an error — in
    /// particular if `weights` was computed for a different circuit
    /// (length mismatch).
    #[must_use]
    pub fn new(circuit: &'a Circuit, weights: &'a Weights, options: SinglePassOptions) -> Self {
        match SinglePass::try_new(circuit, weights, options) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates that the circuit is non-empty, that
    /// its node count fits the engine's compact `u32` node keys, that
    /// `weights` covers exactly the circuit's nodes, and that every gate's
    /// arity is within [`MAX_ANALYSIS_ARITY`].
    ///
    /// # Errors
    ///
    /// [`RelogicError::EmptyCircuit`], [`RelogicError::CircuitTooLarge`],
    /// [`RelogicError::LengthMismatch`], or [`RelogicError::ArityExceeded`].
    pub fn try_new(
        circuit: &'a Circuit,
        weights: &'a Weights,
        options: SinglePassOptions,
    ) -> Result<Self, RelogicError> {
        if circuit.is_empty() {
            return Err(RelogicError::EmptyCircuit);
        }
        if u32::try_from(circuit.len()).is_err() {
            return Err(RelogicError::CircuitTooLarge {
                nodes: circuit.len(),
            });
        }
        if weights.len() != circuit.len() {
            return Err(RelogicError::LengthMismatch {
                what: "weights",
                expected: circuit.len(),
                actual: weights.len(),
            });
        }
        for (id, node) in circuit.iter() {
            let arity = node.fanins().len();
            if arity > MAX_ANALYSIS_ARITY {
                return Err(RelogicError::ArityExceeded {
                    node: id,
                    arity,
                    max: MAX_ANALYSIS_ARITY,
                });
            }
        }
        let fanout = FanoutMap::build(circuit);
        let is_stem = circuit.node_ids().map(|id| fanout.is_stem(id)).collect();

        // Compile every gate's flip enumeration once: which combinations
        // `u` change the output away from each value does not depend on ε.
        let mut flips = vec![GateFlips::default(); circuit.len()];
        let mut flip_combos: Vec<u16> = Vec::new();
        for (id, node) in circuit.iter() {
            let kind = node.kind();
            if kind.is_source() {
                continue;
            }
            let k = node.fanins().len();
            let start = flip_combos.len();
            for value in [false, true] {
                // Combinations fit u16: arity is at most MAX_ANALYSIS_ARITY.
                #[allow(clippy::cast_possible_truncation)]
                flip_combos.extend(
                    (0..1usize << k)
                        .filter(|&u| kind.eval_combo(u, k) == value)
                        .map(|u| u as u16),
                );
                if !value {
                    flips[id.index()] = GateFlips {
                        start,
                        zeros: flip_combos.len() - start,
                    };
                }
            }
        }
        Ok(SinglePass {
            circuit,
            weights,
            options,
            is_stem,
            flips,
            flip_combos,
        })
    }

    /// The compiled flip enumeration of gate `id` with `arity` fanins.
    fn by_output(&self, id: NodeId, arity: usize) -> ByOutput<'_> {
        let GateFlips { start, zeros } = self.flips[id.index()];
        let combos = &self.flip_combos[start..start + (1 << arity)];
        [&combos[..zeros], &combos[zeros..]]
    }

    /// Runs the single topological pass for the failure probabilities `eps`.
    ///
    /// # Panics
    ///
    /// Panics if [`SinglePass::try_run`] would return an error — in
    /// particular if `eps` covers a different node count than the circuit.
    #[must_use]
    pub fn run(&self, eps: &GateEps) -> SinglePassResult {
        match self.try_run(eps) {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible run: validates the ε map against the circuit before the
    /// pass and applies the configured numeric policy during it.
    ///
    /// Every ε must be finite and in `[0, 1]` — or `[0, 0.5]` when
    /// [`SinglePassOptions::strict`] is set (beyond 0.5 the BSC gate
    /// computes the complement more often than the function). Under strict,
    /// a correlation fallback or a non-finite excursion also turns into
    /// [`RelogicError::NumericRange`] instead of being absorbed.
    ///
    /// # Errors
    ///
    /// [`RelogicError::LengthMismatch`], [`RelogicError::InvalidEpsilon`],
    /// or (strict only) [`RelogicError::NumericRange`].
    pub fn try_run(&self, eps: &GateEps) -> Result<SinglePassResult, RelogicError> {
        if eps.len() != self.circuit.len() {
            return Err(RelogicError::LengthMismatch {
                what: "ε map",
                expected: self.circuit.len(),
                actual: eps.len(),
            });
        }
        let max_eps = if self.options.strict { 0.5 } else { 1.0 };
        for id in self.circuit.node_ids() {
            let e = eps.get(id);
            if !e.is_finite() || !(0.0..=max_eps).contains(&e) {
                return Err(RelogicError::InvalidEpsilon {
                    node: Some(id),
                    value: e,
                    max: max_eps,
                });
            }
        }
        let result = self.run_validated(eps);
        if self.options.strict {
            let d = result.diagnostics();
            if d.correlation_fallbacks() > 0 || d.worst_excursion().is_infinite() {
                return Err(RelogicError::NumericRange {
                    context: "correlation propagation",
                    value: f64::NAN,
                    lo: 0.0,
                    hi: 1.0,
                });
            }
        }
        Ok(result)
    }

    /// The pass itself, assuming pre-validated inputs.
    fn run_validated(&self, eps: &GateEps) -> SinglePassResult {
        let n = self.circuit.len();
        let mut diag = Diagnostics::new();
        let mut p01 = vec![0.0f64; n];
        let mut p10 = vec![0.0f64; n];
        let mut partners: Vec<PartnerList> = vec![Vec::new(); n];
        let mut scratch = PropagationScratch::default();
        if self.options.correlations {
            scratch.seen = vec![u32::MAX; n];
        }

        for (id, node) in self.circuit.iter() {
            let i = id.index();
            let e = eps.get(id);
            match node.kind() {
                GateKind::Input | GateKind::Const(_) => {
                    p01[i] = e;
                    p10[i] = e;
                }
                _ => {
                    let w = self.weights.vector(id);
                    let fanins = node.fanins();
                    let by_out = self.by_output(id, fanins.len());
                    scratch.load_fanins(fanins, &p01, &p10);
                    // Without correlations every fanin skips its pair
                    // factors, which is the independence assumption.
                    let skip = if self.options.correlations {
                        scratch.load_pairs(fanins, &partners, &p01, &p10);
                        0
                    } else {
                        u32::MAX
                    };
                    let (r0, r1) = propagated_ratios(
                        w,
                        &scratch.base,
                        &scratch.pairs,
                        skip,
                        by_out,
                        &mut diag,
                    );
                    p01[i] = e + (1.0 - 2.0 * e) * r0;
                    p10[i] = e + (1.0 - 2.0 * e) * r1;

                    if self.options.correlations {
                        self.propagate_coefficients(
                            id,
                            w,
                            e,
                            by_out,
                            &mut scratch,
                            &mut partners,
                            &p01,
                            &p10,
                            &mut diag,
                        );
                    }
                }
            }
        }

        let node_delta: Vec<f64> = (0..n)
            .map(|i| {
                let sp = self.weights.signal_probs()[i];
                (1.0 - sp) * p01[i] + sp * p10[i]
            })
            .collect();
        let per_output: Vec<f64> = self
            .circuit
            .outputs()
            .iter()
            .map(|o| node_delta[o.node().index()])
            .collect();
        SinglePassResult {
            p01,
            p10,
            node_delta,
            per_output,
            partners,
            diagnostics: diag,
        }
    }

    /// Computes the error-event coefficients `C_{id,k}` (and, when value
    /// conditioning is enabled, the signal-value coefficients `V_{id,k}`)
    /// for every partner `k` correlated with any fanin of `id` (plus fanins
    /// that are stems), and registers them symmetrically. Expects
    /// `scratch.pairs` to hold the gate's fanin-pair table.
    #[allow(clippy::too_many_arguments)]
    fn propagate_coefficients(
        &self,
        id: NodeId,
        w: &[f64],
        e: f64,
        by_out: ByOutput<'_>,
        scratch: &mut PropagationScratch,
        partners: &mut [PartnerList],
        p01: &[f64],
        p10: &[f64],
        diag: &mut Diagnostics,
    ) {
        let i = id.index();
        let iu = node_key(i);
        let node = self.circuit.node(id);
        let fanins = node.fanins();
        let PropagationScratch {
            cond,
            pairs,
            candidates,
            seen,
            w_ctx,
            new_coeffs,
            ..
        } = scratch;

        // Candidate partner set: everything correlated with a fanin, plus
        // stem fanins themselves, visited in ascending node id. `seen`
        // stamps a node with the gate it was last collected for.
        candidates.clear();
        seen[i] = iu;
        for &f in fanins {
            let stem = self.is_stem[f.index()].then(|| node_key(f.index()));
            for k in partners[f.index()].iter().map(|&(k, _)| k).chain(stem) {
                if seen[k as usize] != iu {
                    seen[k as usize] = iu;
                    candidates.push(k);
                }
            }
        }
        if candidates.is_empty() {
            return;
        }
        candidates.sort_unstable();

        let sp_l = self.weights.signal_probs()[i];
        new_coeffs.clear();
        // Merge-walk cursors into each fanin's sorted partner list.
        let mut cursor = [0usize; MAX_ANALYSIS_ARITY];
        let mut fanin_pair = [None::<PairCoeffs>; MAX_ANALYSIS_ARITY];
        for &k in candidates.iter() {
            // Fanin positions that are the partner itself: their pairwise
            // coefficients with the other fanins are folded into `cond`.
            let mut skip = 0u32;
            for (j, &f) in fanins.iter().enumerate() {
                let list = &partners[f.index()];
                let at = &mut cursor[j];
                while *at < list.len() && list[*at].0 < k {
                    *at += 1;
                }
                fanin_pair[j] = list.get(*at).filter(|e| e.0 == k).map(|e| e.1);
                if f.index() == k as usize {
                    skip |= 1 << j;
                }
            }
            let fanin_pair = &fanin_pair[..fanins.len()];

            let mut coeffs = PAIR_INDEPENDENT;
            for ctx in 0..2usize {
                // Weight vector conditioned on the partner's fault-free
                // value (Fig. 4's "the terms of the weight vector W include
                // the signal probability of k", via the ref-[8] value
                // coefficients). Any overall scale cancels in the ratios.
                let w_ctx: &[f64] = if self.options.value_conditioning {
                    w_ctx.clear();
                    for (v, &wv) in w.iter().enumerate() {
                        let mut factor = 1.0f64;
                        for (j, pair) in fanin_pair.iter().enumerate() {
                            let vj = v >> j & 1;
                            if skip >> j & 1 == 1 {
                                if vj != ctx {
                                    factor = 0.0;
                                    break;
                                }
                            } else if let Some(c) = pair {
                                factor *= c.val[vj][ctx].max(0.0);
                            }
                        }
                        w_ctx.push(wv * factor);
                    }

                    // Signal-value coefficient V_{l,k}[·][ctx].
                    let mut mass = 0.0f64;
                    let mut mass1 = 0.0f64;
                    for (v, &wv) in w_ctx.iter().enumerate() {
                        mass += wv;
                        if node.kind().eval_combo(v, fanins.len()) {
                            mass1 += wv;
                        }
                    }
                    if mass > COEFF_EPS {
                        let p1_ctx = mass1 / mass;
                        coeffs.val[1][ctx] =
                            diag.clamp_coeff(ratio_or_one(p1_ctx, sp_l), 0.0, f64::INFINITY);
                        coeffs.val[0][ctx] = diag.clamp_coeff(
                            ratio_or_one(1.0 - p1_ctx, 1.0 - sp_l),
                            0.0,
                            f64::INFINITY,
                        );
                    }
                    w_ctx
                } else {
                    w
                };

                // Error-event coefficient for k's event whose fault-free
                // context is `ctx` (rise needs clean 0, fall clean 1).
                let pk = if ctx == 0 {
                    p01[k as usize]
                } else {
                    p10[k as usize]
                };
                if pk <= COEFF_EPS {
                    // Event never occurs; coefficients are irrelevant.
                    continue;
                }
                // Condition every fanin's error probabilities on k's event.
                cond.clear();
                for (j, (&f, pair)) in fanins.iter().zip(fanin_pair).enumerate() {
                    let fi = f.index();
                    if skip >> j & 1 == 1 {
                        cond.push(if ctx == 0 { (1.0, 0.0) } else { (0.0, 1.0) });
                    } else {
                        let c = pair.map_or(INDEPENDENT, |c| c.err);
                        cond.push((
                            diag.clamp_coeff(p01[fi] * c[0][ctx], 0.0, 1.0),
                            diag.clamp_coeff(p10[fi] * c[1][ctx], 0.0, 1.0),
                        ));
                    }
                }
                let (r0, r1) = propagated_ratios(w_ctx, cond, pairs, skip, by_out, diag);
                let cond_p01 = diag.clamp_prob(e + (1.0 - 2.0 * e) * r0, 0.0, 1.0);
                let cond_p10 = diag.clamp_prob(e + (1.0 - 2.0 * e) * r1, 0.0, 1.0);
                coeffs.err[0][ctx] = ratio_or_one(cond_p01, p01[i]);
                coeffs.err[1][ctx] = ratio_or_one(cond_p10, p10[i]);
            }
            if !pair_is_finite(&coeffs) {
                // Graceful degradation: a non-finite coefficient would
                // poison every downstream gate; drop the pair back to
                // independence and record the fallback.
                diag.record_fallback();
                continue;
            }
            let strength = pair_strength(&coeffs);
            if strength >= self.options.prune_tolerance {
                new_coeffs.push((k, strength, coeffs));
            }
        }

        // Enforce the partner cap, keeping the strongest correlations. The
        // sort is stable over ascending ids, so ties keep the lower id.
        if let Some(cap) = self.options.partner_cap {
            if new_coeffs.len() > cap {
                new_coeffs.sort_by(|a, b| b.1.total_cmp(&a.1));
                new_coeffs.truncate(cap);
                new_coeffs.sort_unstable_by_key(|&(k, _, _)| k);
            }
        }

        debug_assert!(partners[i].is_empty());
        for &(k, _, coeffs) in new_coeffs.iter() {
            partners[i].push((k, coeffs));
            debug_assert!(partners[k as usize]
                .last()
                .is_none_or(|&(last, _)| last < iu));
            partners[k as usize].push((iu, coeffs.transposed()));
        }
    }
}

pub(crate) const COEFF_EPS: f64 = 1e-15;

fn ratio_or_one(num: f64, den: f64) -> f64 {
    if den <= COEFF_EPS {
        1.0
    } else {
        num / den
    }
}

fn coeff_strength(c: &CorrCoeffs) -> f64 {
    c.iter()
        .flatten()
        .map(|&x| (x - 1.0).abs())
        .fold(0.0, f64::max)
}

fn pair_strength(c: &PairCoeffs) -> f64 {
    coeff_strength(&c.err).max(coeff_strength(&c.val))
}

fn pair_is_finite(c: &PairCoeffs) -> bool {
    c.err.iter().flatten().all(|x| x.is_finite()) && c.val.iter().flatten().all(|x| x.is_finite())
}

/// Buffers reused across the gates of one run.
#[derive(Default)]
struct PropagationScratch {
    base: Vec<(f64, f64)>,
    cond: Vec<(f64, f64)>,
    /// The current gate's fanin-pair coefficient table; see
    /// [`PropagationScratch::load_pairs`].
    pairs: Vec<f64>,
    candidates: Vec<u32>,
    /// Per node, the key of the gate it was last collected as a candidate
    /// for.
    seen: Vec<u32>,
    w_ctx: Vec<f64>,
    /// Surviving partners of the current gate: `(key, strength, coeffs)`.
    new_coeffs: Vec<(u32, f64, PairCoeffs)>,
}

impl PropagationScratch {
    fn load_fanins(&mut self, fanins: &[NodeId], p01: &[f64], p10: &[f64]) {
        self.base.clear();
        self.base
            .extend(fanins.iter().map(|f| (p01[f.index()], p10[f.index()])));
    }

    /// Fills the `k × k × 2 × 2` table of coefficients applied to fanin
    /// `a`'s event given fanin `b`'s event, at
    /// [`pair_index`]`(k, a, b, event on a, event on b)`. The gate's base
    /// call and every conditional call share it: partner lists change only
    /// after the gate is done.
    fn load_pairs(
        &mut self,
        fanins: &[NodeId],
        partners: &[PartnerList],
        p01: &[f64],
        p10: &[f64],
    ) {
        let k = fanins.len();
        self.pairs.clear();
        self.pairs.resize(k * k * 4, 1.0);
        for (a, &fa) in fanins.iter().enumerate() {
            let na = fa.index();
            for (b, &fb) in fanins.iter().enumerate() {
                let nb = fb.index();
                if a == b {
                    continue;
                }
                for (ea, eb) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    self.pairs[pair_index(k, a, b, ea, eb)] = if na != nb {
                        find_partner(&partners[na], node_key(nb)).map_or(1.0, |c| c.err[ea][eb])
                    } else if ea == eb {
                        // Same physical signal: events coincide exactly.
                        let p = if ea == 0 { p01[na] } else { p10[na] };
                        if p <= COEFF_EPS {
                            1.0
                        } else {
                            1.0 / p
                        }
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Position of `(a, b, event on a, event on b)` in a gate's pair table.
#[inline]
fn pair_index(k: usize, a: usize, b: usize, ea: usize, eb: usize) -> usize {
    ((a * k + b) * 2 + ea) * 2 + eb
}

/// Computes `(PW(0)/W(0), PW(1)/W(1))`: the propagated error ratios of a
/// gate, generalizing Table 1 to arbitrary kinds and arities.
///
/// `probs[j]` is fanin `j`'s `(p01, p10)` (possibly conditioned on a
/// partner event); `pairs` is the gate's fanin-pair table. Fanin positions
/// set in `skip` take no pairwise chain factors: the conditioning partner
/// itself, whose coefficients are already folded into `probs`, or every
/// fanin when correlations are off.
fn propagated_ratios(
    w: &[f64],
    probs: &[(f64, f64)],
    pairs: &[f64],
    skip: u32,
    by_out: ByOutput<'_>,
    diag: &mut Diagnostics,
) -> (f64, f64) {
    let k = probs.len();
    debug_assert_eq!(w.len(), 1 << k);
    let mut pw = [0.0f64; 2];
    let mut wsum = [0.0f64; 2];
    // Each output value's sums see its combinations in ascending order, as
    // a single ascending walk over all combinations would give them.
    for (out_v, &v) in by_out[0]
        .iter()
        .map(|v| (0, v))
        .chain(by_out[1].iter().map(|v| (1, v)))
    {
        let v = usize::from(v);
        let wv = w[v];
        wsum[out_v] += wv;
        if wv <= 0.0 {
            continue;
        }
        let mut flip_prob = 0.0f64;
        for &u in by_out[out_v ^ 1] {
            let diff = v ^ usize::from(u);
            let chained = diff & !(skip as usize);
            let mut prob = 1.0f64;
            for (j, &(p01, p10)) in probs.iter().enumerate() {
                let vj = v >> j & 1;
                let flipped = diff >> j & 1 == 1;
                let mut q = if vj == 0 { p01 } else { p10 };
                if q > 0.0 && skip >> j & 1 == 0 {
                    // Condition on the flip set (§4.1's reweighting, e.g.
                    // (1 − Pr(j₁₀)·C_ij̃)): a flipped fanin is chained on the
                    // flipped fanins before it (so each pairwise coefficient
                    // enters once), while a non-flipped fanin's flip
                    // probability is conditioned on *every* flipped fanin.
                    let upper = if flipped { j } else { k };
                    let mut rest = chained & ((1 << upper) - 1);
                    while rest != 0 {
                        let j2 = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        q *= pairs[pair_index(k, j, j2, vj, v >> j2 & 1)];
                    }
                }
                let q = diag.clamp_coeff(q, 0.0, 1.0);
                prob *= if flipped { q } else { 1.0 - q };
                if prob <= 0.0 {
                    break;
                }
            }
            flip_prob += prob;
        }
        pw[out_v] += wv * diag.clamp_prob(flip_prob, 0.0, 1.0);
    }
    let r0 = if wsum[0] > COEFF_EPS {
        pw[0] / wsum[0]
    } else {
        0.0
    };
    let r1 = if wsum[1] > COEFF_EPS {
        pw[1] / wsum[1]
    } else {
        0.0
    };
    (diag.clamp_prob(r0, 0.0, 1.0), diag.clamp_prob(r1, 0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, InputDistribution};
    use relogic_sim::exact_reliability;

    fn weights(c: &Circuit) -> Weights {
        Weights::compute(c, &InputDistribution::Uniform, Backend::Bdd)
    }

    fn run(c: &Circuit, eps: &GateEps, opts: SinglePassOptions) -> SinglePassResult {
        let w = weights(c);
        SinglePass::new(c, &w, opts).run(eps)
    }

    #[test]
    fn single_gate_delta_equals_eps() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.nand([a, b]);
        c.add_output("y", g);
        let r = run(
            &c,
            &GateEps::uniform(&c, 0.23),
            SinglePassOptions::default(),
        );
        assert!((r.per_output()[0] - 0.23).abs() < 1e-12);
        assert!((r.p01(g) - 0.23).abs() < 1e-12);
        assert!((r.p10(g) - 0.23).abs() < 1e-12);
    }

    #[test]
    fn inverter_chain_matches_exact() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g1 = c.not(a);
        let g2 = c.not(g1);
        let g3 = c.not(g2);
        c.add_output("y", g3);
        for &e in &[0.05, 0.15, 0.3, 0.5] {
            let eps = GateEps::uniform(&c, e);
            let r = run(&c, &eps, SinglePassOptions::default());
            let exact = exact_reliability(&c, eps.as_slice());
            assert!(
                (r.per_output()[0] - exact.per_output[0]).abs() < 1e-12,
                "ε={e}: {} vs {}",
                r.per_output()[0],
                exact.per_output[0]
            );
        }
    }

    #[test]
    fn tree_circuit_is_exact_without_correlations() {
        // No reconvergent fanout ⇒ the plain single pass is exact (§4).
        let mut c = Circuit::new("tree");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let e_in = c.add_input("e");
        let g1 = c.and([a, b]);
        let g2 = c.or([d, e_in]);
        let g3 = c.xor([g1, g2]);
        c.add_output("y", g3);
        for &e in &[0.02, 0.1, 0.25, 0.4] {
            let eps = GateEps::uniform(&c, e);
            let r = run(&c, &eps, SinglePassOptions::without_correlations());
            let exact = exact_reliability(&c, eps.as_slice());
            assert!(
                (r.per_output()[0] - exact.per_output[0]).abs() < 1e-10,
                "ε={e}: {} vs {}",
                r.per_output()[0],
                exact.per_output[0]
            );
        }
    }

    #[test]
    fn mixed_gate_kinds_tree_is_exact() {
        let mut c = Circuit::new("tree2");
        let ins: Vec<_> = (0..6).map(|i| c.add_input(format!("x{i}"))).collect();
        let g1 = c.nand([ins[0], ins[1]]);
        let g2 = c.nor([ins[2], ins[3]]);
        let g3 = c.xnor([ins[4], ins[5]]);
        let g4 = c.or([g1, g2]);
        let g5 = c.and([g4, g3]);
        c.add_output("y", g5);
        let eps = GateEps::uniform(&c, 0.17);
        let r = run(&c, &eps, SinglePassOptions::without_correlations());
        let exact = exact_reliability(&c, eps.as_slice());
        assert!(
            (r.per_output()[0] - exact.per_output[0]).abs() < 1e-10,
            "{} vs {}",
            r.per_output()[0],
            exact.per_output[0]
        );
    }

    #[test]
    fn duplicate_fanin_handled_by_self_correlation() {
        // g = XOR(a', a') where a' = NOT(a) is noisy: the two fanins are the
        // same wire, so their errors always cancel in the XOR; only g's own
        // ε matters.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let inv = c.not(a);
        let g = c.xor([inv, inv]);
        c.add_output("y", g);
        let eps = GateEps::uniform(&c, 0.2);
        let r = run(&c, &eps, SinglePassOptions::default());
        let exact = exact_reliability(&c, eps.as_slice());
        assert!(
            (r.per_output()[0] - exact.per_output[0]).abs() < 1e-10,
            "{} vs {}",
            r.per_output()[0],
            exact.per_output[0]
        );
        assert!((r.per_output()[0] - 0.2).abs() < 1e-10);
    }

    #[test]
    fn correlations_improve_reconvergent_accuracy() {
        // The hardest reconvergence pattern: a stem reaching an XOR along
        // two branches. Errors on the stem cancel exactly at the XOR, which
        // the independence assumption misses entirely but the correlation
        // coefficients capture.
        let mut c = Circuit::new("xor_reconv");
        let a = c.add_input("a");
        let s = c.not(a); // stem
        let p = c.buf(s);
        let q = c.buf(s);
        let g = c.xor([p, q]);
        c.add_output("y", g);
        let w = weights(&c);
        let plain = SinglePass::new(&c, &w, SinglePassOptions::without_correlations());
        let corr = SinglePass::new(&c, &w, SinglePassOptions::default());
        for &e in &[0.05, 0.1, 0.2, 0.3] {
            let eps = GateEps::uniform(&c, e);
            let exact = exact_reliability(&c, eps.as_slice()).per_output[0];
            let pe = (plain.run(&eps).per_output()[0] - exact).abs();
            let ce = (corr.run(&eps).per_output()[0] - exact).abs();
            assert!(
                ce < pe,
                "ε={e}: corrected error {ce} should beat plain {pe}"
            );
            assert!(ce < 0.02, "ε={e}: corrected error {ce} too large");
        }
    }

    #[test]
    fn moderate_reconvergence_stays_accurate() {
        // AND/OR reconvergence: both modes should be close to exact; the
        // corrected mode must stay within 1% absolute.
        let mut c = Circuit::new("reconv");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.not(a); // stem
        let p = c.and([s, b]);
        let q = c.or([s, b]);
        let g = c.and([p, q]);
        c.add_output("y", g);
        let w = weights(&c);
        let corr = SinglePass::new(&c, &w, SinglePassOptions::default());
        for &e in &[0.05, 0.1, 0.2, 0.3] {
            let eps = GateEps::uniform(&c, e);
            let exact = exact_reliability(&c, eps.as_slice()).per_output[0];
            let ce = (corr.run(&eps).per_output()[0] - exact).abs();
            assert!(ce < 0.01, "ε={e}: corrected error {ce}");
        }
    }

    #[test]
    fn stem_descendants_carry_coefficients() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.not(a);
        let p = c.and([s, b]);
        let q = c.or([s, b]);
        c.add_output("y1", p);
        c.add_output("y2", q);
        let r = run(&c, &GateEps::uniform(&c, 0.1), SinglePassOptions::default());
        // p and q both descend from stem s: coefficients must be tracked.
        assert!(r.correlation(p, q).is_some());
        assert!(r.correlation(p, s).is_some());
        // a and b are independent of each other.
        assert!(r.correlation(a, b).is_none());
    }

    #[test]
    fn zero_eps_gives_zero_delta_everywhere() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.xor([a, b]);
        let g = c.and([s, a]);
        c.add_output("y", g);
        let r = run(&c, &GateEps::zero(&c), SinglePassOptions::default());
        for id in c.node_ids() {
            assert_eq!(r.node_delta(id), 0.0);
        }
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.nand([a, b]);
        let p = c.nor([s, a]);
        let q = c.xor([s, b]);
        let g = c.and([p, q]);
        c.add_output("y", g);
        for &e in &[0.0, 0.1, 0.3, 0.5, 0.49] {
            let r = run(&c, &GateEps::uniform(&c, e), SinglePassOptions::default());
            for id in c.node_ids() {
                assert!((0.0..=1.0).contains(&r.p01(id)), "p01({id})={}", r.p01(id));
                assert!((0.0..=1.0).contains(&r.p10(id)), "p10({id})={}", r.p10(id));
                assert!((0.0..=1.0).contains(&r.node_delta(id)));
            }
        }
    }

    #[test]
    fn noisy_inputs_propagate() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.buf(a);
        c.add_output("y", g);
        let mut eps = GateEps::zero(&c);
        eps.set(a, 0.3);
        let r = run(&c, &eps, SinglePassOptions::default());
        assert!((r.per_output()[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn partner_cap_limits_tracking() {
        // A stem with many descendants; cap 1 keeps only the strongest.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.not(a);
        let g1 = c.and([s, b]);
        let g2 = c.or([s, b]);
        let g3 = c.xor([g1, g2]);
        c.add_output("y", g3);
        let opts = SinglePassOptions {
            partner_cap: Some(1),
            ..SinglePassOptions::default()
        };
        let r = run(&c, &GateEps::uniform(&c, 0.2), opts);
        // still produces sane probabilities
        assert!((0.0..=1.0).contains(&r.per_output()[0]));
    }

    #[test]
    fn value_conditioning_extension_stays_bounded() {
        // The ref-[8] value-conditioning extension must keep every
        // probability legal and track the exact result at least as well as
        // a coarse envelope on a reconvergent circuit.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.nand([a, b]);
        let p = c.and([s, b]);
        let q = c.or([s, a]);
        let g = c.xor([p, q]);
        c.add_output("y", g);
        let w = weights(&c);
        let opts = SinglePassOptions {
            value_conditioning: true,
            ..SinglePassOptions::default()
        };
        let engine = SinglePass::new(&c, &w, opts);
        for &e in &[0.05, 0.2, 0.5] {
            let eps = GateEps::uniform(&c, e);
            let r = engine.run(&eps);
            for id in c.node_ids() {
                assert!((0.0..=1.0).contains(&r.p01(id)));
                assert!((0.0..=1.0).contains(&r.p10(id)));
            }
            let exact = exact_reliability(&c, eps.as_slice()).per_output[0];
            assert!(
                (r.per_output()[0] - exact).abs() < 0.05,
                "ε={e}: {} vs {exact}",
                r.per_output()[0]
            );
        }
        // The value coefficients are exposed for inspection.
        let r = engine.run(&GateEps::uniform(&c, 0.1));
        let v = r.value_correlation(p, q).expect("pair tracked");
        assert!(v.iter().flatten().all(|&x| x >= 0.0));
    }

    #[test]
    fn example_fig2_structure_runs() {
        // The shape of the paper's Fig. 2 walkthrough: a fanout at gate 2
        // reconverging at gate 6.
        let mut c = Circuit::new("fig2");
        let x1 = c.add_input("x1");
        let x2 = c.add_input("x2");
        let x3 = c.add_input("x3");
        let g1 = c.and([x1, x2]);
        let g2 = c.or([g1, x3]); // fanout stem
        let g4 = c.nand([g2, x1]);
        let g5 = c.nor([g2, x2]);
        let g6 = c.xor([g4, g5]);
        c.add_output("y", g6);
        let eps = GateEps::uniform(&c, 0.1);
        let exact = exact_reliability(&c, eps.as_slice()).per_output[0];
        let plain = run(&c, &eps, SinglePassOptions::without_correlations()).per_output()[0];
        let corr = run(&c, &eps, SinglePassOptions::default()).per_output()[0];
        assert!((corr - exact).abs() <= (plain - exact).abs() + 1e-9);
        assert!((corr - exact).abs() < 0.05);
    }

    #[test]
    fn try_new_rejects_empty_circuit() {
        let c = Circuit::new("empty");
        let mut c2 = Circuit::new("one");
        let a = c2.add_input("a");
        c2.add_output("y", a);
        let w = weights(&c2);
        let err = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap_err();
        assert!(matches!(err, RelogicError::EmptyCircuit));
    }

    #[test]
    fn try_new_rejects_mismatched_weights() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let mut other = Circuit::new("other");
        let b = other.add_input("b");
        other.add_output("y", b);
        let w = weights(&other);
        let err = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            RelogicError::LengthMismatch {
                what: "weights",
                ..
            }
        ));
    }

    #[test]
    fn try_run_rejects_mismatched_eps() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let mut other = Circuit::new("other");
        let b = other.add_input("b");
        other.add_output("y", b);
        let w = weights(&c);
        let engine = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap();
        let err = engine.try_run(&GateEps::uniform(&other, 0.1)).unwrap_err();
        assert!(matches!(
            err,
            RelogicError::LengthMismatch { what: "ε map", .. }
        ));
    }

    #[test]
    fn strict_rejects_eps_beyond_half() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let w = weights(&c);
        let opts = SinglePassOptions {
            strict: true,
            ..SinglePassOptions::default()
        };
        let engine = SinglePass::try_new(&c, &w, opts).unwrap();
        let err = engine.try_run(&GateEps::uniform(&c, 0.6)).unwrap_err();
        match err {
            RelogicError::InvalidEpsilon { value, max, .. } => {
                assert!((value - 0.6).abs() < 1e-12);
                assert!((max - 0.5).abs() < 1e-12);
            }
            other => panic!("unexpected error: {other}"),
        }
        // The same ε is fine without strict.
        let lenient = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap();
        assert!(lenient.try_run(&GateEps::uniform(&c, 0.6)).is_ok());
    }

    #[test]
    fn reconvergent_circuit_reports_clamp_diagnostics() {
        // The XOR-reconvergence lattice drives coefficient-weighted
        // products out of [0, 1]; the diagnostics must record it.
        let mut c = Circuit::new("xor_reconv");
        let a = c.add_input("a");
        let s = c.not(a);
        let p = c.buf(s);
        let q = c.buf(s);
        let g = c.xor([p, q]);
        c.add_output("y", g);
        let r = run(&c, &GateEps::uniform(&c, 0.2), SinglePassOptions::default());
        assert!(
            !r.diagnostics().is_clean(),
            "expected clamp events on a reconvergent XOR, got {:?}",
            r.diagnostics()
        );
        assert!(r.diagnostics().worst_excursion() > 0.0);
    }

    #[test]
    fn tree_circuit_diagnostics_are_clean() {
        let mut c = Circuit::new("tree");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let r = run(&c, &GateEps::uniform(&c, 0.1), SinglePassOptions::default());
        assert!(r.diagnostics().is_clean(), "{:?}", r.diagnostics());
    }
}
