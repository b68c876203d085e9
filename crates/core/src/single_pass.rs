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

/// The four §4.1 error-event correlation coefficients of a signal pair,
/// indexed `[event on first][event on second]`: `C[e][f]` is
/// `Pr(first has e, second has f) / (Pr(first has e)·Pr(second has f))`,
/// each event conditioned on its signal's fault-free value. `1.0`
/// everywhere means independent.
pub type CorrCoeffs = [[f64; 2]; 2];

const INDEPENDENT: CorrCoeffs = [[1.0, 1.0], [1.0, 1.0]];

/// The same pair seen from the other signal: indices swapped.
fn transposed(c: &CorrCoeffs) -> CorrCoeffs {
    [[c[0][0], c[1][0]], [c[0][1], c[1][1]]]
}

/// A signal's tracked partners and their coefficients (indexed from this
/// signal's side), sorted by ascending node key. Node ids are topological
/// and a pair is registered when its later signal is processed, so every
/// registration appends at the end. Each entry is 40 bytes.
type PartnerList = Vec<(u32, CorrCoeffs)>;

/// Partners whose coefficients are all within this distance of 1 carry no
/// information and are not tracked.
const PRUNE_TOLERANCE: f64 = 1e-4;

/// The coefficients `list` holds for partner `key`, by binary search.
fn find_partner(list: &[(u32, CorrCoeffs)], key: u32) -> Option<&CorrCoeffs> {
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
            .copied()
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
/// Construction precomputes ε-independent structure; [`SinglePass::try_run`] is
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
/// let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd)?;
/// let engine = SinglePass::try_new(&c, &w, SinglePassOptions::default())?;
/// let r = engine.try_run(&GateEps::try_uniform(&c, 0.1)?)?;
/// assert!((r.per_output()[0] - 0.1).abs() < 1e-12);
/// # Ok::<(), relogic::RelogicError>(())
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
    /// Creates an engine over `circuit` with precomputed `weights`,
    /// validating that the circuit is non-empty, that its node count fits
    /// the engine's compact `u32` node keys, that `weights` covers exactly
    /// the circuit's nodes (it was computed for this circuit), and that
    /// every gate's arity is within [`MAX_ANALYSIS_ARITY`].
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

    /// Runs the single topological pass for the failure probabilities
    /// `eps`. Validates the ε map against the circuit before the pass and
    /// applies the configured numeric policy during it.
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
                    // The gate's own call is the one-lane instance.
                    let [[r0], [r1]] = propagated_ratios(
                        w,
                        &scratch.base,
                        &scratch.pairs,
                        &[skip],
                        1,
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

    /// Computes the error-event coefficients `C_{id,k}` for every partner
    /// `k` correlated with any fanin of `id` (plus fanins that are stems),
    /// and registers them symmetrically. Expects
    /// `scratch.pairs` to hold the gate's fanin-pair table.
    ///
    /// Every (candidate, event) conditioned call becomes one lane of a
    /// [`LaneBatch`]; the batches then run [`LANES`] calls per
    /// [`propagated_ratios`] instance, and the coefficients are assembled
    /// in ascending candidate id.
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
        let arity = fanins.len();
        let PropagationScratch {
            base,
            pairs,
            batches,
            lanes_of,
            coeff_lanes,
            new_coeffs,
        } = scratch;

        // Candidate partners: everything correlated with a fanin, plus stem
        // fanins themselves, visited in ascending node id by merging the
        // fanins' sorted partner lists. `stems` holds the stem fanins'
        // keys, ascending; `lists[j]` is the unmerged rest of fanin j's
        // list.
        let mut stems = [u32::MAX; MAX_ANALYSIS_ARITY + 1];
        let mut n_stems = 0;
        for &f in fanins {
            if self.is_stem[f.index()] {
                stems[n_stems] = node_key(f.index());
                n_stems += 1;
            }
        }
        stems[..n_stems].sort_unstable();
        let mut next_stem = 0;
        let mut lists: [&[(u32, CorrCoeffs)]; MAX_ANALYSIS_ARITY] = [&[]; MAX_ANALYSIS_ARITY];
        for (list, &f) in lists.iter_mut().zip(fanins) {
            *list = &partners[f.index()];
        }
        let lists = &mut lists[..arity];
        let mut fanin_pair = [None::<&CorrCoeffs>; MAX_ANALYSIS_ARITY];
        let mut n_lanes = 0usize;
        lanes_of.clear();
        loop {
            let mut k = stems[next_stem];
            for list in lists.iter() {
                if let Some(&(key, _)) = list.first() {
                    k = k.min(key);
                }
            }
            if k == u32::MAX {
                // Node keys are below u32::MAX: every list is exhausted.
                break;
            }
            while stems[next_stem] == k {
                next_stem += 1;
            }
            // Fanin positions that are the partner itself: their pairwise
            // coefficients with the other fanins are folded into the
            // conditioned probabilities.
            let mut skip = 0u32;
            for (j, (list, &f)) in lists.iter_mut().zip(fanins).enumerate() {
                fanin_pair[j] = match list.split_first() {
                    Some(((key, c), tail)) if *key == k => {
                        *list = tail;
                        Some(c)
                    }
                    _ => None,
                };
                if f.index() == k as usize {
                    skip |= 1 << j;
                }
            }

            let mut lanes = [None; 2];
            for (ctx, lane_slot) in lanes.iter_mut().enumerate() {
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
                let lane = n_lanes % LANES;
                if lane == 0 && n_lanes / LANES == batches.len() {
                    batches.push(LaneBatch::EMPTY);
                }
                let batch = &mut batches[n_lanes / LANES];
                // Condition every fanin's error probabilities on k's
                // event; `LaneBatch::ratios` clamps the products.
                for (j, (&[[b01], [b10]], pair)) in base.iter().zip(&fanin_pair).enumerate() {
                    let (c01, c10) = if skip >> j & 1 == 1 {
                        if ctx == 0 {
                            (1.0, 0.0)
                        } else {
                            (0.0, 1.0)
                        }
                    } else {
                        let c = pair.unwrap_or(&INDEPENDENT);
                        (b01 * c[0][ctx], b10 * c[1][ctx])
                    };
                    batch.probs[j][0][lane] = c01;
                    batch.probs[j][1][lane] = c10;
                }
                batch.skip[lane] = skip;
                *lane_slot = Some(n_lanes);
                n_lanes += 1;
            }
            lanes_of.push((k, lanes));
        }

        // Run the batches; each lane's (r0, r1) becomes the coefficient
        // pair (C[0][ctx], C[1][ctx]) of its candidate.
        coeff_lanes.clear();
        let p_own = [p01[i], p10[i]];
        for (b, batch) in batches[..n_lanes.div_ceil(LANES)].iter_mut().enumerate() {
            let lanes = (n_lanes - b * LANES).min(LANES);
            let mut r = batch.ratios(lanes, arity, w, pairs, by_out, diag);
            lane_coefficients(&mut r, lanes, e, p_own, diag);
            coeff_lanes.push(r);
        }

        new_coeffs.clear();
        for &(k, lanes) in lanes_of.iter() {
            let mut coeffs = INDEPENDENT;
            for (ctx, lane) in lanes.iter().enumerate() {
                if let Some(lane) = *lane {
                    let c = &coeff_lanes[lane / LANES];
                    coeffs[0][ctx] = c[0][lane % LANES];
                    coeffs[1][ctx] = c[1][lane % LANES];
                }
            }
            if !coeffs.iter().flatten().all(|x| x.is_finite()) {
                // Graceful degradation: a non-finite coefficient would
                // poison every downstream gate; drop the pair back to
                // independence and record the fallback.
                diag.record_fallback();
                continue;
            }
            let strength = coeff_strength(&coeffs);
            if strength >= PRUNE_TOLERANCE {
                new_coeffs.push((k, strength, coeffs));
            }
        }

        // Enforce the partner cap, keeping the strongest correlations; ties
        // keep the lower id. Selecting the first `cap` under (strength
        // descending, id ascending) picks the set a stable sort by strength
        // would keep, without sorting the rest.
        if let Some(cap) = self.options.partner_cap {
            if new_coeffs.len() > cap {
                new_coeffs.select_nth_unstable_by(cap, |a, b| {
                    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
                });
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
            partners[k as usize].push((iu, transposed(&coeffs)));
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

/// Calls evaluated together by one [`propagated_ratios`] instance in the
/// correlated pass.
const LANES: usize = 8;

/// Up to [`LANES`] conditioned calls of one gate, fanin-major:
/// `probs[j][0][lane]` is fanin `j`'s `p01` in that call, `probs[j][1][lane]`
/// its `p10`, and `skip[lane]` the call's skip mask. Padding lanes past the
/// last call hold zero probabilities, which no clamp sees out of range.
struct LaneBatch {
    probs: [[[f64; LANES]; 2]; MAX_ANALYSIS_ARITY],
    skip: [u32; LANES],
}

impl LaneBatch {
    const EMPTY: LaneBatch = LaneBatch {
        probs: [[[0.0; LANES]; 2]; MAX_ANALYSIS_ARITY],
        skip: [u32::MAX; LANES],
    };

    /// Runs the batch's first `lanes` calls of a gate with `arity` fanins,
    /// whose conditioned probabilities are still unclamped products:
    /// clamps them (the coefficient saturations a lone call counts), pads
    /// the lanes past `lanes`, and returns [`propagated_ratios`]' lanes.
    fn ratios(
        &mut self,
        lanes: usize,
        arity: usize,
        w: &[f64],
        pairs: &[f64],
        by_out: ByOutput<'_>,
        diag: &mut Diagnostics,
    ) -> [[f64; LANES]; 2] {
        for q in self.probs[..arity].iter_mut().flatten() {
            q[lanes..].fill(0.0);
            clamp_lanes(q, |l| l < lanes, Diagnostics::clamp_coeff, diag);
        }
        self.skip[lanes..].fill(u32::MAX);
        propagated_ratios(
            w,
            &self.probs[..arity],
            pairs,
            &self.skip,
            lanes,
            by_out,
            diag,
        )
    }
}

/// Turns the first `lanes` conditioned ratios `r` of a gate with failure
/// probability `e` into coefficients: the conditioned `p01`/`p10`
/// (`e + (1 − 2e)·r`, clamped) over the gate's own `own = [p01, p10]`.
fn lane_coefficients(
    r: &mut [[f64; LANES]; 2],
    lanes: usize,
    e: f64,
    own: [f64; 2],
    diag: &mut Diagnostics,
) {
    for (r, own) in r.iter_mut().zip(own) {
        for x in r.iter_mut() {
            *x = e + (1.0 - 2.0 * e) * *x;
        }
        clamp_lanes(r, |l| l < lanes, Diagnostics::clamp_prob, diag);
        for x in r.iter_mut() {
            *x = ratio_or_one(*x, own);
        }
    }
}

/// Buffers reused across the gates of one run.
#[derive(Default)]
struct PropagationScratch {
    /// The current gate's fanin probabilities as a one-lane call.
    base: Vec<[[f64; 1]; 2]>,
    /// The current gate's fanin-pair coefficient table; see
    /// [`PropagationScratch::load_pairs`].
    pairs: Vec<f64>,
    /// The current gate's conditioned calls, [`LANES`] per batch.
    batches: Vec<LaneBatch>,
    /// Per candidate partner in ascending id, its key and the lanes of its
    /// rise- and fall-conditioned calls (`None` when that event never
    /// occurs).
    lanes_of: Vec<(u32, [Option<usize>; 2])>,
    /// Per batch, the coefficients `C[0][ctx]`, `C[1][ctx]` its lanes
    /// give their candidates.
    coeff_lanes: Vec<[[f64; LANES]; 2]>,
    /// Surviving partners of the current gate: `(key, strength, coeffs)`.
    new_coeffs: Vec<(u32, f64, CorrCoeffs)>,
}

impl PropagationScratch {
    fn load_fanins(&mut self, fanins: &[NodeId], p01: &[f64], p10: &[f64]) {
        self.base.clear();
        self.base
            .extend(fanins.iter().map(|f| [[p01[f.index()]], [p10[f.index()]]]));
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
                        find_partner(&partners[na], node_key(nb)).map_or(1.0, |c| c[ea][eb])
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
        // The lane kernel relies on this: a zero chained through the
        // table stays zero (see `propagated_ratios`).
        debug_assert!(self.pairs.iter().all(|c| c.is_finite() && *c >= 0.0));
    }
}

/// Position of `(a, b, event on a, event on b)` in a gate's pair table.
#[inline]
fn pair_index(k: usize, a: usize, b: usize, ea: usize, eb: usize) -> usize {
    ((a * k + b) * 2 + ea) * 2 + eb
}

/// Computes `(PW(0)/W(0), PW(1)/W(1))` for up to `L` calls at once: the
/// propagated error ratios of a gate, generalizing Table 1 to arbitrary
/// kinds and arities. Returns `[r0 lanes, r1 lanes]`.
///
/// `probs[j][0][lane]` and `probs[j][1][lane]` are fanin `j`'s `p01` and
/// `p10` in that lane's call (possibly conditioned on a partner event);
/// `pairs` is the gate's fanin-pair table, shared by every lane. Fanin
/// positions set in a lane's `skip` mask take no pairwise chain factors in
/// that lane: the conditioning partner itself, whose coefficients are
/// already folded into `probs`, or every fanin when correlations are off.
/// Only the first `lanes` lanes are calls; the rest are padding, whose
/// clamps are never counted.
///
/// Each lane runs the operation sequence of the same call made alone (see
/// DESIGN §4). Every `probs` entry is a probability in `[0, 1]` and every
/// `pairs` entry is finite and ≥ 0, so a zero probability multiplied
/// through a chain stays the zero a lone call leaves unchained. A chain
/// factor is ×1.0 in a lane whose skip mask covers either position. A lane
/// whose product has reached 0 counts no further clamp; its product stays
/// 0, as a lone call's early exit leaves it.
fn propagated_ratios<const L: usize>(
    w: &[f64],
    probs: &[[[f64; L]; 2]],
    pairs: &[f64],
    skip: &[u32; L],
    lanes: usize,
    by_out: ByOutput<'_>,
    diag: &mut Diagnostics,
) -> [[f64; L]; 2] {
    match probs.len() {
        1 => ratios_of_arity::<L, 1>(w, probs, pairs, skip, lanes, by_out, diag),
        2 => ratios_of_arity::<L, 2>(w, probs, pairs, skip, lanes, by_out, diag),
        3 => ratios_of_arity::<L, 3>(w, probs, pairs, skip, lanes, by_out, diag),
        4 => ratios_of_arity::<L, 4>(w, probs, pairs, skip, lanes, by_out, diag),
        _ => ratios_of_arity::<L, 0>(w, probs, pairs, skip, lanes, by_out, diag),
    }
}

/// [`propagated_ratios`] for arity `K`, or for any arity when `K` is 0.
#[inline(always)]
fn ratios_of_arity<const L: usize, const K: usize>(
    w: &[f64],
    probs: &[[[f64; L]; 2]],
    pairs: &[f64],
    skip: &[u32; L],
    lanes: usize,
    by_out: ByOutput<'_>,
    diag: &mut Diagnostics,
) -> [[f64; L]; 2] {
    let k = if K == 0 { probs.len() } else { K };
    let probs = &probs[..k];
    debug_assert_eq!(w.len(), 1 << k);
    debug_assert!((1..=L).contains(&lanes));
    debug_assert!(probs
        .iter()
        .flatten()
        .flatten()
        .all(|q| (0.0..=1.0).contains(q)));
    // Positions every call skips take no chain at all; a position only some
    // calls skip takes ×1.0 in those lanes.
    let skip_all = skip[..lanes].iter().fold(u32::MAX, |acc, &s| acc & s) as usize;
    let skip_some = skip[..lanes].iter().fold(0, |acc, &s| acc | s) as usize & !skip_all;
    let mut pw = [[0.0f64; L]; 2];
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
        let mut flip_prob = [0.0f64; L];
        for &u in by_out[out_v ^ 1] {
            let diff = v ^ usize::from(u);
            let chained = diff & !skip_all;
            // A lane is live while its product is positive. A live lane's
            // factors are clamped into [0, 1]; a dead lane's product is 0
            // and stays 0 whatever its factors.
            let mut prob = [1.0f64; L];
            for (j, pj) in probs.iter().enumerate() {
                let vj = v >> j & 1;
                let flipped = diff >> j & 1 == 1;
                let mut q = pj[vj];
                // Condition on the flip set (§4.1's reweighting, e.g.
                // (1 − Pr(j₁₀)·C_ij̃)): a flipped fanin is chained on the
                // flipped fanins before it (so each pairwise coefficient
                // enters once), while a non-flipped fanin's flip
                // probability is conditioned on *every* flipped fanin.
                let upper = if flipped { j } else { k };
                let mut rest = chained & ((1 << upper) - 1);
                // An unchained factor is a probability already, which a
                // clamp passes through unchanged and uncounted.
                if skip_all >> j & 1 == 0 && rest != 0 {
                    while rest != 0 {
                        let j2 = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let c = pairs[pair_index(k, j, j2, vj, v >> j2 & 1)];
                        let both = 1 << j | 1 << j2;
                        if skip_some & both == 0 {
                            for x in &mut q {
                                *x *= c;
                            }
                        } else {
                            for (x, &s) in q.iter_mut().zip(skip) {
                                *x *= if s as usize & both == 0 { c } else { 1.0 };
                            }
                        }
                    }
                    let live = |l| l < lanes && prob[l] > 0.0;
                    clamp_lanes(&mut q, live, Diagnostics::clamp_coeff, diag);
                }
                for (p, &x) in prob.iter_mut().zip(&q) {
                    *p *= if flipped { x } else { 1.0 - x };
                }
            }
            for (f, &p) in flip_prob.iter_mut().zip(&prob) {
                *f += p;
            }
        }
        clamp_lanes(&mut flip_prob, |l| l < lanes, Diagnostics::clamp_prob, diag);
        for (acc, &f) in pw[out_v].iter_mut().zip(&flip_prob) {
            *acc += wv * f;
        }
    }
    let mut r = [[0.0f64; L]; 2];
    for (r, (pw, wsum)) in r.iter_mut().zip(pw.iter().zip(wsum)) {
        if wsum > COEFF_EPS {
            for (x, &p) in r.iter_mut().zip(pw) {
                *x = p / wsum;
            }
        }
        clamp_lanes(r, |l| l < lanes, Diagnostics::clamp_prob, diag);
    }
    r
}

/// Passes every lane of `x` that `counted` selects through `clamp` into
/// `[0, 1]`. In-range values come out of a clamp unchanged and uncounted,
/// so the per-lane pass runs only when some lane is out of range (NaN
/// included).
#[inline(always)]
fn clamp_lanes<const L: usize>(
    x: &mut [f64; L],
    counted: impl Fn(usize) -> bool,
    clamp: impl Fn(&mut Diagnostics, f64, f64, f64) -> f64,
    diag: &mut Diagnostics,
) {
    let in_range = x.iter().fold(true, |ok, v| ok & (0.0..=1.0).contains(v));
    if in_range {
        return;
    }
    for (l, v) in x.iter_mut().enumerate() {
        if counted(l) {
            *v = clamp(diag, *v, 0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, InputDistribution};
    use relogic_sim::exact_reliability;

    fn weights(c: &Circuit) -> Weights {
        Weights::try_compute(c, &InputDistribution::Uniform, Backend::Bdd).unwrap()
    }

    fn run(c: &Circuit, eps: &GateEps, opts: SinglePassOptions) -> SinglePassResult {
        let w = weights(c);
        SinglePass::try_new(c, &w, opts)
            .unwrap()
            .try_run(eps)
            .unwrap()
    }

    /// The scalar kernel the lane kernel replaced, kept verbatim as its
    /// oracle. Computes `(PW(0)/W(0), PW(1)/W(1))`: the propagated error
    /// ratios of a gate, generalizing Table 1 to arbitrary kinds and arities.
    ///
    /// `probs[j]` is fanin `j`'s `(p01, p10)` (possibly conditioned on a
    /// partner event); `pairs` is the gate's fanin-pair table. Fanin positions
    /// set in `skip` take no pairwise chain factors: the conditioning partner
    /// itself, whose coefficients are already folded into `probs`, or every
    /// fanin when correlations are off.
    fn scalar_propagated_ratios(
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

    /// The ε values the oracle test draws fanin probabilities and gate
    /// failure probabilities from.
    const ORACLE_EPS: [f64; 5] = [0.0, 1e-6, 0.05, 0.5, 1.0];

    /// One gate fed to both kernels: `arity` fanins over fewer signals (so
    /// some fanins repeat and `load_pairs` takes its same-signal branch), a
    /// random truth table and weight vector with zero weights, partner
    /// coefficients up to 4 (chained products leave [0, 1]), and `calls`
    /// conditioned calls with mixed skip masks, evaluated [`LANES`] at a
    /// time so the last batch has padding lanes. Every `r0`/`r1`, every
    /// coefficient and every `Diagnostics` field must match bit for bit.
    /// Returns the diagnostics.
    fn assert_lanes_match_oracle(arity: usize, calls: usize, eps: f64, seed: u64) -> Diagnostics {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let case = format!("arity {arity}, {calls} calls, ε={eps}, seed {seed}");
        let prob = |rng: &mut SmallRng| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => 1.0,
            _ => eps + (1.0 - 2.0 * eps) * rng.gen::<f64>(),
        };
        let signals = rng.gen_range(1..=arity);
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| NodeId::from_index(rng.gen_range(0..signals)))
            .collect();
        let p01: Vec<f64> = (0..signals).map(|_| prob(&mut rng)).collect();
        let p10: Vec<f64> = (0..signals).map(|_| prob(&mut rng)).collect();
        let mut partners: Vec<PartnerList> = vec![Vec::new(); signals];
        for (a, list) in partners.iter_mut().enumerate() {
            for b in 0..signals {
                if a != b && rng.gen_bool(0.7) {
                    let mut c = INDEPENDENT;
                    c.iter_mut()
                        .flatten()
                        .for_each(|x| *x = rng.gen_range(0.0..4.0));
                    list.push((node_key(b), c));
                }
            }
        }
        let mut scratch = PropagationScratch::default();
        scratch.load_fanins(&fanins, &p01, &p10);
        scratch.load_pairs(&fanins, &partners, &p01, &p10);
        let table: Vec<bool> = (0..1 << arity).map(|_| rng.gen()).collect();
        let table = &table;
        let combos: Vec<u16> = [false, true]
            .into_iter()
            .flat_map(|out| (0..1u16 << arity).filter(move |&u| table[usize::from(u)] == out))
            .collect();
        let zeros = table.iter().filter(|&&t| !t).count();
        let by_out: ByOutput<'_> = [&combos[..zeros], &combos[zeros..]];
        let w: Vec<f64> = (0..1 << arity)
            .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen() })
            .collect();
        let own = [prob(&mut rng), prob(&mut rng)];

        let mut oracle_diag = Diagnostics::new();
        let mut lane_diag = Diagnostics::new();
        // The gate's own call, correlated and not.
        for skip in [0, u32::MAX] {
            let base: Vec<(f64, f64)> = scratch.base.iter().map(|&[[a], [b]]| (a, b)).collect();
            let want =
                scalar_propagated_ratios(&w, &base, &scratch.pairs, skip, by_out, &mut oracle_diag);
            let [[r0], [r1]] = propagated_ratios(
                &w,
                &scratch.base,
                &scratch.pairs,
                &[skip],
                1,
                by_out,
                &mut lane_diag,
            );
            assert_eq!(
                (r0.to_bits(), r1.to_bits()),
                (want.0.to_bits(), want.1.to_bits()),
                "{case}: one-lane call, skip {skip:#x}"
            );
        }
        for first in (0..calls).step_by(LANES) {
            let lanes = (calls - first).min(LANES);
            // Stale values in every lane, as a reused batch holds them.
            let mut batch = LaneBatch {
                probs: [[[f64::NAN; LANES]; 2]; MAX_ANALYSIS_ARITY],
                skip: [0; LANES],
            };
            let mut want = Vec::new();
            for lane in 0..lanes {
                let ctx = rng.gen_range(0..2);
                let skip = if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(0..1u32 << arity)
                };
                let mut cond = Vec::new();
                for (j, &f) in fanins.iter().enumerate() {
                    let (c01, c10) = if skip >> j & 1 == 1 {
                        if ctx == 0 {
                            (1.0, 0.0)
                        } else {
                            (0.0, 1.0)
                        }
                    } else {
                        let scale = |rng: &mut SmallRng| {
                            if rng.gen_bool(0.3) {
                                1.0
                            } else {
                                rng.gen_range(0.0..3.0)
                            }
                        };
                        (
                            p01[f.index()] * scale(&mut rng),
                            p10[f.index()] * scale(&mut rng),
                        )
                    };
                    batch.probs[j][0][lane] = c01;
                    batch.probs[j][1][lane] = c10;
                    if skip >> j & 1 == 1 {
                        cond.push((c01, c10));
                    } else {
                        cond.push((
                            oracle_diag.clamp_coeff(c01, 0.0, 1.0),
                            oracle_diag.clamp_coeff(c10, 0.0, 1.0),
                        ));
                    }
                }
                batch.skip[lane] = skip;
                let (r0, r1) = scalar_propagated_ratios(
                    &w,
                    &cond,
                    &scratch.pairs,
                    skip,
                    by_out,
                    &mut oracle_diag,
                );
                let coeff = |r: f64, own: f64, d: &mut Diagnostics| {
                    ratio_or_one(d.clamp_prob(eps + (1.0 - 2.0 * eps) * r, 0.0, 1.0), own)
                };
                let c0 = coeff(r0, own[0], &mut oracle_diag);
                let c1 = coeff(r1, own[1], &mut oracle_diag);
                want.push([r0, r1, c0, c1]);
            }
            let mut r = batch.ratios(lanes, arity, &w, &scratch.pairs, by_out, &mut lane_diag);
            let ratios = r;
            lane_coefficients(&mut r, lanes, eps, own, &mut lane_diag);
            for (lane, want) in want.iter().enumerate() {
                let got = [ratios[0][lane], ratios[1][lane], r[0][lane], r[1][lane]];
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{case}: call {} (r0, r1, C0, C1)",
                    first + lane
                );
            }
        }
        let fields = |d: &Diagnostics| {
            (
                d.coeff_saturations(),
                d.prob_clamps(),
                d.correlation_fallbacks(),
                d.worst_excursion().to_bits(),
            )
        };
        assert_eq!(
            fields(&lane_diag),
            fields(&oracle_diag),
            "{case}: diagnostics"
        );
        lane_diag
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        #[test]
        fn lane_kernel_matches_the_scalar_oracle(seed in proptest::prelude::any::<u64>()) {
            let mut all = Diagnostics::new();
            for arity in 1..=MAX_ANALYSIS_ARITY {
                for calls in 1..=LANES + 1 {
                    for (n, &eps) in ORACLE_EPS.iter().enumerate() {
                        // Wide gates cost 4^arity per call: they run
                        // every lane count, but one ε per count.
                        if arity > 5 && (calls + n) % ORACLE_EPS.len() != 0 {
                            continue;
                        }
                        let case_seed = seed ^ (arity * 1000 + calls * 10 + n) as u64;
                        all.merge(&assert_lanes_match_oracle(arity, calls, eps, case_seed));
                    }
                }
            }
            // The inputs must reach both kinds of clamp, or the comparison
            // says nothing about the lanes' clamp bookkeeping.
            assert!(all.coeff_saturations() > 0 && all.prob_clamps() > 0, "{all:?}");
        }
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
            &GateEps::try_uniform(&c, 0.23).unwrap(),
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
            let eps = GateEps::try_uniform(&c, e).unwrap();
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
            let eps = GateEps::try_uniform(&c, e).unwrap();
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
        let eps = GateEps::try_uniform(&c, 0.17).unwrap();
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
        let eps = GateEps::try_uniform(&c, 0.2).unwrap();
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
        let plain = SinglePass::try_new(&c, &w, SinglePassOptions::without_correlations()).unwrap();
        let corr = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap();
        for &e in &[0.05, 0.1, 0.2, 0.3] {
            let eps = GateEps::try_uniform(&c, e).unwrap();
            let exact = exact_reliability(&c, eps.as_slice()).per_output[0];
            let pe = (plain.try_run(&eps).unwrap().per_output()[0] - exact).abs();
            let ce = (corr.try_run(&eps).unwrap().per_output()[0] - exact).abs();
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
        let corr = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap();
        for &e in &[0.05, 0.1, 0.2, 0.3] {
            let eps = GateEps::try_uniform(&c, e).unwrap();
            let exact = exact_reliability(&c, eps.as_slice()).per_output[0];
            let ce = (corr.try_run(&eps).unwrap().per_output()[0] - exact).abs();
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
        let r = run(
            &c,
            &GateEps::try_uniform(&c, 0.1).unwrap(),
            SinglePassOptions::default(),
        );
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
            let r = run(
                &c,
                &GateEps::try_uniform(&c, e).unwrap(),
                SinglePassOptions::default(),
            );
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
        eps.try_set(a, 0.3).unwrap();
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
        let r = run(&c, &GateEps::try_uniform(&c, 0.2).unwrap(), opts);
        // still produces sane probabilities
        assert!((0.0..=1.0).contains(&r.per_output()[0]));
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
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();
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
        let err = engine
            .try_run(&GateEps::try_uniform(&other, 0.1).unwrap())
            .unwrap_err();
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
        let err = engine
            .try_run(&GateEps::try_uniform(&c, 0.6).unwrap())
            .unwrap_err();
        match err {
            RelogicError::InvalidEpsilon { value, max, .. } => {
                assert!((value - 0.6).abs() < 1e-12);
                assert!((max - 0.5).abs() < 1e-12);
            }
            other => panic!("unexpected error: {other}"),
        }
        // The same ε is fine without strict.
        let lenient = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap();
        assert!(lenient
            .try_run(&GateEps::try_uniform(&c, 0.6).unwrap())
            .is_ok());
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
        let r = run(
            &c,
            &GateEps::try_uniform(&c, 0.2).unwrap(),
            SinglePassOptions::default(),
        );
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
        let r = run(
            &c,
            &GateEps::try_uniform(&c, 0.1).unwrap(),
            SinglePassOptions::default(),
        );
        assert!(r.diagnostics().is_clean(), "{:?}", r.diagnostics());
    }
}
