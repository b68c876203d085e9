//! Grid-vectorized single-pass sweep engine over a compiled circuit tape.
//!
//! [`crate::sweep::sweep_single_pass`] evaluates the plain §4
//! algorithm once per ε grid point, re-walking the node graph and
//! re-deriving each gate's flip enumeration (`propagated_ratios`) every
//! time. For a 50-point sweep that is 50 traversals of structure that
//! never changes across the grid.
//!
//! [`SweepTape`] lowers the ε-independent part of the uncorrelated
//! single-pass recurrence into a flat program once, and then carries the
//! *entire grid* through one traversal:
//!
//! * Per gate, the `(error-free combination v, perturbed combination u)`
//!   enumeration is compiled to a stream of *factors* — `(value row,
//!   complement?)` pairs — with the weight `w_v`, the output polarity, and
//!   the ε-independent weight sums `W(0)`, `W(1)` hoisted next to them.
//!   Gate-kind dispatch, combination evaluation, and correlation lookups
//!   all disappear from the hot loop.
//! * Per node, the engine keeps one `(p01, p10)` *vector* per slot — one
//!   lane per grid point — in structure-of-arrays form, so every factor
//!   multiplication is a contiguous elementwise loop over the grid axis
//!   that the compiler vectorizes.
//!
//! The arithmetic per lane is the same sequence of operations, in the same
//! order, as [`crate::SinglePass`] with
//! [`crate::SinglePassOptions::without_correlations`]: the same flip-sum
//! accumulation order, the same clamps through [`Diagnostics`], the same
//! `ε + (1−2ε)·r` mix, the same `W(b)` guard against [`COEFF_EPS`]. Grid
//! lanes never interact, so results are also identical for every thread
//! count and grid chunking.

use crate::single_pass::COEFF_EPS;
use crate::sweep::DeltaCurves;
use crate::weights::MAX_ANALYSIS_ARITY;
use crate::{Diagnostics, GateEps, RelogicError, Weights};
use relogic_netlist::{Circuit, NodeId};
use relogic_sim::{CancelToken, ChunkExecutor, CircuitTape};

/// Grid points carried per traversal of [`SweepTape::try_run_grid`] (the
/// vector width of the value rows). A chunk of this many ε values shares
/// one pass; the lanes are independent, so the choice only affects
/// throughput, never results. [`SweepTape::try_run_point`] carries one.
const GRID_LANES: usize = 16;

/// One compiled gate: where it writes, its arity, its ε-independent
/// weight sums, and the slice of [`SweepTape::vgroups`] that belongs to
/// it.
#[derive(Clone, Debug)]
struct GateHeader {
    slot: u32,
    arity: u32,
    wsum0: f64,
    wsum1: f64,
    vg_start: u32,
    vg_end: u32,
}

/// One error-free input combination `v` with positive weight: its weight,
/// the gate output it produces, and its run of `n_trans × arity` factors
/// in [`SweepTape::factors`].
#[derive(Clone, Debug)]
struct VGroup {
    wv: f64,
    out1: bool,
    n_trans: u32,
    f_start: u32,
}

/// Per-output δ assembly data: the output's slot and signal probability.
#[derive(Clone, Debug)]
struct OutputTap {
    slot: u32,
    signal_prob: f64,
}

/// The uncorrelated §4 recurrence compiled against a [`CircuitTape`]:
/// evaluates entire ε grids in one topological traversal.
///
/// # Examples
///
/// ```
/// use relogic::{Backend, CancelToken, InputDistribution, SweepTape, Weights};
/// use relogic_netlist::Circuit;
///
/// let mut c = Circuit::new("inv");
/// let a = c.add_input("a");
/// let g = c.not(a);
/// c.add_output("y", g);
///
/// let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
/// let tape = SweepTape::try_new(&c, &w).unwrap();
/// let curves = tape.try_run_grid(&[0.0, 0.1, 0.2], 1, &CancelToken::new()).unwrap();
/// assert!((curves.delta[1][0] - 0.1).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct SweepTape {
    n_slots: usize,
    /// Node index of each slot (for ε lookup).
    node_of_slot: Vec<u32>,
    /// Whether the slot's kind is a gate (draws ε from a uniform grid) or
    /// a source (ε = 0 under [`GateEps::try_uniform`] semantics).
    is_gate: Vec<bool>,
    gates: Vec<GateHeader>,
    vgroups: Vec<VGroup>,
    /// Factor stream: value-row indices `fanin_slot·4 + v_j + 2·c`. Row
    /// `+v_j` selects the fanin's `p01` (clean value 0) or `p10` (clean
    /// value 1) vector; `c = 1` selects the precomputed complement row
    /// `1 − q` (fanin not in the flip set) instead of `q`. Complements
    /// are materialized once per slot, so every factor is a pure
    /// multiply.
    factors: Vec<u32>,
    outputs: Vec<OutputTap>,
}

/// Result of evaluating one ε configuration on a [`SweepTape`].
#[derive(Clone, Debug)]
pub struct SweepPoint {
    per_output: Vec<f64>,
    diagnostics: Diagnostics,
}

impl SweepPoint {
    /// `δ_y` for each primary output, in declaration order.
    #[must_use]
    pub fn per_output(&self) -> &[f64] {
        &self.per_output
    }

    /// Numerical diagnostics of the run.
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }
}

impl SweepTape {
    /// Compiles the uncorrelated single-pass program for `circuit`,
    /// lowering through a freshly compiled [`CircuitTape`].
    ///
    /// # Errors
    ///
    /// The same construction errors as [`crate::SinglePass::try_new`]:
    /// [`RelogicError::EmptyCircuit`], [`RelogicError::CircuitTooLarge`],
    /// [`RelogicError::LengthMismatch`], or
    /// [`RelogicError::ArityExceeded`].
    pub fn try_new(circuit: &Circuit, weights: &Weights) -> Result<Self, RelogicError> {
        Self::validate(circuit, weights)?;
        let tape = CircuitTape::compile(circuit);
        Ok(Self::compile_validated(circuit, &tape, weights))
    }

    fn validate(circuit: &Circuit, weights: &Weights) -> Result<(), RelogicError> {
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
        Ok(())
    }

    #[allow(clippy::cast_possible_truncation)] // counts bounded by the u32 node check
    fn compile_validated(circuit: &Circuit, tape: &CircuitTape, weights: &Weights) -> Self {
        let n = tape.n_slots();
        let mut node_of_slot = Vec::with_capacity(n);
        let mut is_gate = Vec::with_capacity(n);
        let mut gates = Vec::new();
        let mut vgroups: Vec<VGroup> = Vec::new();
        let mut factors: Vec<u32> = Vec::new();

        for slot in 0..n {
            let node_idx = tape.node_of_slot(slot);
            let kind = tape.kind(slot);
            node_of_slot.push(node_idx as u32);
            is_gate.push(kind.is_gate());
            if !kind.is_gate() {
                continue;
            }

            let fanins = tape.fanins(slot);
            let k = fanins.len();
            let w = weights.vector(NodeId::from_index(node_idx));
            let vg_start = vgroups.len() as u32;
            let mut wsum = [0.0f64; 2];
            for (v, &wv) in w.iter().enumerate() {
                let out_v = usize::from(kind.eval_combo(v, k));
                wsum[out_v] += wv;
                if wv <= 0.0 {
                    continue;
                }
                let f_start = factors.len() as u32;
                let mut n_trans = 0u32;
                for u in 0..1usize << k {
                    if usize::from(kind.eval_combo(u, k)) == out_v {
                        continue;
                    }
                    n_trans += 1;
                    let diff = v ^ u;
                    for (j, &f) in fanins.iter().enumerate() {
                        let vj = (v >> j & 1) as u32;
                        let complement = diff >> j & 1 == 0;
                        factors.push(f * 4 + vj + 2 * u32::from(complement));
                    }
                }
                vgroups.push(VGroup {
                    wv,
                    out1: out_v == 1,
                    n_trans,
                    f_start,
                });
            }
            gates.push(GateHeader {
                slot: slot as u32,
                arity: k as u32,
                wsum0: wsum[0],
                wsum1: wsum[1],
                vg_start,
                vg_end: vgroups.len() as u32,
            });
        }

        let outputs = circuit
            .outputs()
            .iter()
            .map(|o| OutputTap {
                slot: tape.slot_of_node(o.node().index()) as u32,
                signal_prob: weights.signal_probs()[o.node().index()],
            })
            .collect();

        SweepTape {
            n_slots: n,
            node_of_slot,
            is_gate,
            gates,
            vgroups,
            factors,
            outputs,
        }
    }

    /// Number of slots (= nodes in the source circuit).
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Evaluates δ(ε) for every output at every value of `eps_values`
    /// (uniform per-gate ε, sources at 0 — the exact configuration of
    /// [`crate::sweep::sweep_single_pass`]), carrying 16 grid points per
    /// traversal and fanning chunks of the grid out over
    /// `threads` workers (`0` = auto-detect).
    ///
    /// `cancel` is polled at every grid-chunk hand-out (16 grid points,
    /// the check-interval granularity of the sweep engine). A fired
    /// token returns [`RelogicError::Cancelled`] — never a partial curve. A
    /// sweep that completes before the token fires is bit-identical to an
    /// undeadlined sweep at every thread count.
    ///
    /// # Errors
    ///
    /// [`RelogicError::InvalidEpsilon`] if any grid value is non-finite
    /// or outside `[0, 1]`, or [`RelogicError::Cancelled`] when `cancel`
    /// fires mid-sweep.
    pub fn try_run_grid(
        &self,
        eps_values: &[f64],
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<DeltaCurves, RelogicError> {
        for &e in eps_values {
            if !e.is_finite() || !(0.0..=1.0).contains(&e) {
                return Err(RelogicError::InvalidEpsilon {
                    node: None,
                    value: e,
                    max: 1.0,
                });
            }
        }
        let chunks = eps_values.len().div_ceil(GRID_LANES);
        let (rows, _) = ChunkExecutor::new(threads).try_map_chunks_with_state(
            chunks,
            cancel,
            "sweep_grid_chunk",
            || vec![0.0f64; self.n_slots * 4 * GRID_LANES],
            |vals, chunk| {
                let grid = &eps_values[chunk * GRID_LANES..];
                let grid = &grid[..grid.len().min(GRID_LANES)];
                let mut diag = Diagnostics::new();
                let deltas = self.run_lanes::<GRID_LANES, _>(
                    grid.len(),
                    |slot, lane| if self.is_gate[slot] { grid[lane] } else { 0.0 },
                    vals,
                    &mut diag,
                );
                Ok((deltas, diag))
            },
        )?;
        let mut delta = Vec::with_capacity(eps_values.len());
        let mut diagnostics = Diagnostics::new();
        for (rows, diag) in rows {
            delta.extend(rows);
            diagnostics.merge(&diag);
        }
        Ok(DeltaCurves {
            eps: eps_values.to_vec(),
            delta,
            diagnostics,
        })
    }

    /// Evaluates one arbitrary per-node ε configuration (a single grid
    /// lane), returning the per-output deltas.
    ///
    /// # Errors
    ///
    /// [`RelogicError::LengthMismatch`] if `eps` covers a different node
    /// count, or [`RelogicError::InvalidEpsilon`] for any non-finite or
    /// out-of-range value.
    pub fn try_run_point(&self, eps: &GateEps) -> Result<SweepPoint, RelogicError> {
        if eps.len() != self.n_slots {
            return Err(RelogicError::LengthMismatch {
                what: "ε map",
                expected: self.n_slots,
                actual: eps.len(),
            });
        }
        for i in 0..self.n_slots {
            let id = NodeId::from_index(i);
            let e = eps.get(id);
            if !e.is_finite() || !(0.0..=1.0).contains(&e) {
                return Err(RelogicError::InvalidEpsilon {
                    node: Some(id),
                    value: e,
                    max: 1.0,
                });
            }
        }
        let mut vals = vec![0.0f64; self.n_slots * 4];
        let mut diag = Diagnostics::new();
        let deltas = self.run_lanes::<1, _>(
            1,
            |slot, _| eps.get(NodeId::from_index(self.node_of_slot[slot] as usize)),
            &mut vals,
            &mut diag,
        );
        let per_output = deltas.into_iter().next().unwrap_or_default();
        Ok(SweepPoint {
            per_output,
            diagnostics: diag,
        })
    }

    /// One traversal carrying `w ≤ G` grid lanes. `eps_of(slot, lane)`
    /// supplies each slot's ε; `vals` is the `n_slots × 4 × G` value buffer
    /// (`p01`, `p10`, `1−p01`, `1−p10` rows per slot). Returns one
    /// per-output δ row per lane.
    fn run_lanes<const G: usize, E>(
        &self,
        w: usize,
        eps_of: E,
        vals: &mut [f64],
        diag: &mut Diagnostics,
    ) -> Vec<Vec<f64>>
    where
        E: Fn(usize, usize) -> f64,
    {
        // Sources: p01 = p10 = ε (no propagated component).
        for slot in 0..self.n_slots {
            if !self.is_gate[slot] {
                for lane in 0..w {
                    let e = eps_of(slot, lane);
                    vals[slot * 4 * G + lane] = e;
                    vals[(slot * 4 + 1) * G + lane] = e;
                    vals[(slot * 4 + 2) * G + lane] = 1.0 - e;
                    vals[(slot * 4 + 3) * G + lane] = 1.0 - e;
                }
            }
        }

        for h in &self.gates {
            let slot = h.slot as usize;
            let (lo, hi) = vals.split_at_mut(slot * 4 * G);
            let mut pw0 = [0.0f64; G];
            let mut pw1 = [0.0f64; G];
            for vg in &self.vgroups[h.vg_start as usize..h.vg_end as usize] {
                let mut flip = [0.0f64; G];
                let mut fi = vg.f_start as usize;
                for _ in 0..vg.n_trans {
                    // The first factor initializes `prod` directly (the
                    // skipped `1.0 ×` is an exact identity); the rest are
                    // uniform row multiplies.
                    let row = &lo[self.factors[fi] as usize * G..][..G];
                    let mut prod = [0.0f64; G];
                    prod[..w].copy_from_slice(&row[..w]);
                    for &f in &self.factors[fi + 1..fi + h.arity as usize] {
                        let row = &lo[f as usize * G..][..G];
                        for g in 0..w {
                            prod[g] *= row[g];
                        }
                    }
                    fi += h.arity as usize;
                    for g in 0..w {
                        flip[g] += prod[g];
                    }
                }
                // Vectorizable in-range pre-check: `clamp_prob` returns
                // in-range values unchanged and records nothing, so the
                // scalar path is only needed on an actual excursion
                // (NaN fails the check too).
                let mut ok = true;
                for &f in &flip[..w] {
                    ok &= (0.0..=1.0).contains(&f);
                }
                if !ok {
                    for f in flip[..w].iter_mut() {
                        *f = diag.clamp_prob(*f, 0.0, 1.0);
                    }
                }
                let pw = if vg.out1 { &mut pw1 } else { &mut pw0 };
                for g in 0..w {
                    pw[g] += vg.wv * flip[g];
                }
            }
            let dst = &mut hi[..4 * G];
            let mut r0 = [0.0f64; G];
            let mut r1 = [0.0f64; G];
            if h.wsum0 > COEFF_EPS {
                for g in 0..w {
                    r0[g] = pw0[g] / h.wsum0;
                }
            }
            if h.wsum1 > COEFF_EPS {
                for g in 0..w {
                    r1[g] = pw1[g] / h.wsum1;
                }
            }
            let mut ok = true;
            for g in 0..w {
                ok &= (0.0..=1.0).contains(&r0[g]) && (0.0..=1.0).contains(&r1[g]);
            }
            if !ok {
                for g in 0..w {
                    r0[g] = diag.clamp_prob(r0[g], 0.0, 1.0);
                    r1[g] = diag.clamp_prob(r1[g], 0.0, 1.0);
                }
            }
            for g in 0..w {
                let e = eps_of(slot, g);
                let p01 = e + (1.0 - 2.0 * e) * r0[g];
                let p10 = e + (1.0 - 2.0 * e) * r1[g];
                dst[g] = p01;
                dst[G + g] = p10;
                dst[2 * G + g] = 1.0 - p01;
                dst[3 * G + g] = 1.0 - p10;
            }
        }

        (0..w)
            .map(|g| {
                self.outputs
                    .iter()
                    .map(|o| {
                        let sp = o.signal_prob;
                        let p01 = vals[o.slot as usize * 4 * G + g];
                        let p10 = vals[(o.slot as usize * 4 + 1) * G + g];
                        (1.0 - sp) * p01 + sp * p10
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, InputDistribution, SinglePass, SinglePassOptions};
    use relogic_netlist::Circuit;

    fn reconvergent() -> Circuit {
        // Reconvergent fanout: the uncorrelated engines agree with each
        // other (that is what the tape reproduces), even where they
        // deviate from exact.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.nand([a, b]);
        let g2 = c.nor([b, d]);
        let g3 = c.xor([g1, g2]);
        let g4 = c.and([g1, g3]);
        c.add_output("y", g3);
        c.add_output("z", g4);
        c
    }

    fn weights(c: &Circuit) -> Weights {
        Weights::try_compute(c, &InputDistribution::Uniform, Backend::Bdd).unwrap()
    }

    #[test]
    fn grid_matches_per_point_single_pass() {
        let c = reconvergent();
        let w = weights(&c);
        let tape = SweepTape::try_new(&c, &w).unwrap();
        let engine =
            SinglePass::try_new(&c, &w, SinglePassOptions::without_correlations()).unwrap();
        let grid = crate::sweep::try_epsilon_grid(23, 0.0, 0.5).unwrap();
        let curves = tape.try_run_grid(&grid, 1, &CancelToken::new()).unwrap();
        for (i, &e) in grid.iter().enumerate() {
            let r = engine
                .try_run(&GateEps::try_uniform(&c, e).unwrap())
                .unwrap();
            for (k, &d) in r.per_output().iter().enumerate() {
                assert!(
                    (curves.delta[i][k] - d).abs() < 1e-12,
                    "ε={e} output {k}: {} vs {d}",
                    curves.delta[i][k]
                );
            }
        }
    }

    #[test]
    fn grid_is_thread_and_chunk_invariant() {
        let c = reconvergent();
        let w = weights(&c);
        let tape = SweepTape::try_new(&c, &w).unwrap();
        let grid = crate::sweep::try_epsilon_grid(19, 0.0, 0.4).unwrap();
        let one = tape.try_run_grid(&grid, 1, &CancelToken::new()).unwrap();
        for threads in [2, 3, 8] {
            let multi = tape
                .try_run_grid(&grid, threads, &CancelToken::new())
                .unwrap();
            assert_eq!(one.delta, multi.delta, "{threads} threads");
        }
    }

    #[test]
    fn cancelled_grid_returns_typed_error_and_completed_grid_is_identical() {
        let c = reconvergent();
        let w = weights(&c);
        let tape = SweepTape::try_new(&c, &w).unwrap();
        let grid = crate::sweep::try_epsilon_grid(19, 0.0, 0.4).unwrap();
        // Pre-fired token: typed cancellation, no partial curve.
        let fired = CancelToken::new();
        fired.cancel();
        for threads in [1, 4] {
            assert!(matches!(
                tape.try_run_grid(&grid, threads, &fired),
                Err(RelogicError::Cancelled(_))
            ));
        }
        // Generous deadline: bit-identical to the undeadlined sweep at
        // every thread count.
        let plain = tape.try_run_grid(&grid, 1, &CancelToken::new()).unwrap();
        for threads in [1, 2, 8] {
            let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
            let under = tape.try_run_grid(&grid, threads, &token).unwrap();
            assert_eq!(plain.delta, under.delta, "{threads} threads");
        }
    }

    #[test]
    fn point_matches_single_pass_on_nonuniform_eps() {
        let c = reconvergent();
        let w = weights(&c);
        let tape = SweepTape::try_new(&c, &w).unwrap();
        let engine =
            SinglePass::try_new(&c, &w, SinglePassOptions::without_correlations()).unwrap();
        let mut eps = GateEps::try_uniform(&c, 0.05).unwrap();
        // Perturb a couple of nodes, including a primary input.
        eps.try_set(c.inputs()[0], 0.2).unwrap();
        eps.try_set(c.outputs()[0].node(), 0.31).unwrap();
        let p = tape.try_run_point(&eps).unwrap();
        let r = engine.try_run(&eps).unwrap();
        for (k, &d) in r.per_output().iter().enumerate() {
            assert!((p.per_output()[k] - d).abs() < 1e-12);
        }
    }

    #[test]
    fn point_is_a_one_point_grid_bit_for_bit() {
        let c = reconvergent();
        let w = weights(&c);
        let tape = SweepTape::try_new(&c, &w).unwrap();
        for e in [0.0, 1e-6, 0.05, 0.3, 0.5, 0.9, 1.0] {
            let point = tape
                .try_run_point(&GateEps::try_uniform(&c, e).unwrap())
                .unwrap();
            let grid = tape.try_run_grid(&[e], 1, &CancelToken::new()).unwrap();
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(point.per_output()), bits(&grid.delta[0]), "ε={e}");
            assert_eq!(point.diagnostics(), &grid.diagnostics, "ε={e}");
        }
    }

    #[test]
    fn construction_errors_are_typed() {
        let empty = Circuit::new("e");
        let c = reconvergent();
        let w = weights(&c);
        assert!(matches!(
            SweepTape::try_new(&empty, &w),
            Err(RelogicError::EmptyCircuit)
        ));
        let mut other = Circuit::new("o");
        other.add_input("a");
        assert!(matches!(
            SweepTape::try_new(&other, &w),
            Err(RelogicError::LengthMismatch { .. })
        ));
        let tape = SweepTape::try_new(&c, &w).unwrap();
        assert!(matches!(
            tape.try_run_grid(&[0.1, 1.5], 1, &CancelToken::new()),
            Err(RelogicError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            tape.try_run_grid(&[f64::NAN], 1, &CancelToken::new()),
            Err(RelogicError::InvalidEpsilon { .. })
        ));
    }
}
