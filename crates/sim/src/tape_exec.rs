//! Wide multi-word Monte Carlo execution over a compiled [`CircuitTape`].
//!
//! One tape traversal evaluates `64 × DEFAULT_LANES` patterns: each slot
//! carries [`DEFAULT_LANES`] consecutive 64-pattern blocks as `u64` lanes,
//! and the clean and noisy circuits are computed in the same pass. Fault
//! masks are produced by a flat pre-pass over the noisy slots
//! ([`TapeRun::fill_masks`]) that batches [`MASK_BATCH_WORDS`] independent
//! words per comparator call, so the latency-bound RNG pipeline stays
//! full.
//!
//! # Determinism contract
//!
//! The tape engine uses a *position-based* (counter-based) RNG protocol:
//! every random word is a pure function of
//!
//! ```text
//! (run seed, global block index, node index, stream, digit)
//! ```
//!
//! mixed through a SplitMix64 finalizer ([`mix64`]). No RNG state is ever
//! advanced, so the estimate is **bit-identical for every thread count by
//! construction** — work distribution and lane grouping cannot change
//! which word any (block, node) cell draws. Words are keyed by *node*
//! index (not slot), so the numbers are also invariant under tape-layout
//! changes.
//!
//! Biased Bernoulli(ε) words realize the exact same quantized probability
//! as [`BiasedBits`] (`⌊ε·2^r⌉ / 2^r`), but through an MSB-first bitsliced
//! comparison ([`biased_word`]) that draws one uniform *digit plane* at a
//! time and stops as soon as all 64 lanes have decided — ~2 planes in
//! expectation plus one per resolved lane-set, instead of one word per
//! resolution digit. This is where most of the tape engine's Monte Carlo
//! speedup comes from.
//!
//! The pattern budget is cut into chunks of [`CHUNK_BLOCKS`] blocks, the
//! unit of work distribution and cancellation polling. Per-chunk tallies
//! are exact integer counters merged in chunk order, and since no word
//! depends on which chunk or thread computed it, the chunk width is free
//! to change without changing any estimate.

use crate::bits::DEFAULT_RESOLUTION;
use crate::cancel::{CancelToken, Cancelled};
use crate::exec::ChunkExecutor;
use crate::monte_carlo::{
    finalize_counts, validate_run, MonteCarloConfig, NodeErrorStats, ReliabilityEstimate,
};
use crate::tape::CircuitTape;
use crate::{BiasedBits, SimError};
use relogic_netlist::{Circuit, GateKind};

/// Lane width of the tape Monte Carlo kernel (`u64×8` = 512 patterns per
/// tape step). Lane grouping never changes the estimate — only
/// throughput; 8 lanes keeps the biased-comparator pipeline full on
/// current x86-64 cores.
pub const DEFAULT_LANES: usize = 8;

/// Short name for [`DEFAULT_LANES`] inside the kernel.
const L: usize = DEFAULT_LANES;

/// 64-pattern blocks per chunk: the granularity at which work is handed to
/// threads and the [`CancelToken`] is polled (1024 patterns, coarse enough
/// to amortize executor handoff, fine enough to load-balance modest
/// budgets). Never changes an estimate — see the module docs.
pub const CHUNK_BLOCKS: u64 = 16;

/// Exact integer tallies from one chunk (or the merge of many).
#[derive(Clone, Debug)]
pub(crate) struct FaultCounts {
    pub(crate) out_err: Vec<u64>,
    pub(crate) any_err: u64,
    pub(crate) joint_err: Vec<u64>,
    pub(crate) node_stats: Option<NodeErrorStats>,
}

impl FaultCounts {
    fn new(outputs: usize, joint: usize, nodes: Option<usize>) -> Self {
        FaultCounts {
            out_err: vec![0; outputs],
            any_err: 0,
            joint_err: vec![0; joint],
            node_stats: nodes.map(NodeErrorStats::new),
        }
    }

    /// Adds another tally into this one (pure integer sums, so the merge
    /// is order-independent).
    fn merge(&mut self, other: &FaultCounts) {
        for (a, b) in self.out_err.iter_mut().zip(&other.out_err) {
            *a += b;
        }
        self.any_err += other.any_err;
        for (a, b) in self.joint_err.iter_mut().zip(&other.joint_err) {
            *a += b;
        }
        if let (Some(mine), Some(theirs)) = (self.node_stats.as_mut(), other.node_stats.as_ref()) {
            mine.merge(theirs);
        }
    }
}

/// Stream discriminant for input-sampling words.
const STREAM_INPUT: u64 = 0;
/// Stream discriminant for fault-mask words.
const STREAM_MASK: u64 = 1;

/// 2⁶⁴/φ, the SplitMix64 stream increment.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer: a bijective avalanche mix.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Base key of one `(block, node, stream)` cell under `seed`. Digit `t` of
/// the cell's word sequence is `mix64(base + t·φ⁻¹·2⁶⁴)` (SplitMix64 with
/// the base as its state).
///
/// A single weighted sum plus one `mix64` suffices here: every *consumed*
/// word passes through [`digit_word`]'s second `mix64`, so structured
/// collisions in the base (two cells whose raw sums differ by a small
/// multiple of φ⁻¹·2⁶⁴) cannot produce correlated output words. The mask
/// kernel is latency-bound on exactly this function, so the second mix is
/// real throughput.
#[inline(always)]
fn cell_key(seed: u64, block: u64, node: u64, stream: u64) -> u64 {
    let lane = block
        .wrapping_mul(PHI)
        .wrapping_add(node.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(stream.wrapping_mul(0x1656_67B1_9E37_79F9));
    mix64(seed ^ lane)
}

/// Digit plane `t` of a cell's word sequence.
#[inline(always)]
fn digit_word(base: u64, t: u32) -> u64 {
    mix64(base.wrapping_add(u64::from(t).wrapping_mul(PHI)))
}

/// One 64-lane Bernoulli(`quantized`/2^`resolution`) word from a cell key.
///
/// Bit `ℓ` is set iff the `resolution`-digit uniform binary fraction of
/// lane `ℓ` (digit plane `t` supplies digit `t`, most significant first)
/// is strictly less than the quantized probability — an exact integer
/// comparison `U < q`, bitsliced across all 64 lanes. The loop exits when
/// every lane has decided (`eq == 0`, ~2 extra planes in expectation) and
/// never visits digits below `q`'s lowest set bit (they cannot flip the
/// comparison).
#[cfg_attr(not(test), allow(dead_code))] // reference for `biased_group`, exercised by tests
#[inline(always)]
fn biased_word(base: u64, quantized: u64, resolution: u32) -> u64 {
    if quantized == 0 {
        return 0;
    }
    if quantized >= 1u64 << resolution {
        return u64::MAX;
    }
    let planes = resolution - quantized.trailing_zeros();
    let mut lt = 0u64;
    let mut eq = u64::MAX;
    for t in 0..planes {
        let u = digit_word(base, t);
        if quantized >> (resolution - 1 - t) & 1 == 1 {
            lt |= eq & !u;
            eq &= u;
        } else {
            eq &= !u;
        }
        if eq == 0 {
            break;
        }
    }
    lt
}

/// Digit planes the group kernel runs unconditionally before it starts
/// checking for early exit. With `64·W` comparison lanes in flight the
/// expected last-decider sits near `log₂(64·W) ≈ 10–12` planes, so
/// branching earlier than this only costs mispredictions; the unconditional
/// prefix keeps the hot loop branch-free and lets the per-plane multiplies
/// from every lane pipeline.
const UNCHECKED_PLANES: u32 = 12;

/// [`biased_word`] over `W` independent words at once, plane-major: each
/// digit plane draws `W` words (no serial dependency, so the multiplies
/// pipeline and vectorize) and the early exit is decided once per plane
/// for the whole group, after an unconditional [`UNCHECKED_PLANES`]-plane
/// prefix. `W` may span several lane groups — the mask pre-pass batches
/// `16 / L` slots per call to fill the machine's vector units.
///
/// Every update to an already-decided word is a no-op (`eq = 0` freezes
/// it, and a plane with digit 0 only clears `eq` bits), so `out[l]` is
/// exactly `biased_word(bases[l], …)` regardless of grouping — the group
/// formulation cannot perturb the estimate.
#[inline(always)]
fn biased_group<const W: usize>(
    bases: &[u64; W],
    quantized: u64,
    resolution: u32,
    out: &mut [u64; W],
) {
    if quantized == 0 {
        *out = [0; W];
        return;
    }
    if quantized >= 1u64 << resolution {
        *out = [u64::MAX; W];
        return;
    }
    *out = [0; W];
    let mut eqs = [u64::MAX; W];
    let planes = resolution - quantized.trailing_zeros();
    let prefix = planes.min(UNCHECKED_PLANES);
    for t in 0..prefix {
        // Branch-free digit handling: `qb` is all-ones iff digit `t` of
        // the quantized probability is 1.
        let qb = 0u64.wrapping_sub(quantized >> (resolution - 1 - t) & 1);
        for l in 0..W {
            let u = digit_word(bases[l], t);
            out[l] |= eqs[l] & !u & qb;
            eqs[l] &= u ^ !qb;
        }
    }
    let mut alive = 0u64;
    for &eq in &eqs {
        alive |= eq;
    }
    if alive == 0 {
        return;
    }
    for t in prefix..planes {
        let qb = 0u64.wrapping_sub(quantized >> (resolution - 1 - t) & 1);
        let mut alive = 0u64;
        for l in 0..W {
            let u = digit_word(bases[l], t);
            out[l] |= eqs[l] & !u & qb;
            eqs[l] &= u ^ !qb;
            alive |= eqs[l];
        }
        if alive == 0 {
            break;
        }
    }
}

/// Mask pre-pass batch width: every `biased_group` call in the pre-pass
/// spans 16 words (`16 / L` slots). The plane loop is latency-bound on
/// `mix64`, so each plane must present enough independent words to
/// saturate the vector units.
const MASK_BATCH_WORDS: usize = 16;

/// Runtime detection for the tape kernel's AVX-512 fast path.
///
/// The kernel itself is plain safe Rust; when the host supports the
/// AVX-512 subsets below, chunks run through an `#[target_feature]`
/// clone of the same source so the autovectorizer can use 64-bit lane
/// multiplies (`vpmullq`, AVX-512DQ; the VL subset unlocks its 256-bit
/// form, which pipelines better than the 512-bit one on double-pumped
/// implementations). Identical integer dataflow either way, so detection
/// can never change an estimate.
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
}

/// All noisy slots sharing one quantized fault probability, in slot order.
/// The mask pre-pass walks classes so each wide `biased_group` call has a
/// single `quantized` value across its whole batch.
struct MaskClass {
    quantized: u64,
    /// `(slot, hoisted node term of the slot's cell key)` pairs.
    slots: Vec<(u32, u64)>,
}

/// Elementwise unary gate kernel over one slot's lane window.
#[inline(always)]
fn zip1(dst: &mut [u64], a: &[u64], f: impl Fn(u64) -> u64) {
    for (d, &x) in dst.iter_mut().zip(a) {
        *d = f(x);
    }
}

/// Elementwise binary gate kernel over one slot's lane window. The zip
/// bounds the loop by slice lengths, so the body compiles to straight
/// vector ops.
#[inline(always)]
fn zip2(dst: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
}

/// Everything a worker needs to simulate chunks of a run: the tape plus
/// per-slot quantized probabilities and the tally configuration.
struct TapeRun<'a> {
    tape: &'a CircuitTape,
    /// Per-slot quantized fault probability (0 = noise-free).
    mask_q: Vec<u64>,
    /// Noisy slots grouped by quantized probability, for the mask
    /// pre-pass.
    mask_classes: Vec<MaskClass>,
    /// Whether the run uses the AVX-512 paths: the hand-vectorized mask
    /// comparator and the AVX-512-compiled kernel clone (detected once
    /// per run; every path emits identical words).
    simd: bool,
    /// Fault-mask resolution (binary digits).
    resolution: u32,
    /// Per-slot quantized input bias; `None` = unbiased (p = ½, one word).
    /// Only consulted at `Input` slots.
    sample_q: Vec<Option<u64>>,
    /// Output slots paired with their node-declared tally index.
    output_slots: Vec<usize>,
    joint_pairs: &'a [(usize, usize)],
    track_nodes: bool,
    seed: u64,
    blocks: u64,
}

/// Per-worker scratch. `vals` interleaves the clean and noisy planes as
/// one `n_slots × 2L` buffer — lanes `0..L` of a slot are the clean
/// blocks, lanes `L..2L` the matching noisy blocks — so a single gate
/// loop over `2L` lanes evaluates both circuits at double vector width;
/// only the trailing mask XOR distinguishes them. `masks` is the
/// pre-pass mask plane, `n_slots × L`, written (and read) only at slots
/// with a nonzero quantized probability, so it never needs re-zeroing.
struct TapeScratch {
    vals: Vec<u64>,
    masks: Vec<u64>,
}

impl TapeScratch {
    fn new(n_slots: usize) -> TapeScratch {
        TapeScratch {
            vals: vec![0u64; n_slots * L * 2],
            masks: vec![0u64; n_slots * L],
        }
    }
}

impl TapeRun<'_> {
    fn counts(&self) -> FaultCounts {
        FaultCounts::new(
            self.output_slots.len(),
            self.joint_pairs.len(),
            self.track_nodes.then(|| self.tape.n_slots()),
        )
    }

    fn run(&self, threads: usize, cancel: &CancelToken) -> Result<FaultCounts, Cancelled> {
        let chunks = usize::try_from(self.blocks.div_ceil(CHUNK_BLOCKS)).unwrap_or(usize::MAX);
        let executor = ChunkExecutor::new(threads);
        let n_slots = self.tape.n_slots();
        let (tallies, _) = executor.try_map_chunks_with_state(
            chunks,
            cancel,
            "tape_chunk",
            || TapeScratch::new(n_slots),
            |scratch, chunk| Ok(self.run_chunk(scratch, chunk)),
        )?;
        let mut merged = self.counts();
        for tally in &tallies {
            merged.merge(tally);
        }
        Ok(merged)
    }

    /// Simulates one chunk, routing through the AVX-512-compiled clone of
    /// the kernel when the host supports it. The clone is the *same*
    /// source (`run_chunk_impl` is `#[inline(always)]`, so it and every
    /// helper it calls are recompiled inside the `#[target_feature]`
    /// wrapper); only the instruction selection differs, and the kernel
    /// is pure integer arithmetic, so the counts are identical either
    /// way.
    fn run_chunk(&self, scratch: &mut TapeScratch, chunk: usize) -> FaultCounts {
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // SAFETY: `simd` is only set when `avx512_available()`
            // reported support for the required subsets.
            return unsafe { self.run_chunk_avx512(scratch, chunk) };
        }
        self.run_chunk_impl(scratch, chunk)
    }

    /// [`TapeRun::run_chunk_impl`] compiled with the AVX-512 feature set,
    /// so the gate and tally loops autovectorize at 512-bit width even in
    /// a baseline `x86-64` build.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512F and AVX-512DQ.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn run_chunk_avx512(&self, scratch: &mut TapeScratch, chunk: usize) -> FaultCounts {
        self.run_chunk_impl(scratch, chunk)
    }

    #[inline(always)]
    fn run_chunk_impl(&self, scratch: &mut TapeScratch, chunk: usize) -> FaultCounts {
        let first = chunk as u64 * CHUNK_BLOCKS;
        let last = (first + CHUNK_BLOCKS).min(self.blocks);
        let mut counts = self.counts();
        let mut b = first;
        while b < last {
            // Always compute a full lane group (constant trip counts keep
            // the kernel vectorizable); blocks past the budget are pure
            // functions of their index and simply go untallied.
            let live = usize::try_from(last - b).map_or(L, |g| g.min(L));
            self.compute_group(scratch, b);
            self.tally_group(scratch, live, &mut counts);
            b += live as u64;
        }
        counts
    }

    /// Generates the fault-mask plane for blocks `first_block ..
    /// first_block + L`: one `MASK_BATCH_WORDS`-wide [`biased_group`] call
    /// per `16 / L` noisy slots, walking the equal-`quantized` classes.
    /// Remainder slots fall back to an `L`-wide call, which produces the
    /// identical words (each word is a pure function of its cell key).
    #[inline(always)]
    fn fill_masks(&self, masks: &mut [u64], first_block: u64) {
        let batch = MASK_BATCH_WORDS / L;
        // `cell_key`'s weighted sum separates into a per-block and a
        // per-node term; hoisting both leaves one add + one xor + one
        // `mix64` per word in the hot loop.
        let mut block_terms = [0u64; L];
        for (l, b) in block_terms.iter_mut().enumerate() {
            *b = (first_block + l as u64).wrapping_mul(PHI);
        }
        for class in &self.mask_classes {
            let q = class.quantized;
            let mut rest = class.slots.as_slice();
            while rest.len() >= batch {
                let (head, tail) = rest.split_at(batch);
                let mut bases = [0u64; MASK_BATCH_WORDS];
                for (j, &(_, nt)) in head.iter().enumerate() {
                    for l in 0..L {
                        bases[j * L + l] = mix64(self.seed ^ block_terms[l].wrapping_add(nt));
                    }
                }
                let mut out = [0u64; MASK_BATCH_WORDS];
                biased_group(&bases, q, self.resolution, &mut out);
                for (j, &(s, _)) in head.iter().enumerate() {
                    let s = s as usize;
                    masks[s * L..s * L + L].copy_from_slice(&out[j * L..j * L + L]);
                }
                rest = tail;
            }
            for &(s, nt) in rest {
                let mut bases = [0u64; L];
                for l in 0..L {
                    bases[l] = mix64(self.seed ^ block_terms[l].wrapping_add(nt));
                }
                let mut out = [0u64; L];
                biased_group(&bases, q, self.resolution, &mut out);
                let s = s as usize;
                masks[s * L..s * L + L].copy_from_slice(&out);
            }
        }
    }

    /// Evaluates blocks `first_block .. first_block + L` for every slot:
    /// mask pre-pass, then clean and noisy planes in one tape pass over
    /// the interleaved `2L`-lane value buffer. Fanin arities 1 and 2 get
    /// dedicated loops so the gate fold has a compile-time trip count in
    /// the overwhelmingly common cases.
    #[inline(always)]
    fn compute_group(&self, scratch: &mut TapeScratch, first_block: u64) {
        self.fill_masks(&mut scratch.masks, first_block);
        let tape = self.tape;
        let vals = &mut scratch.vals;
        let mask_plane = &scratch.masks;
        for s in 0..tape.n_slots() {
            let out = s * 2 * L;
            match tape.kind(s) {
                GateKind::Input => {
                    let node = tape.node_of_slot(s) as u64;
                    let bases = self.bases(first_block, node, STREAM_INPUT);
                    let mut words = [0u64; L];
                    match self.sample_q[s] {
                        None => {
                            for l in 0..L {
                                words[l] = digit_word(bases[l], 0);
                            }
                        }
                        Some(p) => biased_group(&bases, p, DEFAULT_RESOLUTION, &mut words),
                    }
                    for l in 0..L {
                        vals[out + l] = words[l];
                        vals[out + L + l] = words[l];
                    }
                }
                kind => {
                    let fanins = tape.fanins(s);
                    // Reads come from slots strictly below `s` and writes
                    // go to slot `s`: splitting at the slot boundary makes
                    // that disjointness explicit and lets the fixed-width
                    // zip loops drop their bounds checks.
                    let (lo, hi) = vals.split_at_mut(out);
                    let dst = &mut hi[..2 * L];
                    let src = |f: u32| &lo[f as usize * 2 * L..][..2 * L];
                    let generic = |dst: &mut [u64]| {
                        let arity = fanins.len();
                        for (l, d) in dst.iter_mut().enumerate() {
                            *d = crate::packed::gate_word(kind, arity, |i| {
                                lo[fanins[i] as usize * 2 * L + l]
                            });
                        }
                    };
                    match *fanins {
                        [a, b] => match kind {
                            GateKind::And => zip2(dst, src(a), src(b), |x, y| x & y),
                            GateKind::Nand => zip2(dst, src(a), src(b), |x, y| !(x & y)),
                            GateKind::Or => zip2(dst, src(a), src(b), |x, y| x | y),
                            GateKind::Nor => zip2(dst, src(a), src(b), |x, y| !(x | y)),
                            GateKind::Xor => zip2(dst, src(a), src(b), |x, y| x ^ y),
                            GateKind::Xnor => zip2(dst, src(a), src(b), |x, y| !(x ^ y)),
                            _ => generic(dst),
                        },
                        [a] => match kind {
                            GateKind::Buf => dst.copy_from_slice(src(a)),
                            GateKind::Not => zip1(dst, src(a), |x| !x),
                            _ => generic(dst),
                        },
                        _ => generic(dst),
                    }
                }
            }
            if self.mask_q[s] != 0 {
                for (v, &m) in vals[out + L..out + 2 * L]
                    .iter_mut()
                    .zip(&mask_plane[s * L..s * L + L])
                {
                    *v ^= m;
                }
            }
        }
    }

    /// Cell keys of one lane group for a `(node, stream)` pair.
    #[inline(always)]
    fn bases(&self, first_block: u64, node: u64, stream: u64) -> [u64; L] {
        let mut bases = [0u64; L];
        for (l, b) in bases.iter_mut().enumerate() {
            *b = cell_key(self.seed, first_block + l as u64, node, stream);
        }
        bases
    }

    /// Tallies the first `live` lanes of the freshly computed group.
    #[inline(always)]
    fn tally_group(&self, scratch: &TapeScratch, live: usize, counts: &mut FaultCounts) {
        let vals = &scratch.vals;
        let clean = |s: usize, l: usize| vals[s * 2 * L + l];
        let noisy = |s: usize, l: usize| vals[s * 2 * L + L + l];
        for l in 0..live {
            let mut any = 0u64;
            for (k, &os) in self.output_slots.iter().enumerate() {
                let diff = clean(os, l) ^ noisy(os, l);
                counts.out_err[k] += u64::from(diff.count_ones());
                any |= diff;
            }
            counts.any_err += u64::from(any.count_ones());
            for (j, &(a, b)) in self.joint_pairs.iter().enumerate() {
                let (oa, ob) = (self.output_slots[a], self.output_slots[b]);
                let da = clean(oa, l) ^ noisy(oa, l);
                let db = clean(ob, l) ^ noisy(ob, l);
                counts.joint_err[j] += u64::from((da & db).count_ones());
            }
            if let Some(stats) = counts.node_stats.as_mut() {
                for s in 0..self.tape.n_slots() {
                    stats.accumulate(self.tape.node_of_slot(s), clean(s, l), noisy(s, l));
                }
            }
        }
    }
}

/// Runs tape-compiled Monte Carlo fault injection against a pre-compiled
/// `tape` — the kernel behind [`crate::try_estimate`], which compiles a
/// fresh tape per call. Pass a cached tape here to skip the compile (see
/// the module docs for the determinism contract).
///
/// `cancel` is polled at every chunk hand-out ([`CHUNK_BLOCKS`] blocks,
/// the check-interval granularity of the tape engine). A fired token
/// returns [`SimError::Cancelled`] — never a partial estimate. The
/// position-based stream protocol means a run that completes before the
/// token fires is bit-identical to an undeadlined run at every thread
/// count.
///
/// # Errors
///
/// All of [`crate::try_estimate`]'s errors, plus [`SimError::Cancelled`]
/// when `cancel` fires mid-run.
///
/// # Panics
///
/// Panics if `tape` was not compiled from `circuit`.
pub fn try_estimate_tape(
    circuit: &Circuit,
    tape: &CircuitTape,
    node_eps: &[f64],
    config: &MonteCarloConfig,
    cancel: &CancelToken,
) -> Result<ReliabilityEstimate, SimError> {
    assert_eq!(
        tape.n_slots(),
        circuit.len(),
        "tape was compiled from a different circuit"
    );
    let output_nodes = validate_run(circuit, node_eps, config)?;

    let n = tape.n_slots();
    let mut mask_q = vec![0u64; n];
    for (i, &e) in node_eps.iter().enumerate() {
        if e != 0.0 {
            mask_q[tape.slot_of_node(i)] = BiasedBits::new(e, config.bit_resolution).quantized();
        }
    }
    // Group noisy slots by quantized probability (slot order within each
    // class, classes ordered by probability — fully deterministic).
    let mut by_q: std::collections::BTreeMap<u64, Vec<(u32, u64)>> =
        std::collections::BTreeMap::new();
    for (s, &q) in mask_q.iter().enumerate() {
        if q != 0 {
            let node_term = (tape.node_of_slot(s) as u64)
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                .wrapping_add(STREAM_MASK.wrapping_mul(0x1656_67B1_9E37_79F9));
            by_q.entry(q).or_default().push((s as u32, node_term));
        }
    }
    let mask_classes: Vec<MaskClass> = by_q
        .into_iter()
        .map(|(quantized, slots)| MaskClass { quantized, slots })
        .collect();
    let mut sample_q: Vec<Option<u64>> = vec![None; n];
    if let Some(probs) = &config.input_probs {
        for (pos, &p) in probs.iter().enumerate() {
            if (p - 0.5).abs() >= f64::EPSILON {
                let slot = tape.input_slots()[pos] as usize;
                sample_q[slot] = Some(BiasedBits::new(p, DEFAULT_RESOLUTION).quantized());
            }
        }
    }
    let output_slots: Vec<usize> = output_nodes.iter().map(|&i| tape.slot_of_node(i)).collect();

    let blocks = config.patterns.div_ceil(64).max(1);
    let total = blocks * 64;
    #[cfg(target_arch = "x86_64")]
    let simd = avx512_available();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    let run = TapeRun {
        tape,
        mask_q,
        mask_classes,
        simd,
        resolution: config.bit_resolution,
        sample_q,
        output_slots,
        joint_pairs: &config.joint_pairs,
        track_nodes: config.track_nodes,
        seed: config.seed,
        blocks,
    };
    let counts = run.run(config.threads, cancel)?;
    Ok(finalize_counts(total, counts, &config.joint_pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Circuit {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let g1 = c.not(a);
        let g2 = c.not(g1);
        c.add_output("y", g2);
        c
    }

    #[test]
    fn biased_word_extremes() {
        assert_eq!(biased_word(123, 0, 24), 0);
        assert_eq!(biased_word(123, 1 << 24, 24), u64::MAX);
    }

    #[test]
    fn biased_word_half_is_one_plane_complement() {
        // p = ½ quantizes to the MSB alone: the word must be !u₀.
        let base = cell_key(7, 3, 5, STREAM_MASK);
        assert_eq!(biased_word(base, 1 << 23, 24), !digit_word(base, 0));
    }

    #[test]
    fn biased_word_means_converge() {
        for &p in &[0.05, 0.1, 0.3, 0.5, 0.7, 0.95] {
            let q = BiasedBits::new(p, 24).quantized();
            let mut ones = 0u64;
            let words = 20_000u64;
            for b in 0..words {
                let base = cell_key(0xDEAD_BEEF, b, 0, STREAM_MASK);
                ones += u64::from(biased_word(base, q, 24).count_ones());
            }
            #[allow(clippy::cast_precision_loss)]
            let mean = ones as f64 / (words * 64) as f64;
            assert!((mean - p).abs() < 0.005, "p={p} measured {mean}");
        }
    }

    #[test]
    fn estimates_are_thread_invariant() {
        let c = chain();
        let tape = CircuitTape::compile(&c);
        let eps = [0.0, 0.1, 0.2];
        let cfg = MonteCarloConfig {
            patterns: 10_000, // not a multiple of the chunk width
            track_nodes: true,
            ..MonteCarloConfig::default()
        };
        let reference = try_estimate_tape(&c, &tape, &eps, &cfg, &CancelToken::new()).unwrap();
        for threads in [1, 2, 8] {
            let cfg = MonteCarloConfig {
                threads,
                ..cfg.clone()
            };
            let r = try_estimate_tape(&c, &tape, &eps, &cfg, &CancelToken::new()).unwrap();
            assert_eq!(r, reference, "threads={threads}");
        }
    }

    #[test]
    fn completed_run_under_deadline_is_bit_identical_across_thread_counts() {
        // The determinism contract pinned: a run that completes under a
        // (generous) deadline must equal the undeadlined run bit for bit,
        // at every thread count.
        let c = chain();
        let tape = CircuitTape::compile(&c);
        let eps = [0.0, 0.1, 0.2];
        let base_cfg = MonteCarloConfig {
            patterns: 10_000,
            track_nodes: true,
            ..MonteCarloConfig::default()
        };
        let reference = try_estimate_tape(&c, &tape, &eps, &base_cfg, &CancelToken::new()).unwrap();
        for threads in [1, 2, 8] {
            let cfg = MonteCarloConfig {
                threads,
                ..base_cfg.clone()
            };
            let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
            let under = try_estimate_tape(&c, &tape, &eps, &cfg, &token).unwrap();
            assert_eq!(under, reference, "threads={threads}");
        }
    }

    #[test]
    fn fired_token_returns_typed_cancelled() {
        let c = chain();
        let tape = CircuitTape::compile(&c);
        let cfg = MonteCarloConfig {
            patterns: 1 << 16,
            ..MonteCarloConfig::default()
        };
        let token = CancelToken::new();
        token.cancel();
        let err = try_estimate_tape(&c, &tape, &[0.0, 0.1, 0.1], &cfg, &token).unwrap_err();
        assert!(matches!(err, SimError::Cancelled(_)), "{err:?}");
    }

    #[test]
    fn tape_estimate_matches_theory() {
        // Two noisy inverters: δ = 2ε(1-ε).
        let c = chain();
        let tape = CircuitTape::compile(&c);
        let e = 0.1;
        let cfg = MonteCarloConfig {
            patterns: 1 << 17,
            ..MonteCarloConfig::default()
        };
        let r = try_estimate_tape(&c, &tape, &[0.0, e, e], &cfg, &CancelToken::new()).unwrap();
        let expect = 2.0 * e * (1.0 - e);
        assert!(
            (r.per_output()[0] - expect).abs() < 0.01,
            "{} vs {expect}",
            r.per_output()[0]
        );
    }

    #[test]
    fn validation_matches_graph_engine() {
        let c = chain();
        let tape = CircuitTape::compile(&c);
        let cfg = MonteCarloConfig {
            patterns: 0,
            ..MonteCarloConfig::default()
        };
        assert_eq!(
            try_estimate_tape(&c, &tape, &[0.0, 0.1, 0.1], &cfg, &CancelToken::new()),
            Err(SimError::ZeroPatternBudget)
        );
        assert_eq!(
            try_estimate_tape(
                &c,
                &tape,
                &[0.0],
                &MonteCarloConfig::default(),
                &CancelToken::new()
            ),
            Err(SimError::EpsLengthMismatch {
                expected: 3,
                actual: 1
            })
        );
    }

    #[test]
    fn joint_pairs_and_node_stats_are_tracked() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y1", g);
        c.add_output("y2", g);
        let tape = CircuitTape::compile(&c);
        let cfg = MonteCarloConfig {
            joint_pairs: vec![(0, 1)],
            track_nodes: true,
            patterns: 1 << 16,
            ..MonteCarloConfig::default()
        };
        let r = try_estimate_tape(&c, &tape, &[0.0, 0.25], &cfg, &CancelToken::new()).unwrap();
        let j = r.joint(0, 1).unwrap();
        assert!((j - r.per_output()[0]).abs() < 1e-12);
        let stats = r.node_stats().unwrap();
        assert!((stats.p01(g.index()) - 0.25).abs() < 0.01);
        assert!((stats.p10(g.index()) - 0.25).abs() < 0.01);
    }

    #[test]
    fn biased_inputs_shift_statistics() {
        // Buffer of a 0.9-biased input with a noisy buffer.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.buf(a);
        c.add_output("y", g);
        let tape = CircuitTape::compile(&c);
        let cfg = MonteCarloConfig {
            input_probs: Some(vec![0.9]),
            track_nodes: true,
            patterns: 1 << 16,
            ..MonteCarloConfig::default()
        };
        let r = try_estimate_tape(&c, &tape, &[0.0, 0.0], &cfg, &CancelToken::new()).unwrap();
        let stats = r.node_stats().unwrap();
        assert!((stats.signal_probability(a.index()) - 0.9).abs() < 0.01);
    }
}
