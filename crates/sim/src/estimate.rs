//! Simulation-based estimation backends: signal probabilities, joint
//! value distributions (weight vectors and output-pair distributions),
//! and fault-simulation observabilities.
//!
//! These provide the same quantities as the BDD backend in `relogic-bdd`
//! but scale to circuits whose BDDs blow up, at the cost of sampling noise
//! `O(1/√patterns)`. Both evaluate groups of [`DEFAULT_LANES`](L)
//! 64-pattern blocks on the compiled tape's evaluator
//! ([`CircuitTape::eval_group`]) and draw their input words from Monte
//! Carlo's position-addressed stream (`tape_exec::input_words`), keyed by
//! `(seed, block, input node)`. Lanes past the pattern budget go
//! uncounted. Any block can be drawn on any worker, so
//! every count is a pure function of `(input probabilities, patterns,
//! seed)`, whatever the thread count, and a Monte Carlo run with the same
//! `(patterns, seed)` sees the same fault-free values:
//!
//! * [`sample_joint_probs`] hands out chunks of [`CHUNK_BLOCKS`] blocks,
//!   as Monte Carlo does. Each worker adds exact integer counts into its
//!   own accumulator, and the accumulators are summed at the end.
//! * [`observabilities_biased`] splits the target nodes instead, and
//!   every worker draws and evaluates every block: re-evaluating each
//!   target's fanout cone costs far more than the clean evaluation, and a
//!   block split would hold one nodes × outputs counter matrix per worker.
//!   Each cone is re-evaluated over a whole group of blocks at once.

use crate::cancel::{CancelToken, Cancelled};
use crate::exec::ChunkExecutor;
use crate::tape::CircuitTape;
use crate::tape_exec::{input_quantized, input_words, CHUNK_BLOCKS, DEFAULT_LANES as L};
use relogic_netlist::{Circuit, NodeId};
use std::ops::Range;

/// Joint value probabilities of node tuples and the signal probability of
/// every node, from one simulation pass over `patterns` sampled input
/// patterns (rounded up to whole 64-pattern blocks).
///
/// Input position `i` is 1 with probability `input_probs[i]`. Entry
/// `[t][combo]` is the fraction of patterns on which the nodes of
/// `tuples[t]` took the values encoded by `combo` (bit `j` of `combo` =
/// value of node `j` of the tuple); an empty tuple gets an empty vector.
/// With every gate's fanins as its tuple these are the paper's *weight
/// vectors* — the core quantity of the single-pass algorithm — estimated
/// by random pattern simulation as §4(i) suggests; with output pairs they
/// are the joint value distributions the consolidator needs. The second
/// half is the fault-free signal probability `Pr(node = 1)` of every node.
///
/// Chunks of [`CHUNK_BLOCKS`] blocks go to `threads` workers (`0`
/// auto-detects the hardware). Every value is an exact integer count
/// divided by the pattern total, so the result is bit-identical for every
/// thread count. The input words are Monte Carlo's, so the signal
/// probabilities equal the fault-free ones a tape Monte Carlo run with
/// the same `(patterns, seed)` and input probabilities tallies. A tuple of
/// at most four nodes is counted per block as the popcounts of ANDs over
/// its subsets, turned into value counts by inclusion–exclusion after the
/// last block; a wider tuple splits each block's 64 lanes node by node.
/// `cancel` is checked at every chunk hand-out.
///
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic_sim::{sample_joint_probs, CancelToken};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.and([a, b]);
/// c.add_output("y", g);
/// let never = CancelToken::new();
/// let (joint, p) = sample_joint_probs(&c, &[0.5, 0.5], 1 << 16, 7, &[[a, b]], 0, &never)?;
/// assert!((joint[0][0b11] - p[g.index()]).abs() < 1e-12);
/// assert!((p[g.index()] - 0.25).abs() < 0.01);
/// # Ok::<(), relogic_sim::Cancelled>(())
/// ```
///
/// # Errors
///
/// [`Cancelled`] once `cancel` fires before the last block completes.
///
/// # Panics
///
/// Panics if a tuple has more than [`MAX_COUNTED_ARITY`] nodes or
/// `input_probs` holds a probability outside `[0, 1]`.
pub fn sample_joint_probs<T: AsRef<[NodeId]>>(
    circuit: &Circuit,
    input_probs: &[f64],
    patterns: u64,
    seed: u64,
    tuples: &[T],
    threads: usize,
    cancel: &CancelToken,
) -> Result<(Vec<Vec<f64>>, Vec<f64>), Cancelled> {
    let tape = CircuitTape::compile(circuit);
    let blocks = patterns.div_ceil(64).max(1);
    let counts = sample_counts(&tape, input_probs, blocks, seed, tuples, threads, cancel)?;
    #[allow(clippy::cast_precision_loss)]
    let fraction = |count: u64| count as f64 / (blocks * 64) as f64;
    let joint = counts
        .joint
        .into_iter()
        .map(|cs| cs.into_iter().map(fraction).collect())
        .collect();
    let signal_probs = (0..tape.n_slots())
        .map(|i| fraction(counts.ones[tape.slot_of_node(i)]))
        .collect();
    Ok((joint, signal_probs))
}

/// Maximum tuple width [`sample_joint_probs`] samples (a tuple's vector
/// has `2^width` entries).
pub const MAX_COUNTED_ARITY: usize = 12;

/// Widest tuple counted by ANDs over its subsets; wider tuples split
/// their lanes instead.
const MAX_SUBSET_COUNTED: usize = 4;

/// The integer counts of one sampled pass.
#[derive(Debug, PartialEq)]
struct Counts {
    /// Per tuple, the patterns on which it took each value combination
    /// (empty for an empty tuple).
    joint: Vec<Vec<u64>>,
    /// Per slot, the patterns on which it was 1.
    ones: Vec<u64>,
}

/// The per-block counting work. Each entry holds the start of the
/// tuple's `2^width` counters in a worker's flat accumulator, and its
/// slots. Tuples of width 0 and 1 need no per-block work: their counts
/// come from the pattern total and the slot's ones.
#[derive(Default)]
struct CountPlan {
    /// Tuples of 2 to [`MAX_SUBSET_COUNTED`] slots, as `(offset, width,
    /// slots)`; slots past the width are unused.
    narrow: Vec<(usize, usize, [u32; MAX_SUBSET_COUNTED])>,
    wide: Vec<(usize, Vec<u32>)>,
    /// Length of the flat accumulator.
    len: usize,
}

impl CountPlan {
    fn new(slot_tuples: &[Vec<u32>]) -> Self {
        let mut plan = CountPlan::default();
        for t in slot_tuples {
            let offset = plan.len;
            match t.len() {
                0 => continue,
                1 => {}
                k @ 2..=MAX_SUBSET_COUNTED => {
                    let mut slots = [0; MAX_SUBSET_COUNTED];
                    slots[..k].copy_from_slice(t);
                    plan.narrow.push((offset, k, slots));
                }
                _ => plan.wide.push((offset, t.clone())),
            }
            plan.len += 1 << t.len();
        }
        plan
    }

    /// Adds lane `l` of one evaluated group to `acc`: for a tuple of at
    /// most four slots, the popcount of the AND over every subset of two
    /// or more of them; for a wider tuple, its value-combination counts.
    fn count_lane(&self, words: &[[u64; L]], l: usize, acc: &mut [u64]) {
        for (offset, width, slots) in &self.narrow {
            let acc = &mut acc[*offset..];
            // One monomorphic kernel per width: with the width a constant
            // the subset loop unrolls.
            match width {
                2 => and_subsets::<2>(words, l, slots, acc),
                3 => and_subsets::<3>(words, l, slots, acc),
                _ => and_subsets::<4>(words, l, slots, acc),
            }
        }
        for (offset, slots) in &self.wide {
            split_lanes(words, l, slots, &mut acc[*offset..]);
        }
    }
}

/// Adds `popcount(AND of words[slots[j]][l] for j in m)` to `acc[m]` for
/// every subset `m` of at least two of the first `K` positions. `and[m]`
/// extends `and[m]` minus its lowest position, so each subset costs one
/// AND.
#[inline(always)]
fn and_subsets<const K: usize>(
    words: &[[u64; L]],
    l: usize,
    slots: &[u32; MAX_SUBSET_COUNTED],
    acc: &mut [u64],
) {
    let w: [u64; K] = std::array::from_fn(|j| words[slots[j] as usize][l]);
    let mut and = [u64::MAX; 1 << MAX_SUBSET_COUNTED];
    for m in 1..1usize << K {
        let rest = m & (m - 1);
        and[m] = and[rest] & w[m.trailing_zeros() as usize];
        if rest != 0 {
            acc[m] += u64::from(and[m].count_ones());
        }
    }
}

/// Adds the value-combination counts of lane `l` of the wide tuple
/// `slots` to `acc`: the 64-pattern mask splits on each slot's word in
/// turn (bit `j` of the combination = slot `j`'s value), and a branch
/// whose mask empties is dropped.
fn split_lanes(words: &[[u64; L]], l: usize, slots: &[u32], acc: &mut [u64]) {
    // Depth-first, so at most one pending sibling per level.
    let mut stack = [(0u64, 0usize, 0usize); MAX_COUNTED_ARITY + 1];
    stack[0] = (u64::MAX, 0, 0);
    let mut top = 1;
    while top > 0 {
        top -= 1;
        let (mask, combo, j) = stack[top];
        let w = words[slots[j] as usize][l];
        if j + 1 == slots.len() {
            let one = (mask & w).count_ones();
            acc[combo | 1 << j] += u64::from(one);
            acc[combo] += u64::from(mask.count_ones() - one);
            continue;
        }
        for (half, bit) in [(mask & !w, 0), (mask & w, 1 << j)] {
            if half != 0 {
                stack[top] = (half, combo | bit, j + 1);
                top += 1;
            }
        }
    }
}

/// The ones in `words`.
fn ones_in(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// The sampled passes' input stream: per-slot input biases and the
/// seed, turned into evaluated blocks.
struct BlockStream<'a> {
    tape: &'a CircuitTape,
    quantized: Vec<Option<u64>>,
    seed: u64,
}

impl<'a> BlockStream<'a> {
    fn new(tape: &'a CircuitTape, input_probs: &[f64], seed: u64) -> Self {
        BlockStream {
            tape,
            quantized: input_quantized(tape, input_probs),
            seed,
        }
    }

    /// Evaluates `blocks` in groups of `L` and hands each group's
    /// slot-major words to `visit`, with the number of leading lanes that
    /// hold blocks of the range; lanes past its end go uncounted.
    fn eval_groups(
        &self,
        blocks: Range<u64>,
        mut visit: impl FnMut(&[[u64; L]], usize) -> Result<(), Cancelled>,
    ) -> Result<(), Cancelled> {
        let mut words = vec![[0u64; L]; self.tape.n_slots()];
        let mut first = blocks.start;
        while first < blocks.end {
            for &s in self.tape.input_slots() {
                let node = self.tape.node_of_slot(s as usize) as u64;
                words[s as usize] = input_words(self.seed, first, node, self.quantized[s as usize]);
            }
            self.tape.eval_group(&mut words, None);
            visit(
                &words,
                usize::try_from(blocks.end - first).map_or(L, |n| n.min(L)),
            )?;
            first += L as u64;
        }
        Ok(())
    }
}

/// Samples `blocks` 64-pattern blocks on `tape` and counts every tuple's
/// value combinations and every slot's ones, over `threads` workers.
fn sample_counts<T: AsRef<[NodeId]>>(
    tape: &CircuitTape,
    input_probs: &[f64],
    blocks: u64,
    seed: u64,
    tuples: &[T],
    threads: usize,
    cancel: &CancelToken,
) -> Result<Counts, Cancelled> {
    let stream = BlockStream::new(tape, input_probs, seed);
    let slot_tuples: Vec<Vec<u32>> = tuples
        .iter()
        .map(|t| {
            let t = t.as_ref();
            assert!(
                t.len() <= MAX_COUNTED_ARITY,
                "tuple of {} nodes exceeds weight-vector limit {MAX_COUNTED_ARITY}",
                t.len()
            );
            t.iter()
                .map(|id| tape.slot_of_node(id.index()) as u32)
                .collect()
        })
        .collect();
    let plan = CountPlan::new(&slot_tuples);
    let chunks = usize::try_from(blocks.div_ceil(CHUNK_BLOCKS)).unwrap_or(usize::MAX);
    // Each worker's state is its own `(ones, accumulator)` counts.
    let (_, workers) = ChunkExecutor::new(threads).try_map_chunks_with_state(
        chunks,
        cancel,
        "joint_sim",
        || (vec![0u64; tape.n_slots()], vec![0u64; plan.len]),
        |(ones, acc), chunk| {
            let first = chunk as u64 * CHUNK_BLOCKS;
            stream.eval_groups(first..(first + CHUNK_BLOCKS).min(blocks), |words, live| {
                for (count, row) in ones.iter_mut().zip(words) {
                    *count += ones_in(&row[..live]);
                }
                for l in 0..live {
                    plan.count_lane(words, l, acc);
                }
                Ok(())
            })
        },
    )?;
    let mut ones = vec![0u64; tape.n_slots()];
    let mut acc = vec![0u64; plan.len];
    for (worker_ones, worker_acc) in workers {
        for (sum, c) in ones.iter_mut().zip(worker_ones) {
            *sum += c;
        }
        for (sum, c) in acc.iter_mut().zip(worker_acc) {
            *sum += c;
        }
    }
    let mut offset = 0;
    let joint = slot_tuples
        .iter()
        .map(|t| {
            if t.is_empty() {
                return Vec::new();
            }
            let counts = &mut acc[offset..offset + (1 << t.len())];
            offset += counts.len();
            if t.len() <= MAX_SUBSET_COUNTED {
                subset_to_value_counts(counts, t, &ones, blocks * 64);
            }
            counts.to_vec()
        })
        .collect();
    Ok(Counts { joint, ones })
}

/// Turns a narrow tuple's subset counts into value-combination counts in
/// place. The empty subset counts every pattern and a one-slot subset the
/// slot's ones; then for each position `j`, inclusion–exclusion removes
/// the patterns on which `j` is also 1 from every entry with `j` clear.
/// The result is exact; intermediate differences may wrap.
fn subset_to_value_counts(counts: &mut [u64], slots: &[u32], ones: &[u64], total: u64) {
    counts[0] = total;
    for (j, &s) in slots.iter().enumerate() {
        counts[1 << j] = ones[s as usize];
    }
    for j in 0..slots.len() {
        for m in 0..counts.len() {
            if m & 1 << j == 0 {
                counts[m] = counts[m].wrapping_sub(counts[m | 1 << j]);
            }
        }
    }
}

/// The fanout cone of node `target`: its own slot first, then every gate
/// slot a flip there can reach, in slot order (fanins first).
fn fanout_cone(tape: &CircuitTape, target: usize) -> Vec<u32> {
    let ts = tape.slot_of_node(target);
    let mut in_cone = vec![false; tape.n_slots()];
    in_cone[ts] = true;
    let mut cone = vec![ts as u32];
    for s in ts + 1..tape.n_slots() {
        if tape.fanins(s).iter().any(|&f| in_cone[f as usize]) {
            in_cone[s] = true;
            cone.push(s as u32);
        }
    }
    cone
}

/// Estimates the noiseless observability of every node at every output by
/// parallel-pattern fault simulation: for each sampled group of
/// [`DEFAULT_LANES`](L) blocks, each node is flipped in turn and only its
/// fanout cone is re-simulated.
///
/// Input position `i` is 1 with probability `input_probs[i]`. Returns the
/// per-output rows, indexed `[node][output]`, and the any-output
/// observability of every node (the probability a flip changes at least
/// one output) — the two arrays of `relogic::ObservabilityMatrix`.
///
/// Worker `w` of `threads` (`0` auto-detects the hardware) takes the
/// nodes `w, w + threads, …` and draws and evaluates every block, so
/// every count — and the result — is bit-identical for every thread
/// count. The input words are Monte Carlo's (see the module docs).
/// `cancel` is checked once per group of [`DEFAULT_LANES`](L) blocks in
/// every worker.
///
/// Cost is `O(patterns/64 · Σ_i |cone(i)|)`; intended for circuits up to a
/// few thousand gates (the exact BDD backend in `relogic` is preferable for
/// small, reconvergence-heavy circuits).
///
/// # Errors
///
/// [`Cancelled`] once `cancel` fires before the last block completes.
///
/// # Panics
///
/// Panics if `input_probs` holds a probability outside `[0, 1]`.
pub fn observabilities_biased(
    circuit: &Circuit,
    input_probs: &[f64],
    patterns: u64,
    seed: u64,
    threads: usize,
    cancel: &CancelToken,
) -> Result<(Vec<Vec<f64>>, Vec<f64>), Cancelled> {
    let tape = CircuitTape::compile(circuit);
    let n = tape.n_slots();
    let stream = BlockStream::new(&tape, input_probs, seed);
    let blocks = patterns.div_ceil(64).max(1);
    let mut outputs_at = vec![Vec::new(); n];
    for (k, &os) in tape.output_slots().iter().enumerate() {
        outputs_at[os as usize].push(k);
    }
    let executor = ChunkExecutor::new(threads);
    let workers = executor.threads().min(n).max(1);
    let (chunks, _) = executor.try_map_chunks_with_state(
        workers,
        cancel,
        "obs_sim",
        || (),
        |(), worker| {
            let cones: Vec<Vec<u32>> = (worker..n)
                .step_by(workers)
                .map(|t| fanout_cone(&tape, t))
                .collect();
            let mut counts = vec![(vec![0u64; tape.output_slots().len()], 0u64); cones.len()];
            let mut faulty = vec![[0u64; L]; n];
            stream.eval_groups(0..blocks, |clean, live| {
                cancel.check("obs_sim")?;
                faulty.copy_from_slice(clean);
                for (cone, (row, any_count)) in cones.iter().zip(&mut counts) {
                    let mut any = [0u64; L];
                    for (i, &s) in cone.iter().enumerate() {
                        let s = s as usize;
                        if i == 0 {
                            faulty[s] = clean[s].map(|w| !w);
                        } else {
                            tape.eval_slot(s, &mut faulty);
                        }
                        for &k in &outputs_at[s] {
                            for l in 0..live {
                                let diff = clean[s][l] ^ faulty[s][l];
                                row[k] += u64::from(diff.count_ones());
                                any[l] |= diff;
                            }
                        }
                    }
                    *any_count += ones_in(&any[..live]);
                    for &s in cone {
                        faulty[s as usize] = clean[s as usize];
                    }
                }
                Ok(())
            })?;
            Ok(counts)
        },
    )?;

    #[allow(clippy::cast_precision_loss)]
    let total = (blocks * 64) as f64;
    let mut per_output = vec![Vec::new(); n];
    let mut any_output = vec![0.0; n];
    for (worker, counts) in chunks.into_iter().enumerate() {
        for (j, (row, any)) in counts.into_iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            {
                per_output[worker + j * workers] = row.iter().map(|&c| c as f64 / total).collect();
                any_output[worker + j * workers] = any as f64 / total;
            }
        }
    }
    Ok((per_output, any_output))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(c: &Circuit) -> Vec<f64> {
        vec![0.5; c.input_count()]
    }

    /// Weight vectors and signal probabilities: every node's fanins as
    /// its tuple.
    fn weight_samples(c: &Circuit, patterns: u64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let fanins: Vec<&[NodeId]> = c.iter().map(|(_, n)| n.fanins()).collect();
        sample_joint_probs(
            c,
            &uniform(c),
            patterns,
            seed,
            &fanins,
            1,
            &CancelToken::new(),
        )
        .unwrap()
    }

    fn observabilities(c: &Circuit, patterns: u64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        observabilities_biased(c, &uniform(c), patterns, seed, 1, &CancelToken::new()).unwrap()
    }

    #[test]
    fn signal_probabilities_of_basic_gates() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let and = c.and([a, b]);
        let or = c.or([a, b]);
        let xor = c.xor([a, b]);
        c.add_output("y", xor);
        let (_, p) = weight_samples(&c, 1 << 16, 42);
        assert!((p[a.index()] - 0.5).abs() < 0.01);
        assert!((p[and.index()] - 0.25).abs() < 0.01);
        assert!((p[or.index()] - 0.75).abs() < 0.01);
        assert!((p[xor.index()] - 0.5).abs() < 0.01);
    }

    #[test]
    fn joint_probs_sum_to_one_and_match_marginals() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let (joint, p) = weight_samples(&c, 1 << 14, 3);
        let w = &joint[g.index()];
        assert_eq!(w.len(), 4);
        // Fractions of a power-of-two pattern count add up exactly.
        assert_eq!(w.iter().sum::<f64>(), 1.0);
        assert_eq!(w[0b11], p[g.index()]);
        // independent uniform inputs: each combo ~ 1/4
        for &frac in w {
            assert!((frac - 0.25).abs() < 0.02, "{frac}");
        }
    }

    #[test]
    fn joint_probs_capture_correlation() {
        // Both fanins of g are the same signal: only combos 00 and 11 occur.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.xor([a, a]);
        c.add_output("y", g);
        let (joint, _) = weight_samples(&c, 4096, 9);
        let w = &joint[g.index()];
        assert_eq!(w[0b01], 0.0);
        assert_eq!(w[0b10], 0.0);
        assert!(w[0b00] > 0.0 && w[0b11] > 0.0);
    }

    #[test]
    fn wide_tuple_splits_lanes() {
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..6).map(|i| c.add_input(format!("x{i}"))).collect();
        let g = c.and(ins);
        c.add_output("y", g);
        let (joint, _) = weight_samples(&c, 4096, 1);
        let w = &joint[g.index()];
        assert_eq!(w.len(), 64);
        assert_eq!(w.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn observability_of_and_gate_cone() {
        // y = (a & b) | c: obs(AND) = Pr(c = 0) = 1/2; obs(c-input) = Pr(a&b = 0) = 3/4.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g = c.and([a, b]);
        let y = c.or([g, x]);
        c.add_output("y", y);
        let (per_output, any) = observabilities(&c, 1 << 15, 5);
        assert!((per_output[g.index()][0] - 0.5).abs() < 0.02);
        assert!((per_output[x.index()][0] - 0.75).abs() < 0.02);
        assert!((per_output[y.index()][0] - 1.0).abs() < 1e-12);
        assert!((any[g.index()] - 0.5).abs() < 0.02);
        assert_eq!((per_output.len(), any.len()), (c.len(), c.len()));
    }

    #[test]
    fn observability_splits_across_outputs() {
        // g feeds y1 directly and y2 through an AND with b.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.not(a);
        let y2 = c.and([g, b]);
        c.add_output("y1", g);
        c.add_output("y2", y2);
        let (per_output, any) = observabilities(&c, 1 << 15, 8);
        assert!((per_output[g.index()][0] - 1.0).abs() < 1e-12);
        assert!((per_output[g.index()][1] - 0.5).abs() < 0.02);
        // any-output observability is 1 (always visible at y1)
        assert!((any[g.index()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observabilities_are_thread_invariant() {
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..5).map(|i| c.add_input(format!("x{i}"))).collect();
        let g1 = c.and([ins[0], ins[1]]);
        let g2 = c.xor([g1, ins[2]]);
        let g3 = c.or([g2, ins[3]]);
        let g4 = c.nand([g1, ins[4]]);
        c.add_output("y1", g3);
        c.add_output("y2", g4);
        c.add_output("y3", g2);
        let one = observabilities(&c, 5000, 3);
        for threads in [2, 3, 8] {
            let many =
                observabilities_biased(&c, &uniform(&c), 5000, 3, threads, &CancelToken::new())
                    .unwrap();
            assert_eq!(one, many, "threads={threads}");
        }
    }

    #[test]
    fn fired_token_cancels_observabilities() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2] {
            let err = observabilities_biased(&c, &[0.5], 1 << 16, 1, threads, &token).unwrap_err();
            assert_eq!(err.checked_at, "obs_sim");
        }
    }

    #[test]
    fn fired_token_cancels_joint_probs() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2] {
            let err = sample_joint_probs(&c, &[0.5, 0.5], 1 << 16, 1, &[[a, b]], threads, &token)
                .unwrap_err();
            assert_eq!(err.checked_at, "joint_sim");
        }
    }

    /// The per-block counting the subset and lane-split counters replaced,
    /// kept as their oracle: one thread, one block at a time, each input
    /// word drawn alone from the stream, each value combination of a
    /// tuple of at most four nodes one AND chain, a wider tuple gathered
    /// lane by lane.
    fn per_block_counts(
        tape: &CircuitTape,
        input_probs: &[f64],
        blocks: u64,
        seed: u64,
        tuples: &[Vec<NodeId>],
    ) -> Counts {
        let quantized = input_quantized(tape, input_probs);
        let slot_tuples: Vec<Vec<usize>> = tuples
            .iter()
            .map(|t| t.iter().map(|id| tape.slot_of_node(id.index())).collect())
            .collect();
        let mut counts: Vec<Vec<u64>> = slot_tuples
            .iter()
            .map(|t| vec![0u64; if t.is_empty() { 0 } else { 1 << t.len() }])
            .collect();
        let mut ones = vec![0u64; tape.n_slots()];
        let mut group = vec![[0u64]; tape.n_slots()];
        let mut tuple_words: Vec<u64> = Vec::with_capacity(MAX_COUNTED_ARITY);
        for block in 0..blocks {
            for &s in tape.input_slots() {
                let node = tape.node_of_slot(s as usize) as u64;
                group[s as usize] = input_words(seed, block, node, quantized[s as usize]);
            }
            tape.eval_group(&mut group, None);
            let words = group.as_flattened();
            for (count, &w) in ones.iter_mut().zip(words) {
                *count += u64::from(w.count_ones());
            }
            for (tuple, slot) in slot_tuples.iter().zip(&mut counts) {
                tuple_words.clear();
                tuple_words.extend(tuple.iter().map(|&s| words[s]));
                if tuple_words.len() <= 4 {
                    for (combo, c) in slot.iter_mut().enumerate() {
                        let mut w = u64::MAX;
                        for (j, &tw) in tuple_words.iter().enumerate() {
                            w &= if combo >> j & 1 == 1 { tw } else { !tw };
                        }
                        *c += u64::from(w.count_ones());
                    }
                } else {
                    for lane in 0..64 {
                        let mut combo = 0usize;
                        for (j, &tw) in tuple_words.iter().enumerate() {
                            combo |= (((tw >> lane) & 1) as usize) << j;
                        }
                        slot[combo] += 1;
                    }
                }
            }
        }
        Counts {
            joint: counts,
            ones,
        }
    }

    /// Ten inputs under two layers of gates, and tuples of every counted
    /// shape: each node's fanins (widths 0 to 3, a repeated node in
    /// `xor(x0, x0)`), an empty tuple, and tuples of 1, 4, 5, 8 and
    /// [`MAX_COUNTED_ARITY`] correlated nodes, a repeated one included.
    fn shaped_tuples() -> (Circuit, Vec<Vec<NodeId>>) {
        let mut c = Circuit::new("t");
        let x: Vec<_> = (0..10).map(|i| c.add_input(format!("x{i}"))).collect();
        let same = c.xor([x[0], x[0]]);
        let g = [
            c.and([x[0], x[1]]),
            c.or([x[2], x[3], x[4]]),
            c.xor([x[4], x[5]]),
            c.nand([x[6], x[7], x[1]]),
            c.nor([x[8], x[9]]),
            c.not(x[3]),
        ];
        let h = c.or([g[0], g[1], g[2], g[3]]);
        let k = c.xor([h, g[4], g[5]]);
        c.add_output("h", h);
        c.add_output("k", k);
        c.add_output("same", same);
        let mut tuples: Vec<Vec<NodeId>> = c.iter().map(|(_, n)| n.fanins().to_vec()).collect();
        tuples.push(Vec::new());
        tuples.push(vec![k]);
        tuples.push(vec![g[0], g[1], h, x[2]]);
        tuples.push(vec![x[0], g[0], same, h, k]);
        tuples.push(vec![g[0], g[1], g[2], g[3], g[4], g[5], h, x[4]]);
        let widest = vec![
            x[0], x[1], g[0], g[1], g[2], g[3], g[4], g[5], h, k, same, x[1],
        ];
        assert_eq!(widest.len(), MAX_COUNTED_ARITY);
        tuples.push(widest);
        (c, tuples)
    }

    #[test]
    fn counts_match_the_per_block_oracle() {
        let (c, tuples) = shaped_tuples();
        let tape = CircuitTape::compile(&c);
        let biased: Vec<f64> = (0..c.input_count())
            .map(|i| [0.2, 0.7, 0.9, 0.35][i % 4])
            .collect();
        for probs in [uniform(&c), biased] {
            for blocks in [1, 5, 157] {
                let oracle = per_block_counts(&tape, &probs, blocks, 17, &tuples);
                for threads in [1, 2, 3, 7] {
                    let counts = sample_counts(
                        &tape,
                        &probs,
                        blocks,
                        17,
                        &tuples,
                        threads,
                        &CancelToken::new(),
                    )
                    .unwrap();
                    assert_eq!(
                        counts, oracle,
                        "blocks={blocks} threads={threads} probs={probs:?}"
                    );
                }
            }
        }
    }

    /// The observability pass without groups or cones, kept as its
    /// oracle: one thread, one block at a time at `W = 1`, each input word
    /// drawn alone from the stream, and each target flipped with a full
    /// re-evaluation of the block.
    fn per_block_observabilities(
        tape: &CircuitTape,
        input_probs: &[f64],
        blocks: u64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = tape.n_slots();
        let quantized = input_quantized(tape, input_probs);
        let outputs = tape.output_slots();
        let mut rows = vec![vec![0u64; outputs.len()]; n];
        let mut any = vec![0u64; n];
        let mut clean = vec![[0u64]; n];
        let mut faulty = vec![[0u64]; n];
        let mut flips = vec![[0u64]; n];
        for block in 0..blocks {
            for &s in tape.input_slots() {
                let node = tape.node_of_slot(s as usize) as u64;
                clean[s as usize] = input_words(seed, block, node, quantized[s as usize]);
            }
            tape.eval_group(&mut clean, None);
            for target in 0..n {
                let ts = tape.slot_of_node(target);
                flips[ts] = [u64::MAX];
                faulty.copy_from_slice(&clean);
                tape.eval_group(&mut faulty, Some(&flips));
                flips[ts] = [0];
                let mut either = 0u64;
                for (k, &os) in outputs.iter().enumerate() {
                    let diff = clean[os as usize][0] ^ faulty[os as usize][0];
                    rows[target][k] += u64::from(diff.count_ones());
                    either |= diff;
                }
                any[target] += u64::from(either.count_ones());
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let fraction = |count: u64| count as f64 / (blocks * 64) as f64;
        (
            rows.into_iter()
                .map(|row| row.into_iter().map(fraction).collect())
                .collect(),
            any.into_iter().map(fraction).collect(),
        )
    }

    #[test]
    fn observabilities_match_the_per_block_oracle() {
        let (c, _) = shaped_tuples();
        let tape = CircuitTape::compile(&c);
        let biased: Vec<f64> = (0..c.input_count())
            .map(|i| [0.2, 0.7, 0.9, 0.35][i % 4])
            .collect();
        for probs in [uniform(&c), biased] {
            for blocks in [1, 5, 157] {
                let oracle = per_block_observabilities(&tape, &probs, blocks, 23);
                for threads in [1, 2, 3, 7] {
                    let sampled = observabilities_biased(
                        &c,
                        &probs,
                        blocks * 64,
                        23,
                        threads,
                        &CancelToken::new(),
                    )
                    .unwrap();
                    assert_eq!(
                        sampled, oracle,
                        "blocks={blocks} threads={threads} probs={probs:?}"
                    );
                }
            }
        }
    }
}
