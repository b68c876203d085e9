//! Simulation-based estimation backends: signal probabilities, joint
//! value distributions (weight vectors and output-pair distributions),
//! and fault-simulation observabilities.
//!
//! These provide the same quantities as the BDD backend in `relogic-bdd`
//! but scale to circuits whose BDDs blow up, at the cost of sampling noise
//! `O(1/√patterns)`. Both run on the compiled tape's block evaluator
//! ([`CircuitTape::eval_block`]) and draw their inputs from one
//! `SmallRng(seed)` stream ([`InputSampler`]), so every count is a pure
//! function of `(input probabilities, patterns, seed)`.

use crate::cancel::{CancelToken, Cancelled};
use crate::exec::ChunkExecutor;
use crate::sampler::InputSampler;
use crate::tape::CircuitTape;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use relogic_netlist::{Circuit, NodeId};

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
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic_sim::sample_joint_probs;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.and([a, b]);
/// c.add_output("y", g);
/// let (joint, p) = sample_joint_probs(&c, &[0.5, 0.5], 1 << 16, 7, &[[a, b]]);
/// assert!((joint[0][0b11] - p[g.index()]).abs() < 1e-12);
/// assert!((p[g.index()] - 0.25).abs() < 0.01);
/// ```
///
/// # Panics
///
/// Panics if a tuple has more than [`MAX_COUNTED_ARITY`] nodes or
/// `input_probs` holds a probability outside `[0, 1]`.
#[must_use]
pub fn sample_joint_probs<T: AsRef<[NodeId]>>(
    circuit: &Circuit,
    input_probs: &[f64],
    patterns: u64,
    seed: u64,
    tuples: &[T],
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let tape = CircuitTape::compile(circuit);
    let sampler = InputSampler::independent(input_probs);
    let blocks = patterns.div_ceil(64).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let slot_tuples: Vec<Vec<usize>> = tuples
        .iter()
        .map(|t| {
            let t = t.as_ref();
            assert!(
                t.len() <= MAX_COUNTED_ARITY,
                "tuple of {} nodes exceeds weight-vector limit {MAX_COUNTED_ARITY}",
                t.len()
            );
            t.iter().map(|id| tape.slot_of_node(id.index())).collect()
        })
        .collect();
    // An empty tuple (a source's fanins) gets no counts.
    let mut counts: Vec<Vec<u64>> = slot_tuples
        .iter()
        .map(|t| vec![0u64; if t.is_empty() { 0 } else { 1 << t.len() }])
        .collect();
    let mut ones = vec![0u64; tape.n_slots()];
    let mut words = vec![0u64; tape.n_slots()];
    let mut tuple_words: Vec<u64> = Vec::with_capacity(MAX_COUNTED_ARITY);
    for _ in 0..blocks {
        sampler.fill(&mut words, tape.input_slots(), &mut rng);
        tape.eval_block(&mut words, None);
        for (count, &w) in ones.iter_mut().zip(&words) {
            *count += u64::from(w.count_ones());
        }
        for (tuple, slot) in slot_tuples.iter().zip(&mut counts) {
            tuple_words.clear();
            tuple_words.extend(tuple.iter().map(|&s| words[s]));
            if tuple_words.len() <= 4 {
                // Bit-sliced: one AND-chain per combination.
                for (combo, c) in slot.iter_mut().enumerate() {
                    let mut w = u64::MAX;
                    for (j, &tw) in tuple_words.iter().enumerate() {
                        w &= if combo >> j & 1 == 1 { tw } else { !tw };
                    }
                    *c += u64::from(w.count_ones());
                }
            } else {
                // Lane-gather for wide tuples.
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
    #[allow(clippy::cast_precision_loss)]
    let fraction = |count: u64| count as f64 / (blocks * 64) as f64;
    let joint = counts
        .into_iter()
        .map(|cs| cs.into_iter().map(fraction).collect())
        .collect();
    let signal_probs = (0..tape.n_slots())
        .map(|i| fraction(ones[tape.slot_of_node(i)]))
        .collect();
    (joint, signal_probs)
}

/// Maximum tuple width [`sample_joint_probs`] samples (a tuple's vector
/// has `2^width` entries).
pub const MAX_COUNTED_ARITY: usize = 12;

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
/// parallel-pattern fault simulation: for each sampled block, each node is
/// flipped in turn and only its fanout cone is re-simulated.
///
/// Input position `i` is 1 with probability `input_probs[i]`. Returns the
/// per-output rows, indexed `[node][output]`, and the any-output
/// observability of every node (the probability a flip changes at least
/// one output) — the two arrays of `relogic::ObservabilityMatrix`.
///
/// Worker `w` of `threads` (`0` auto-detects the hardware) takes the
/// nodes `w, w + threads, …` and replays the whole input stream, so every
/// count — and the result — is bit-identical for every thread count.
/// `cancel` is checked once per 64-pattern block in every worker.
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
    let sampler = InputSampler::independent(input_probs);
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
        || (vec![0u64; n], vec![0u64; n]),
        |(clean, faulty), worker| {
            let cones: Vec<Vec<u32>> = (worker..n)
                .step_by(workers)
                .map(|t| fanout_cone(&tape, t))
                .collect();
            let mut counts = vec![(vec![0u64; tape.output_slots().len()], 0u64); cones.len()];
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..blocks {
                cancel.check("obs_sim")?;
                sampler.fill(clean, tape.input_slots(), &mut rng);
                tape.eval_block(clean, None);
                faulty.copy_from_slice(clean);
                for (cone, (row, any_count)) in cones.iter().zip(&mut counts) {
                    let mut any = 0u64;
                    for (i, &s) in cone.iter().enumerate() {
                        let s = s as usize;
                        faulty[s] = if i == 0 {
                            !clean[s]
                        } else {
                            tape.eval_slot(s, faulty)
                        };
                        for &k in &outputs_at[s] {
                            let diff = clean[s] ^ faulty[s];
                            row[k] += u64::from(diff.count_ones());
                            any |= diff;
                        }
                    }
                    *any_count += u64::from(any.count_ones());
                    for &s in cone {
                        faulty[s as usize] = clean[s as usize];
                    }
                }
            }
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
        sample_joint_probs(c, &uniform(c), patterns, seed, &fanins)
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
    fn wide_tuple_uses_lane_gather() {
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
}
