//! Simulation-based estimation backends: signal probabilities, joint
//! fanin-combination counts (weight vectors), and fault-simulation
//! observabilities.
//!
//! These provide the same quantities as the BDD backend in `relogic-bdd`
//! but scale to circuits whose BDDs blow up, at the cost of sampling noise
//! `O(1/√patterns)`.

use crate::packed::PackedSim;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use relogic_netlist::{Circuit, NodeId};

/// Estimates the fault-free signal probability `Pr(node = 1)` of every node
/// from `patterns` uniform random input patterns.
///
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic_sim::signal_probabilities;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.and([a, b]);
/// c.add_output("y", g);
/// let p = signal_probabilities(&c, 1 << 16, 7);
/// assert!((p[g.index()] - 0.25).abs() < 0.01);
/// ```
#[must_use]
pub fn signal_probabilities(circuit: &Circuit, patterns: u64, seed: u64) -> Vec<f64> {
    signal_probabilities_biased(
        circuit,
        &crate::InputSampler::uniform(circuit.input_count()),
        patterns,
        seed,
    )
}

/// Like [`signal_probabilities`] but under independent per-input biases.
#[must_use]
pub fn signal_probabilities_biased(
    circuit: &Circuit,
    sampler: &crate::InputSampler,
    patterns: u64,
    seed: u64,
) -> Vec<f64> {
    let blocks = patterns.div_ceil(64).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = PackedSim::new(circuit);
    let mut ones = vec![0u64; circuit.len()];
    for _ in 0..blocks {
        sampler.fill(&mut sim, &mut rng);
        sim.propagate(circuit);
        for (count, &w) in ones.iter_mut().zip(sim.words()) {
            *count += u64::from(w.count_ones());
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let total = (blocks * 64) as f64;
    #[allow(clippy::cast_precision_loss)]
    ones.iter().map(|&c| c as f64 / total).collect()
}

/// Joint fanin-combination counts for every gate: entry `[i][combo]` is the
/// number of sampled patterns on which gate `i`'s fanins took the values
/// encoded by `combo` (bit `j` of `combo` = value of fanin `j`).
///
/// Sources (inputs/constants) get an empty vector. These counts, normalized,
/// are the paper's *weight vectors* — the core quantity of the single-pass
/// algorithm — estimated by random pattern simulation as §4(i) suggests.
///
/// # Panics
///
/// Panics if any gate has more than `MAX_COUNTED_ARITY` fanins.
#[must_use]
pub fn joint_input_counts(circuit: &Circuit, patterns: u64, seed: u64) -> Vec<Vec<u64>> {
    joint_input_counts_biased(
        circuit,
        &crate::InputSampler::uniform(circuit.input_count()),
        patterns,
        seed,
    )
}

/// Like [`joint_input_counts`] but under independent per-input biases.
///
/// # Panics
///
/// Panics under the same conditions as [`joint_input_counts`].
#[must_use]
pub fn joint_input_counts_biased(
    circuit: &Circuit,
    sampler: &crate::InputSampler,
    patterns: u64,
    seed: u64,
) -> Vec<Vec<u64>> {
    weight_samples_biased(circuit, sampler, patterns, seed).0
}

/// [`joint_input_counts_biased`] and [`signal_probabilities_biased`] from
/// one simulation pass: both read the same sampled patterns, so each half
/// is bit-identical to the separate call with the same arguments.
///
/// # Panics
///
/// Panics under the same conditions as [`joint_input_counts`].
#[must_use]
pub fn weight_samples_biased(
    circuit: &Circuit,
    sampler: &crate::InputSampler,
    patterns: u64,
    seed: u64,
) -> (Vec<Vec<u64>>, Vec<f64>) {
    let blocks = patterns.div_ceil(64).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = PackedSim::new(circuit);
    let mut counts: Vec<Vec<u64>> = circuit
        .iter()
        .map(|(_, n)| {
            if n.kind().is_gate() {
                assert!(
                    n.arity() <= MAX_COUNTED_ARITY,
                    "gate arity {} exceeds weight-vector limit {MAX_COUNTED_ARITY}",
                    n.arity()
                );
                vec![0u64; 1 << n.arity()]
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut ones = vec![0u64; circuit.len()];
    let mut fanin_words: Vec<u64> = Vec::with_capacity(MAX_COUNTED_ARITY);
    for _ in 0..blocks {
        sampler.fill(&mut sim, &mut rng);
        sim.propagate(circuit);
        for (count, &w) in ones.iter_mut().zip(sim.words()) {
            *count += u64::from(w.count_ones());
        }
        for (id, node) in circuit.iter() {
            if !node.kind().is_gate() {
                continue;
            }
            fanin_words.clear();
            fanin_words.extend(node.fanins().iter().map(|f| sim.words()[f.index()]));
            let slot = &mut counts[id.index()];
            if fanin_words.len() <= 4 {
                // Bit-sliced: one AND-chain per combination.
                for (combo, c) in slot.iter_mut().enumerate() {
                    let mut w = u64::MAX;
                    for (j, &fw) in fanin_words.iter().enumerate() {
                        w &= if combo >> j & 1 == 1 { fw } else { !fw };
                    }
                    *c += u64::from(w.count_ones());
                }
            } else {
                // Lane-gather for wide gates.
                for lane in 0..64 {
                    let mut combo = 0usize;
                    for (j, &fw) in fanin_words.iter().enumerate() {
                        combo |= (((fw >> lane) & 1) as usize) << j;
                    }
                    slot[combo] += 1;
                }
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let total = (blocks * 64) as f64;
    #[allow(clippy::cast_precision_loss)]
    let signal_probs = ones.iter().map(|&c| c as f64 / total).collect();
    (counts, signal_probs)
}

/// Maximum gate arity supported by weight-vector estimation (the weight
/// vector has `2^arity` entries).
pub const MAX_COUNTED_ARITY: usize = 12;

/// Per-gate, per-output observability estimates from fault simulation.
#[derive(Clone, Debug)]
pub struct ObservabilityEstimate {
    per_output: Vec<Vec<f64>>, // [node][output]
    any_output: Vec<f64>,
}

impl ObservabilityEstimate {
    /// Observability of `node` at output `output_index`: the probability a
    /// flip at the node changes that output.
    #[must_use]
    pub fn at_output(&self, node: NodeId, output_index: usize) -> f64 {
        self.per_output[node.index()][output_index]
    }

    /// Observability of `node` at *any* output.
    #[must_use]
    pub fn any(&self, node: NodeId) -> f64 {
        self.any_output[node.index()]
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
}

/// Estimates the noiseless observability of every node at every output by
/// parallel-pattern fault simulation: for each sampled block, each node is
/// flipped in turn and only its fanout cone is re-simulated.
///
/// Cost is `O(patterns/64 · Σ_i |cone(i)|)`; intended for circuits up to a
/// few thousand gates (the exact BDD backend in `relogic` is preferable for
/// small, reconvergence-heavy circuits).
#[must_use]
pub fn observabilities(circuit: &Circuit, patterns: u64, seed: u64) -> ObservabilityEstimate {
    observabilities_biased(
        circuit,
        &crate::InputSampler::uniform(circuit.input_count()),
        patterns,
        seed,
    )
}

/// Like [`observabilities`] but under independent per-input biases.
#[must_use]
pub fn observabilities_biased(
    circuit: &Circuit,
    sampler: &crate::InputSampler,
    patterns: u64,
    seed: u64,
) -> ObservabilityEstimate {
    let n = circuit.len();
    let outputs: Vec<usize> = circuit.outputs().iter().map(|o| o.node().index()).collect();
    let blocks = patterns.div_ceil(64).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clean = PackedSim::new(circuit);

    // Precompute, for each node, the list of gates in its transitive fanout
    // (in topological order) — the nodes to re-simulate per fault.
    let mut in_cone = vec![false; n];
    let mut cones: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for target in (0..n).map(NodeId::from_index) {
        in_cone.iter_mut().for_each(|b| *b = false);
        in_cone[target.index()] = true;
        let mut cone = Vec::new();
        for (id, node) in circuit.iter().skip(target.index() + 1) {
            if node.kind().is_gate() && node.fanins().iter().any(|f| in_cone[f.index()]) {
                in_cone[id.index()] = true;
                cone.push(id);
            }
        }
        cones[target.index()] = cone;
    }

    let mut counts: Vec<Vec<u64>> = vec![vec![0u64; outputs.len()]; n];
    let mut any_counts = vec![0u64; n];
    let mut faulty: Vec<u64> = vec![0; n];
    let mut fanin_words: Vec<u64> = Vec::with_capacity(8);

    for _ in 0..blocks {
        sampler.fill(&mut clean, &mut rng);
        clean.propagate(circuit);
        for target in 0..n {
            faulty.copy_from_slice(clean.words());
            faulty[target] = !faulty[target];
            for &id in &cones[target] {
                let node = circuit.node(id);
                fanin_words.clear();
                fanin_words.extend(node.fanins().iter().map(|f| faulty[f.index()]));
                faulty[id.index()] = node.kind().eval_word(&fanin_words);
            }
            let mut any = 0u64;
            for (k, &oidx) in outputs.iter().enumerate() {
                let diff = clean.words()[oidx] ^ faulty[oidx];
                counts[target][k] += u64::from(diff.count_ones());
                any |= diff;
            }
            any_counts[target] += u64::from(any.count_ones());
        }
    }

    #[allow(clippy::cast_precision_loss)]
    let total = (blocks * 64) as f64;
    #[allow(clippy::cast_precision_loss)]
    let per_output = counts
        .into_iter()
        .map(|row| row.into_iter().map(|c| c as f64 / total).collect())
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let any_output = any_counts.into_iter().map(|c| c as f64 / total).collect();
    ObservabilityEstimate {
        per_output,
        any_output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_probabilities_of_basic_gates() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let and = c.and([a, b]);
        let or = c.or([a, b]);
        let xor = c.xor([a, b]);
        c.add_output("y", xor);
        let p = signal_probabilities(&c, 1 << 16, 42);
        assert!((p[a.index()] - 0.5).abs() < 0.01);
        assert!((p[and.index()] - 0.25).abs() < 0.01);
        assert!((p[or.index()] - 0.75).abs() < 0.01);
        assert!((p[xor.index()] - 0.5).abs() < 0.01);
    }

    #[test]
    fn joint_counts_sum_to_patterns_and_match_marginals() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let patterns = 1u64 << 14;
        let counts = joint_input_counts(&c, patterns, 3);
        let w = &counts[g.index()];
        assert_eq!(w.len(), 4);
        let total: u64 = w.iter().sum();
        assert_eq!(total, patterns);
        // independent uniform inputs: each combo ~ 1/4
        for &cnt in w {
            #[allow(clippy::cast_precision_loss)]
            let frac = cnt as f64 / patterns as f64;
            assert!((frac - 0.25).abs() < 0.02, "{frac}");
        }
    }

    #[test]
    fn joint_counts_capture_correlation() {
        // Both fanins of g are the same signal: only combos 00 and 11 occur.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.xor([a, a]);
        c.add_output("y", g);
        let counts = joint_input_counts(&c, 4096, 9);
        let w = &counts[g.index()];
        assert_eq!(w[0b01], 0);
        assert_eq!(w[0b10], 0);
        assert!(w[0b00] > 0 && w[0b11] > 0);
    }

    #[test]
    fn wide_gate_uses_lane_gather() {
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..6).map(|i| c.add_input(format!("x{i}"))).collect();
        let g = c.and(ins);
        c.add_output("y", g);
        let counts = joint_input_counts(&c, 4096, 1);
        let w = &counts[g.index()];
        assert_eq!(w.len(), 64);
        assert_eq!(w.iter().sum::<u64>(), 4096);
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
        let obs = observabilities(&c, 1 << 15, 5);
        assert!((obs.at_output(g, 0) - 0.5).abs() < 0.02);
        assert!((obs.at_output(x, 0) - 0.75).abs() < 0.02);
        assert!((obs.at_output(y, 0) - 1.0).abs() < 1e-12);
        assert!((obs.any(g) - 0.5).abs() < 0.02);
        assert_eq!(obs.len(), c.len());
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
        let obs = observabilities(&c, 1 << 15, 8);
        assert!((obs.at_output(g, 0) - 1.0).abs() < 1e-12);
        assert!((obs.at_output(g, 1) - 0.5).abs() < 0.02);
        // any-output observability is 1 (always visible at y1)
        assert!((obs.any(g) - 1.0).abs() < 1e-12);
    }
}
