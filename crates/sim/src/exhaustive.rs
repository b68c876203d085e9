//! Exact reliability evaluation by exhaustive enumeration.
//!
//! For small circuits (≤ ~20 inputs, ≤ ~16 noisy nodes) the reliability can
//! be computed *exactly*: enumerate every input pattern on the compiled
//! tape and every subset of failing nodes, weight each subset by
//! `Π ε_i · Π (1-ε_j)`, and accumulate output disagreement. These exact
//! values are the ground truth that both the Monte Carlo engine and the
//! analytical engines are validated against in the test suites.
//! [`for_each_input_block`] is the enumeration driver both oracles here
//! (and the test suites' own oracles) share.

use crate::tape::CircuitTape;
use relogic_netlist::{Circuit, NodeId};

/// Exact per-output reliability `δ_y(ε⃗)` and consolidated error.
#[derive(Clone, Debug)]
pub struct ExactReliability {
    /// Exact `δ_y` per primary output, in declaration order.
    pub per_output: Vec<f64>,
    /// Exact probability at least one output is in error.
    pub any_output: f64,
}

/// Enumerates all `2^m` input assignments of `tape`'s `m` inputs in
/// 64-pattern blocks, calling `visit(words, lane_mask)` once per block.
///
/// `words` holds every slot's fault-free word, indexed by slot (a
/// [`CircuitTape::eval_group`] group at `W = 1`, flattened): pattern `block · 64 + lane` assigns input position `i` bit `i`
/// of the pattern index. `lane_mask` selects the lanes that hold a
/// pattern; only a circuit with fewer than 6 inputs leaves lanes unused.
/// Each assignment is visited exactly once, so a count over masked lanes
/// divided by `2^m` is an exact probability under uniform inputs.
///
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic_sim::{for_each_input_block, CircuitTape};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.and([a, b]);
/// c.add_output("y", g);
///
/// let tape = CircuitTape::compile(&c);
/// let mut ones = 0;
/// for_each_input_block(&tape, |words, lanes| {
///     ones += (words[tape.slot_of_node(g.index())] & lanes).count_ones();
/// });
/// assert_eq!(ones, 1); // one of the four assignments sets a AND b
/// ```
///
/// # Panics
///
/// Panics if the tape has more than 30 inputs, where exhaustive
/// enumeration is hopeless anyway.
pub fn for_each_input_block<F: FnMut(&[u64], u64)>(tape: &CircuitTape, mut visit: F) {
    let inputs = tape.input_slots().len();
    assert!(inputs <= 30, "exhaustive enumeration over {inputs} inputs");
    let (blocks, lane_mask) = if inputs >= 6 {
        (1u64 << (inputs - 6), u64::MAX)
    } else {
        (1, (1u64 << (1usize << inputs)) - 1)
    };
    let mut words = vec![[0u64]; tape.n_slots()];
    for block in 0..blocks {
        for (position, &slot) in tape.input_slots().iter().enumerate() {
            words[slot as usize] = [input_word(position, block)];
        }
        tape.eval_group(&mut words, None);
        visit(words.as_flattened(), lane_mask);
    }
}

/// The exhaustive-enumeration word for input `position` in `block`:
/// bit `lane` is bit `position` of the pattern index `block * 64 + lane`.
fn input_word(position: usize, block: u64) -> u64 {
    match position {
        0 => 0xAAAA_AAAA_AAAA_AAAA,
        1 => 0xCCCC_CCCC_CCCC_CCCC,
        2 => 0xF0F0_F0F0_F0F0_F0F0,
        3 => 0xFF00_FF00_FF00_FF00,
        4 => 0xFFFF_0000_FFFF_0000,
        5 => 0xFFFF_FFFF_0000_0000,
        // Inputs beyond the 6 in-word ones are constant within a block.
        p => 0u64.wrapping_sub(block >> (p - 6) & 1),
    }
}

/// `2^inputs`, the number of patterns [`for_each_input_block`] visits.
fn pattern_count(circuit: &Circuit) -> f64 {
    f64::from(1u32 << circuit.input_count())
}

/// Computes exact reliability by enumerating inputs × failure subsets.
///
/// `node_eps[i]` is node `i`'s BSC crossover probability; nodes with ε = 0
/// never fail and do not contribute to the subset enumeration, so the cost
/// is `O(2^m · 2^k)` pattern-blocks where `m` is the input count and `k` the
/// number of noisy nodes.
///
/// # Panics
///
/// Panics if the circuit has more than 20 inputs, more than 20 noisy nodes,
/// or `node_eps.len() != circuit.len()`.
///
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic_sim::exact_reliability;
///
/// let mut c = Circuit::new("inv");
/// let a = c.add_input("a");
/// let g = c.not(a);
/// c.add_output("y", g);
/// let exact = exact_reliability(&c, &[0.0, 0.1]);
/// assert!((exact.per_output[0] - 0.1).abs() < 1e-12);
/// ```
#[must_use]
pub fn exact_reliability(circuit: &Circuit, node_eps: &[f64]) -> ExactReliability {
    assert_eq!(node_eps.len(), circuit.len());
    assert!(
        circuit.input_count() <= 20,
        "exhaustive enumeration limited to 20 inputs"
    );
    let noisy: Vec<usize> = (0..circuit.len()).filter(|&i| node_eps[i] > 0.0).collect();
    assert!(
        noisy.len() <= 20,
        "exhaustive enumeration limited to 20 noisy nodes (got {})",
        noisy.len()
    );

    let tape = CircuitTape::compile(circuit);
    let patterns = pattern_count(circuit);
    let mut per_output = vec![0.0f64; tape.output_slots().len()];
    let mut any_output = 0.0f64;
    let mut faulty = vec![[0u64]; tape.n_slots()];
    let mut masks = vec![[0u64]; tape.n_slots()];

    for_each_input_block(&tape, |clean, lane_mask| {
        for subset in 0..1u64 << noisy.len() {
            // Probability of exactly this failure subset.
            let mut weight = 1.0f64;
            for (j, &node) in noisy.iter().enumerate() {
                weight *= if subset >> j & 1 == 1 {
                    node_eps[node]
                } else {
                    1.0 - node_eps[node]
                };
            }
            if weight == 0.0 {
                continue;
            }
            for (j, &node) in noisy.iter().enumerate() {
                masks[tape.slot_of_node(node)] = [0u64.wrapping_sub(subset >> j & 1)];
            }
            faulty.as_flattened_mut().copy_from_slice(clean);
            tape.eval_group(&mut faulty, Some(&masks));
            let mut any = 0u64;
            for (k, &os) in tape.output_slots().iter().enumerate() {
                let os = os as usize;
                let diff = (clean[os] ^ faulty[os][0]) & lane_mask;
                per_output[k] += weight * (f64::from(diff.count_ones()) / patterns);
                any |= diff;
            }
            any_output += weight * (f64::from(any.count_ones()) / patterns);
        }
    });
    ExactReliability {
        per_output,
        any_output,
    }
}

/// Probability (over uniform inputs) that each output differs from its
/// fault-free value when the given nodes are *deterministically* flipped.
///
/// This is the quantity the paper analyzes for gate pairs in Fig. 1
/// ("if both G_x and G_z fail, the probability of an output failure is
/// 46/256").
///
/// # Panics
///
/// Panics if the circuit has more than 20 inputs.
#[must_use]
pub fn flip_influence(circuit: &Circuit, flipped: &[NodeId]) -> Vec<f64> {
    assert!(circuit.input_count() <= 20);
    let tape = CircuitTape::compile(circuit);
    let mut masks = vec![[0u64]; tape.n_slots()];
    for &f in flipped {
        masks[tape.slot_of_node(f.index())] = [u64::MAX];
    }
    let mut faulty = vec![[0u64]; tape.n_slots()];
    let mut counts = vec![0u64; tape.output_slots().len()];
    for_each_input_block(&tape, |clean, lane_mask| {
        faulty.as_flattened_mut().copy_from_slice(clean);
        tape.eval_group(&mut faulty, Some(&masks));
        for (count, &os) in counts.iter_mut().zip(tape.output_slots()) {
            let os = os as usize;
            *count += u64::from(((clean[os] ^ faulty[os][0]) & lane_mask).count_ones());
        }
    });
    let patterns = pattern_count(circuit);
    #[allow(clippy::cast_precision_loss)]
    counts.iter().map(|&c| c as f64 / patterns).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_estimate, MonteCarloConfig};

    fn reconvergent() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g = c.and([a, b]);
        let o1 = c.or([g, x]);
        let o2 = c.xor([g, x]);
        c.add_output("y1", o1);
        c.add_output("y2", o2);
        c
    }

    #[test]
    fn exact_matches_hand_computation_for_inverter_chain() {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let g1 = c.not(a);
        let g2 = c.not(g1);
        c.add_output("y", g2);
        let eps = 0.1;
        let exact = exact_reliability(&c, &[0.0, eps, eps]);
        let expect = 2.0 * eps * (1.0 - eps);
        assert!((exact.per_output[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn exact_agrees_with_monte_carlo() {
        let c = reconvergent();
        let eps: Vec<f64> = c
            .iter()
            .map(|(_, n)| if n.kind().is_gate() { 0.12 } else { 0.0 })
            .collect();
        let exact = exact_reliability(&c, &eps);
        let mc = try_estimate(
            &c,
            &eps,
            &MonteCarloConfig {
                patterns: 1 << 18,
                ..MonteCarloConfig::default()
            },
        )
        .unwrap();
        for k in 0..2 {
            assert!(
                (exact.per_output[k] - mc.per_output()[k]).abs() < 0.005,
                "output {k}: exact {} vs mc {}",
                exact.per_output[k],
                mc.per_output()[k]
            );
        }
        assert!((exact.any_output - mc.any_output()).abs() < 0.005);
    }

    #[test]
    fn exact_any_output_bounded_by_sum_and_max() {
        let c = reconvergent();
        let eps: Vec<f64> = c
            .iter()
            .map(|(_, n)| if n.kind().is_gate() { 0.2 } else { 0.0 })
            .collect();
        let exact = exact_reliability(&c, &eps);
        let max = exact.per_output.iter().cloned().fold(f64::MIN, f64::max);
        let sum: f64 = exact.per_output.iter().sum();
        assert!(exact.any_output >= max - 1e-12);
        assert!(exact.any_output <= sum + 1e-12);
    }

    #[test]
    fn flip_influence_of_single_gate_is_its_observability() {
        // y = (a & b) | c: flipping the AND changes y iff c = 0 => 1/2.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g = c.and([a, b]);
        let y = c.or([g, x]);
        c.add_output("y", y);
        let inf = flip_influence(&c, &[g]);
        assert!((inf[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flip_influence_of_two_gates_can_mask() {
        // Two inverters in series: flipping both restores the output.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g1 = c.not(a);
        let g2 = c.not(g1);
        c.add_output("y", g2);
        let both = flip_influence(
            &c,
            &[
                relogic_netlist::NodeId::from_index(1),
                relogic_netlist::NodeId::from_index(2),
            ],
        );
        assert_eq!(both[0], 0.0);
        let one = flip_influence(&c, &[relogic_netlist::NodeId::from_index(1)]);
        assert_eq!(one[0], 1.0);
    }

    #[test]
    fn more_than_six_inputs_enumerates_blocks() {
        // 8-input parity tree: flipping the root always observable.
        let mut c = Circuit::new("parity8");
        let ins: Vec<_> = (0..8).map(|i| c.add_input(format!("x{i}"))).collect();
        let root = c.xor(ins);
        c.add_output("y", root);
        let inf = flip_influence(&c, &[root]);
        assert_eq!(inf[0], 1.0);
        let eps = {
            let mut v = vec![0.0; c.len()];
            v[root.index()] = 0.25;
            v
        };
        let exact = exact_reliability(&c, &eps);
        assert!((exact.per_output[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn enumeration_covers_all_patterns() {
        // Full adder: every one of the 8 assignments in one partial block.
        let mut c = Circuit::new("fa");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let cin = c.add_input("cin");
        let s1 = c.xor([a, b]);
        let sum = c.xor([s1, cin]);
        c.add_output("sum", sum);
        let tape = CircuitTape::compile(&c);
        let mut blocks = 0;
        for_each_input_block(&tape, |words, mask| {
            blocks += 1;
            assert_eq!(mask, 0xFF);
            for lane in 0..8u32 {
                let bits: Vec<bool> = (0..3).map(|j| lane >> j & 1 != 0).collect();
                let expect = c.eval(&bits);
                let got = words[tape.slot_of_node(sum.index())] >> lane & 1 != 0;
                assert_eq!(got, expect[0], "lane {lane}");
            }
        });
        assert_eq!(blocks, 1);
    }

    #[test]
    fn enumeration_blocks_beyond_six_inputs() {
        // 8 inputs: 4 blocks; input 7 is constant within a block and
        // follows bit 1 of the block index, input 6 bit 0.
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..8).map(|i| c.add_input(format!("x{i}"))).collect();
        let g = c.and(ins.clone());
        c.add_output("y", g);
        let tape = CircuitTape::compile(&c);
        let mut seen = Vec::new();
        for_each_input_block(&tape, |words, mask| {
            assert_eq!(mask, u64::MAX);
            let word = |i: usize| words[tape.slot_of_node(ins[i].index())];
            seen.push((word(6), word(7)));
        });
        let (zero, ones) = (0, u64::MAX);
        assert_eq!(
            seen,
            [(zero, zero), (ones, zero), (zero, ones), (ones, ones)]
        );
    }

    #[test]
    fn zero_eps_subsets_are_skipped() {
        let c = reconvergent();
        let eps = vec![0.0; c.len()];
        let exact = exact_reliability(&c, &eps);
        assert_eq!(exact.per_output, vec![0.0, 0.0]);
        assert_eq!(exact.any_output, 0.0);
    }
}
