//! Exact reliability evaluation by exhaustive enumeration.
//!
//! For small circuits (≤ ~20 inputs, ≤ ~16 noisy nodes) the reliability can
//! be computed *exactly*: enumerate every input pattern with the packed
//! simulator and every subset of failing nodes, weight each subset by
//! `Π ε_i · Π (1-ε_j)`, and accumulate output disagreement. These exact
//! values are the ground truth that both the Monte Carlo engine and the
//! analytical engines are validated against in the test suites.

use crate::packed::{exhaustive_block_count, exhaustive_lane_mask, PackedSim};
use relogic_netlist::{Circuit, NodeId};

/// Exact per-output reliability `δ_y(ε⃗)` and consolidated error.
#[derive(Clone, Debug)]
pub struct ExactReliability {
    /// Exact `δ_y` per primary output, in declaration order.
    pub per_output: Vec<f64>,
    /// Exact probability at least one output is in error.
    pub any_output: f64,
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

    let outputs: Vec<usize> = circuit.outputs().iter().map(|o| o.node().index()).collect();
    let blocks = exhaustive_block_count(circuit.input_count());
    #[allow(clippy::cast_precision_loss)]
    let pattern_count = (exhaustive_lane_mask(circuit.input_count()).count_ones() as f64)
        * if circuit.input_count() > 6 {
            (blocks) as f64
        } else {
            1.0
        };

    let mut per_output = vec![0.0f64; outputs.len()];
    let mut any_output = 0.0f64;
    let mut clean = PackedSim::new(circuit);
    let mut faulty = PackedSim::new(circuit);
    let mut masks = vec![0u64; circuit.len()];
    let lane_mask = exhaustive_lane_mask(circuit.input_count());

    for block in 0..blocks {
        clean.exhaustive_inputs(block);
        clean.propagate(circuit);
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
            for m in masks.iter_mut() {
                *m = 0;
            }
            for (j, &node) in noisy.iter().enumerate() {
                if subset >> j & 1 == 1 {
                    masks[node] = u64::MAX;
                }
            }
            faulty.copy_from(&clean);
            // Restore clean inputs (copy_from already did) and repropagate.
            faulty.propagate_with_flips(circuit, &masks);
            let mut any = 0u64;
            for (k, &oidx) in outputs.iter().enumerate() {
                let diff = (clean.words()[oidx] ^ faulty.words()[oidx]) & lane_mask;
                #[allow(clippy::cast_precision_loss)]
                let frac = f64::from(diff.count_ones()) / pattern_count;
                per_output[k] += weight * frac;
                any |= diff;
            }
            #[allow(clippy::cast_precision_loss)]
            let frac = f64::from(any.count_ones()) / pattern_count;
            any_output += weight * frac;
        }
    }
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
    let outputs: Vec<usize> = circuit.outputs().iter().map(|o| o.node().index()).collect();
    let blocks = exhaustive_block_count(circuit.input_count());
    let lane_mask = exhaustive_lane_mask(circuit.input_count());
    #[allow(clippy::cast_precision_loss)]
    let pattern_count = f64::from(lane_mask.count_ones())
        * if circuit.input_count() > 6 {
            blocks as f64
        } else {
            1.0
        };

    let mut masks = vec![0u64; circuit.len()];
    for &f in flipped {
        masks[f.index()] = u64::MAX;
    }
    let mut clean = PackedSim::new(circuit);
    let mut faulty = PackedSim::new(circuit);
    let mut counts = vec![0u64; outputs.len()];
    for block in 0..blocks {
        clean.exhaustive_inputs(block);
        clean.propagate(circuit);
        faulty.copy_from(&clean);
        faulty.propagate_with_flips(circuit, &masks);
        for (k, &oidx) in outputs.iter().enumerate() {
            let diff = (clean.words()[oidx] ^ faulty.words()[oidx]) & lane_mask;
            counts[k] += u64::from(diff.count_ones());
        }
    }
    #[allow(clippy::cast_precision_loss)]
    counts.iter().map(|&c| c as f64 / pattern_count).collect()
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
    fn zero_eps_subsets_are_skipped() {
        let c = reconvergent();
        let eps = vec![0.0; c.len()];
        let exact = exact_reliability(&c, &eps);
        assert_eq!(exact.per_output, vec![0.0, 0.0]);
        assert_eq!(exact.any_output, 0.0);
    }
}
