//! Weight vectors: the joint error-free input distribution of every gate.
//!
//! The paper, §4(i): *"The weight vector for a gate stores the probability
//! of occurrence of every combination of inputs at that gate … Since the
//! weight vector is just the joint signal probability distribution of the
//! inputs of a gate, it can be computed by random pattern simulation or
//! symbolic techniques based on BDDs. Weight vectors are independent of ε⃗
//! and change only if the structure of the logic circuit changes."*
//!
//! [`Weights::compute`] implements both backends; the result is reused
//! across every ε in a sweep, exactly as the paper prescribes.

use crate::{Backend, InputDistribution, RelogicError};
use relogic_bdd::{BddManager, CircuitBdds, VarOrder};
use relogic_netlist::{Circuit, NodeId};
use std::collections::HashMap;

/// Maximum gate arity the analytical engines accept (weight vectors have
/// `2^arity` entries and the propagation step enumerates `4^arity` pairs).
pub const MAX_ANALYSIS_ARITY: usize = 8;

/// Precomputed, ε-independent circuit statistics: per-gate weight vectors
/// and per-node signal probabilities.
#[derive(Clone, Debug)]
pub struct Weights {
    vectors: Vec<Vec<f64>>,
    signal_probs: Vec<f64>,
}

impl Weights {
    /// Computes weight vectors and signal probabilities for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if a gate's arity exceeds [`MAX_ANALYSIS_ARITY`] or the input
    /// distribution does not match the circuit.
    ///
    /// # Examples
    ///
    /// ```
    /// use relogic::{Backend, InputDistribution, Weights};
    /// use relogic_netlist::Circuit;
    ///
    /// let mut c = Circuit::new("t");
    /// let a = c.add_input("a");
    /// let b = c.add_input("b");
    /// let g = c.and([a, b]);
    /// c.add_output("y", g);
    ///
    /// let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
    /// assert_eq!(w.vector(g), &[0.25, 0.25, 0.25, 0.25]);
    /// assert!((w.signal_prob(g) - 0.25).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn compute(circuit: &Circuit, dist: &InputDistribution, backend: Backend) -> Self {
        match Weights::try_compute(circuit, dist, backend) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Weights::compute`]: validates gate arities and the input
    /// distribution before touching the backend.
    ///
    /// # Errors
    ///
    /// [`RelogicError::ArityExceeded`] if a gate's arity exceeds
    /// [`MAX_ANALYSIS_ARITY`], or [`RelogicError::DistributionMismatch`]
    /// if the input distribution does not match the circuit.
    pub fn try_compute(
        circuit: &Circuit,
        dist: &InputDistribution,
        backend: Backend,
    ) -> Result<Self, RelogicError> {
        for (id, node) in circuit.iter() {
            if node.arity() > MAX_ANALYSIS_ARITY {
                return Err(RelogicError::ArityExceeded {
                    node: id,
                    arity: node.arity(),
                    max: MAX_ANALYSIS_ARITY,
                });
            }
        }
        // Validate up front so the backends can use the infallible lookup.
        let _ = dist.try_position_probs(circuit)?;
        Ok(match backend {
            Backend::Bdd => Self::compute_bdd(circuit, dist),
            Backend::Simulation { patterns, seed } => {
                Self::compute_sim(circuit, dist, patterns, seed)
            }
        })
    }

    fn compute_bdd(circuit: &Circuit, dist: &InputDistribution) -> Self {
        let order = VarOrder::dfs(circuit);
        let mut manager = BddManager::new(order.len());
        let bdds = CircuitBdds::build(&mut manager, circuit, &order);
        let var_probs = order.permute_probs(&dist.position_probs(circuit), order.len(), 0.5);
        let mut memo: HashMap<relogic_bdd::BddRef, f64> = HashMap::new();

        let signal_probs: Vec<f64> = circuit
            .node_ids()
            .map(|id| manager.probability_memo(bdds.func(id), &var_probs, &mut memo))
            .collect();

        let mut vectors: Vec<Vec<f64>> = vec![Vec::new(); circuit.len()];
        for (id, node) in circuit.iter() {
            if !node.kind().is_gate() {
                continue;
            }
            let k = node.arity();
            let mut vec = vec![0.0f64; 1 << k];
            for (combo, slot) in vec.iter_mut().enumerate() {
                let mut conj = relogic_bdd::BddRef::TRUE;
                for (j, &f) in node.fanins().iter().enumerate() {
                    let lit = if combo >> j & 1 == 1 {
                        bdds.func(f)
                    } else {
                        manager.not(bdds.func(f))
                    };
                    conj = manager.and(conj, lit);
                    if conj.is_false() {
                        break;
                    }
                }
                *slot = manager.probability_memo(conj, &var_probs, &mut memo);
            }
            vectors[id.index()] = vec;
        }
        Weights {
            vectors,
            signal_probs,
        }
    }

    fn compute_sim(circuit: &Circuit, dist: &InputDistribution, patterns: u64, seed: u64) -> Self {
        let sampler = relogic_sim::InputSampler::independent(&dist.position_probs(circuit));
        let (counts, signal_probs) =
            relogic_sim::weight_samples_biased(circuit, &sampler, patterns, seed);
        #[allow(clippy::cast_precision_loss)]
        let vectors = counts
            .into_iter()
            .map(|cs| {
                let total: u64 = cs.iter().sum();
                if total == 0 {
                    return Vec::new();
                }
                let tf = total as f64;
                cs.into_iter().map(|c| c as f64 / tf).collect()
            })
            .collect();
        Weights {
            vectors,
            signal_probs,
        }
    }

    /// The weight vector of gate `node` (`2^arity` probabilities summing to
    /// 1); empty for sources.
    #[must_use]
    pub fn vector(&self, node: NodeId) -> &[f64] {
        &self.vectors[node.index()]
    }

    /// Fault-free signal probability `Pr(node = 1)`.
    #[must_use]
    pub fn signal_prob(&self, node: NodeId) -> f64 {
        self.signal_probs[node.index()]
    }

    /// All signal probabilities, indexed by [`NodeId::index`].
    #[must_use]
    pub fn signal_probs(&self) -> &[f64] {
        &self.signal_probs
    }

    /// All weight vectors, indexed by [`NodeId::index`]; non-gate nodes
    /// hold an empty vector. Exposed for the persistent artifact store.
    #[must_use]
    pub fn vectors(&self) -> &[Vec<f64>] {
        &self.vectors
    }

    /// Rebuilds weights from deserialized arrays, validating what
    /// [`Weights::try_compute`] guarantees: one vector per node, every
    /// value finite, and each vector either empty (non-gate node) or a
    /// power of two no larger than `2^`[`MAX_ANALYSIS_ARITY`] entries.
    /// Checksummed payloads still route through here so a hash collision
    /// degrades into an error, never a panic downstream.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn from_parts(vectors: Vec<Vec<f64>>, signal_probs: Vec<f64>) -> Result<Self, String> {
        if vectors.len() != signal_probs.len() {
            return Err(format!(
                "{} vectors but {} signal probabilities",
                vectors.len(),
                signal_probs.len()
            ));
        }
        if signal_probs.iter().any(|p| !p.is_finite()) {
            return Err("non-finite signal probability".to_owned());
        }
        for (i, v) in vectors.iter().enumerate() {
            if !v.is_empty() && (!v.len().is_power_of_two() || v.len() > 1 << MAX_ANALYSIS_ARITY) {
                return Err(format!("vector {i} has invalid length {}", v.len()));
            }
            if v.iter().any(|x| !x.is_finite()) {
                return Err(format!("non-finite entry in vector {i}"));
            }
        }
        Ok(Weights {
            vectors,
            signal_probs,
        })
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.signal_probs.len()
    }

    /// Returns `true` if no nodes are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.signal_probs.is_empty()
    }

    /// Approximate heap footprint of this table in bytes (weight-vector
    /// payloads, per-vector headers, and the signal-probability array).
    ///
    /// Used by artifact caches to account byte budgets; intentionally a
    /// structural estimate rather than an allocator-exact figure.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        let vector_payload: usize = self.vectors.iter().map(|v| v.len() * 8).sum();
        let vector_headers = self.vectors.len() * std::mem::size_of::<Vec<f64>>();
        vector_payload + vector_headers + self.signal_probs.len() * 8
    }

    /// The heap footprint [`Weights::try_compute`] *would* produce for
    /// `circuit`, computable without running either backend (vector sizes
    /// are `2^arity`, a pure function of circuit structure).
    ///
    /// Lets a cache charge an entry for its weight table before the table
    /// is lazily materialized.
    #[must_use]
    pub fn projected_heap_bytes(circuit: &Circuit) -> usize {
        let mut payload = 0usize;
        for (_, node) in circuit.iter() {
            if node.kind().is_gate() {
                payload += (1usize << node.arity().min(MAX_ANALYSIS_ARITY)) * 8;
            }
        }
        payload + circuit.len() * (std::mem::size_of::<Vec<f64>>() + 8)
    }
}

/// Exact (BDD) or sampled joint value distribution of a set of nodes:
/// entry `combo` is `Pr(⋀_j node_j = bit_j(combo))` under the fault-free
/// circuit. Used for consolidating multi-output error probabilities.
///
/// # Panics
///
/// Panics if `nodes.len() > 12` (distribution size `2^n`), or under the
/// conditions of [`Weights::compute`].
#[must_use]
pub fn joint_value_distribution(
    circuit: &Circuit,
    nodes: &[NodeId],
    dist: &InputDistribution,
    backend: Backend,
) -> Vec<f64> {
    match try_joint_value_distribution(circuit, nodes, dist, backend) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`joint_value_distribution`].
///
/// # Errors
///
/// [`RelogicError::DistributionMismatch`] if `nodes` is larger than 12 (the
/// `2^n` distribution would blow up), names a node outside the circuit, or
/// the input distribution does not match the circuit.
pub fn try_joint_value_distribution(
    circuit: &Circuit,
    nodes: &[NodeId],
    dist: &InputDistribution,
    backend: Backend,
) -> Result<Vec<f64>, RelogicError> {
    if nodes.len() > 12 {
        return Err(RelogicError::DistributionMismatch {
            message: format!("joint distribution over {} nodes (max 12)", nodes.len()),
        });
    }
    if let Some(&bad) = nodes.iter().find(|n| n.index() >= circuit.len()) {
        return Err(RelogicError::DistributionMismatch {
            message: format!("node {bad} outside circuit of {} nodes", circuit.len()),
        });
    }
    let _ = dist.try_position_probs(circuit)?;
    Ok(joint_value_distribution_validated(
        circuit, nodes, dist, backend,
    ))
}

fn joint_value_distribution_validated(
    circuit: &Circuit,
    nodes: &[NodeId],
    dist: &InputDistribution,
    backend: Backend,
) -> Vec<f64> {
    match backend {
        Backend::Bdd => {
            let order = VarOrder::dfs(circuit);
            let mut manager = BddManager::new(order.len());
            let bdds = CircuitBdds::build(&mut manager, circuit, &order);
            let var_probs = order.permute_probs(&dist.position_probs(circuit), order.len(), 0.5);
            let mut memo: HashMap<relogic_bdd::BddRef, f64> = HashMap::new();
            (0..1usize << nodes.len())
                .map(|combo| {
                    let mut conj = relogic_bdd::BddRef::TRUE;
                    for (j, &nid) in nodes.iter().enumerate() {
                        let lit = if combo >> j & 1 == 1 {
                            bdds.func(nid)
                        } else {
                            manager.not(bdds.func(nid))
                        };
                        conj = manager.and(conj, lit);
                        if conj.is_false() {
                            break;
                        }
                    }
                    manager.probability_memo(conj, &var_probs, &mut memo)
                })
                .collect()
        }
        Backend::Simulation { patterns, seed } => {
            use rand::SeedableRng;
            let sampler = relogic_sim::InputSampler::independent(&dist.position_probs(circuit));
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut sim = relogic_sim::PackedSim::new(circuit);
            let blocks = patterns.div_ceil(64).max(1);
            let mut counts = vec![0u64; 1 << nodes.len()];
            for _ in 0..blocks {
                sampler.fill(&mut sim, &mut rng);
                sim.propagate(circuit);
                for lane in 0..64 {
                    let mut combo = 0usize;
                    for (j, &nid) in nodes.iter().enumerate() {
                        combo |= (((sim.node_word(nid) >> lane) & 1) as usize) << j;
                    }
                    counts[combo] += 1;
                }
            }
            #[allow(clippy::cast_precision_loss)]
            let total = (blocks * 64) as f64;
            #[allow(clippy::cast_precision_loss)]
            counts.into_iter().map(|c| c as f64 / total).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bdd_weights_are_exact() {
        let c = reconvergent();
        let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let g = NodeId::from_index(3);
        let o1 = NodeId::from_index(4);
        // AND of two fresh inputs: uniform 1/4 each.
        assert_eq!(w.vector(g), &[0.25, 0.25, 0.25, 0.25]);
        // OR gate sees (g, c) with P(g=1) = 1/4 independent of c.
        let v = w.vector(o1);
        assert!((v[0b00] - 0.375).abs() < 1e-12);
        assert!((v[0b01] - 0.125).abs() < 1e-12);
        assert!((v[0b10] - 0.375).abs() < 1e-12);
        assert!((v[0b11] - 0.125).abs() < 1e-12);
        assert!((w.signal_prob(g) - 0.25).abs() < 1e-12);
        assert!((w.signal_prob(o1) - (0.25 + 0.5 - 0.125)).abs() < 1e-12);
    }

    #[test]
    fn sim_weights_converge_to_bdd_weights() {
        let c = reconvergent();
        let exact = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let approx = Weights::compute(
            &c,
            &InputDistribution::Uniform,
            Backend::Simulation {
                patterns: 1 << 16,
                seed: 77,
            },
        );
        for (id, node) in c.iter() {
            if !node.kind().is_gate() {
                continue;
            }
            for (combo, (&e, &a)) in exact.vector(id).iter().zip(approx.vector(id)).enumerate() {
                assert!((e - a).abs() < 0.02, "{id} combo {combo}: {e} vs {a}");
            }
            assert!((exact.signal_prob(id) - approx.signal_prob(id)).abs() < 0.02);
        }
    }

    #[test]
    fn sim_weights_match_the_two_pass_reference_bit_for_bit() {
        let c = reconvergent();
        let dist = InputDistribution::Independent(vec![0.3, 0.5, 0.9]);
        let (patterns, seed) = (1000, 13);
        let w = Weights::compute(&c, &dist, Backend::Simulation { patterns, seed });
        let sampler = relogic_sim::InputSampler::independent(&dist.position_probs(&c));
        let counts = relogic_sim::joint_input_counts_biased(&c, &sampler, patterns, seed);
        let probs = relogic_sim::signal_probabilities_biased(&c, &sampler, patterns, seed);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(w.signal_probs()), bits(&probs));
        for (id, cs) in c.node_ids().zip(counts) {
            let total: u64 = cs.iter().sum();
            #[allow(clippy::cast_precision_loss)]
            let want: Vec<f64> = cs.iter().map(|&n| n as f64 / total as f64).collect();
            assert_eq!(bits(w.vector(id)), bits(&want), "{id}");
        }
    }

    #[test]
    fn weights_capture_correlated_fanins() {
        // XOR(a, a): only combos 00 and 11 have mass.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.xor([a, a]);
        c.add_output("y", g);
        let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        assert_eq!(w.vector(g), &[0.5, 0.0, 0.0, 0.5]);
        assert_eq!(w.signal_prob(g), 0.0);
    }

    #[test]
    fn sim_backend_honours_nonuniform_inputs() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let dist = InputDistribution::Independent(vec![0.9, 0.5]);
        let w = Weights::compute(
            &c,
            &dist,
            Backend::Simulation {
                patterns: 1 << 16,
                seed: 21,
            },
        );
        let v = w.vector(g);
        assert!((v[0b01] - 0.45).abs() < 0.01, "{v:?}");
        assert!((w.signal_prob(a) - 0.9).abs() < 0.01);
    }

    #[test]
    fn nonuniform_inputs_shift_weights() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let dist = InputDistribution::Independent(vec![0.9, 0.5]);
        let w = Weights::compute(&c, &dist, Backend::Bdd);
        let v = w.vector(g);
        assert!((v[0b00] - 0.05).abs() < 1e-12);
        assert!((v[0b01] - 0.45).abs() < 1e-12);
        assert!((v[0b10] - 0.05).abs() < 1e-12);
        assert!((v[0b11] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn joint_value_distribution_of_outputs() {
        let c = reconvergent();
        let nodes = [NodeId::from_index(4), NodeId::from_index(5)];
        let exact = joint_value_distribution(&c, &nodes, &InputDistribution::Uniform, Backend::Bdd);
        assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let approx = joint_value_distribution(
            &c,
            &nodes,
            &InputDistribution::Uniform,
            Backend::Simulation {
                patterns: 1 << 15,
                seed: 3,
            },
        );
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.02);
        }
        // y1=0,y2=1 impossible? y1 = g|c, y2 = g^c: y2=1 means exactly one
        // of (g,c) is 1, which forces y1=1. So combo (y1=0, y2=1) has mass 0.
        assert!(exact[0b10] < 1e-12);
    }

    #[test]
    fn byte_projection_matches_computed_footprint() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        let h = c.or([g, a]);
        c.add_output("y", h);
        let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        assert_eq!(w.approx_heap_bytes(), Weights::projected_heap_bytes(&c));
        assert!(w.approx_heap_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "exceeding the analysis limit")]
    fn oversized_gate_rejected() {
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..9).map(|i| c.add_input(format!("x{i}"))).collect();
        let g = c.and(ins);
        c.add_output("y", g);
        let _ = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
    }
}
