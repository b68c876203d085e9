//! Weight vectors: the joint error-free input distribution of every gate.
//!
//! The paper, §4(i): *"The weight vector for a gate stores the probability
//! of occurrence of every combination of inputs at that gate … Since the
//! weight vector is just the joint signal probability distribution of the
//! inputs of a gate, it can be computed by random pattern simulation or
//! symbolic techniques based on BDDs. Weight vectors are independent of ε⃗
//! and change only if the structure of the logic circuit changes."*
//!
//! [`Weights::try_compute`] implements both backends; the result is reused
//! across every ε in a sweep, exactly as the paper prescribes.

use crate::exact::exact_joint_probs;
use crate::{Backend, CancelToken, InputDistribution, RelogicError};
use relogic_netlist::{Circuit, NodeId};

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
    /// Computes weight vectors and signal probabilities for `circuit`,
    /// validating gate arities and the input distribution before touching
    /// the backend.
    ///
    /// A sampled backend runs [`relogic_sim::sample_joint_probs`] on every
    /// available core. This is [`Weights::try_compute_threads_cancellable`]
    /// with `threads` 0 and a token that never fires, kept because the
    /// benchmark crate calls it.
    ///
    /// # Errors
    ///
    /// [`RelogicError::ArityExceeded`] if a gate's arity exceeds
    /// [`MAX_ANALYSIS_ARITY`], [`RelogicError::DistributionMismatch`]
    /// if the input distribution does not match the circuit, or
    /// [`RelogicError::Sim`] wrapping
    /// [`relogic_sim::SimError::ZeroPatternBudget`] for a sampled backend
    /// with zero patterns.
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
    /// let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd)?;
    /// assert_eq!(w.vector(g), &[0.25, 0.25, 0.25, 0.25]);
    /// assert!((w.signal_prob(g) - 0.25).abs() < 1e-12);
    /// # Ok::<(), relogic::RelogicError>(())
    /// ```
    pub fn try_compute(
        circuit: &Circuit,
        dist: &InputDistribution,
        backend: Backend,
    ) -> Result<Self, RelogicError> {
        Self::try_compute_threads_cancellable(circuit, dist, backend, 0, &CancelToken::new())
    }

    /// Computes weight vectors and signal probabilities for `circuit` as
    /// [`Weights::try_compute`] does, a sampled backend on `threads`
    /// workers (`0` auto-detects the hardware; the BDD backend runs on
    /// one). The result does not depend on `threads`: every sampled
    /// vector and probability is an exact pattern count divided by the
    /// pattern total. The BDD backend checks `cancel` after every gate of
    /// its build, the sampled backend at every hand-out of
    /// [`relogic_sim::CHUNK_BLOCKS`] 64-pattern blocks; a run that
    /// completes returns the same bits as an unbounded one.
    ///
    /// # Errors
    ///
    /// As [`Weights::try_compute`], plus [`RelogicError::Cancelled`] once
    /// `cancel` fires.
    pub fn try_compute_threads_cancellable(
        circuit: &Circuit,
        dist: &InputDistribution,
        backend: Backend,
        threads: usize,
        cancel: &CancelToken,
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
        let probs = dist.try_position_probs(circuit)?;
        let fanins: Vec<&[NodeId]> = circuit.iter().map(|(_, node)| node.fanins()).collect();
        let (vectors, signal_probs) = match backend.validated()? {
            Backend::Bdd => exact_joint_probs(circuit, &probs, &fanins, cancel)?,
            Backend::Simulation { patterns, seed } => relogic_sim::sample_joint_probs(
                circuit, &probs, patterns, seed, &fanins, threads, cancel,
            )?,
        };
        Ok(Weights {
            vectors,
            signal_probs,
        })
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
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
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
        let exact = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let approx = Weights::try_compute(
            &c,
            &InputDistribution::Uniform,
            Backend::Simulation {
                patterns: 1 << 16,
                seed: 77,
            },
        )
        .unwrap();
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
    fn weights_capture_correlated_fanins() {
        // XOR(a, a): only combos 00 and 11 have mass.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.xor([a, a]);
        c.add_output("y", g);
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
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
        let w = Weights::try_compute(
            &c,
            &dist,
            Backend::Simulation {
                patterns: 1 << 16,
                seed: 21,
            },
        )
        .unwrap();
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
        let w = Weights::try_compute(&c, &dist, Backend::Bdd).unwrap();
        let v = w.vector(g);
        assert!((v[0b00] - 0.05).abs() < 1e-12);
        assert!((v[0b01] - 0.45).abs() < 1e-12);
        assert!((v[0b10] - 0.05).abs() < 1e-12);
        assert!((v[0b11] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn byte_projection_matches_computed_footprint() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        let h = c.or([g, a]);
        c.add_output("y", h);
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        assert_eq!(w.approx_heap_bytes(), Weights::projected_heap_bytes(&c));
        assert!(w.approx_heap_bytes() > 0);
    }

    #[test]
    fn oversized_gate_rejected() {
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..9).map(|i| c.add_input(format!("x{i}"))).collect();
        let g = c.and(ins);
        c.add_output("y", g);
        let err = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap_err();
        assert!(
            err.to_string().contains("exceeding the analysis limit"),
            "{err}"
        );
    }

    #[test]
    fn sampled_backends_reject_a_zero_pattern_budget() {
        let c = reconvergent();
        let dist = InputDistribution::Uniform;
        let zero = Backend::Simulation {
            patterns: 0,
            seed: 1,
        };
        let want = RelogicError::Sim(relogic_sim::SimError::ZeroPatternBudget);
        assert_eq!(Weights::try_compute(&c, &dist, zero).unwrap_err(), want);
        let obs = crate::ObservabilityMatrix::try_compute_threads_cancellable(
            &c,
            &dist,
            zero,
            1,
            &crate::CancelToken::new(),
        );
        assert_eq!(obs.unwrap_err(), want);
    }

    #[test]
    fn thread_count_and_an_unfired_token_keep_every_bit() {
        let c = reconvergent();
        let dist = InputDistribution::Uniform;
        let sim = Backend::Simulation {
            patterns: 5000,
            seed: 3,
        };
        let bits = |w: &Weights| {
            let v: Vec<u64> = w.vectors().iter().flatten().map(|x| x.to_bits()).collect();
            let p: Vec<u64> = w.signal_probs().iter().map(|x| x.to_bits()).collect();
            (v, p)
        };
        for backend in [Backend::Bdd, sim] {
            let base = bits(&Weights::try_compute(&c, &dist, backend).unwrap());
            for threads in [1, 2, 7] {
                let w = Weights::try_compute_threads_cancellable(
                    &c,
                    &dist,
                    backend,
                    threads,
                    &CancelToken::new(),
                )
                .unwrap();
                assert_eq!(bits(&w), base, "{backend:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn a_fired_token_stops_either_backend() {
        let c = reconvergent();
        let fired = CancelToken::new();
        fired.cancel();
        let sim = Backend::Simulation {
            patterns: 5000,
            seed: 3,
        };
        for (backend, site) in [(Backend::Bdd, "bdd_gate"), (sim, "joint_sim")] {
            for threads in [1, 2] {
                let err = Weights::try_compute_threads_cancellable(
                    &c,
                    &InputDistribution::Uniform,
                    backend,
                    threads,
                    &fired,
                )
                .unwrap_err();
                match err {
                    RelogicError::Cancelled(c) => assert_eq!(c.checked_at, site),
                    other => panic!("{backend:?}: expected a cancellation, got {other}"),
                }
            }
        }
    }
}
