//! Per-node gate failure probabilities (the ε⃗ vector of the paper).

use crate::RelogicError;
use rand::Rng;
use relogic_netlist::{Circuit, NodeId};

/// Validates one ε value against `[0, 1]` (finiteness included).
fn check_eps(node: Option<NodeId>, eps: f64) -> Result<(), RelogicError> {
    if eps.is_finite() && (0.0..=1.0).contains(&eps) {
        Ok(())
    } else {
        Err(RelogicError::InvalidEpsilon {
            node,
            value: eps,
            max: 1.0,
        })
    }
}

/// The vector of BSC crossover probabilities `ε⃗`, one entry per node.
///
/// Sources (primary inputs, constants) default to ε = 0 — the paper's
/// setting, where noise originates at gates — but may be given nonzero
/// values to model noisy inputs.
///
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic::GateEps;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let g = c.not(a);
/// c.add_output("y", g);
///
/// let eps = GateEps::try_uniform(&c, 0.1)?;
/// assert_eq!(eps.get(a), 0.0); // inputs are noise-free
/// assert_eq!(eps.get(g), 0.1);
/// # Ok::<(), relogic::RelogicError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GateEps {
    values: Vec<f64>,
}

impl GateEps {
    /// All nodes noise-free.
    #[must_use]
    pub fn zero(circuit: &Circuit) -> Self {
        GateEps {
            values: vec![0.0; circuit.len()],
        }
    }

    /// Every logic gate fails with probability `eps`; sources are
    /// noise-free. This is the configuration used throughout the paper's
    /// Table 2 and figure sweeps ("the same value of ε has been used for
    /// all the gates").
    ///
    /// # Errors
    ///
    /// [`RelogicError::InvalidEpsilon`] if `eps` is not a finite value in
    /// `[0, 1]`.
    pub fn try_uniform(circuit: &Circuit, eps: f64) -> Result<Self, RelogicError> {
        check_eps(None, eps)?;
        Ok(GateEps {
            values: circuit
                .iter()
                .map(|(_, n)| if n.kind().is_gate() { eps } else { 0.0 })
                .collect(),
        })
    }

    /// Independent per-gate ε drawn uniformly from `[lo, hi]` — the Fig. 7
    /// configuration ("ε for each gate was derived from a uniform random
    /// distribution over the interval [0, 0.5]").
    ///
    /// # Errors
    ///
    /// [`RelogicError::InvalidGrid`] if the range is not an increasing,
    /// finite subrange of `[0, 1]`.
    pub fn try_random_uniform<R: Rng + ?Sized>(
        circuit: &Circuit,
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Result<Self, RelogicError> {
        if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi && hi <= 1.0) {
            return Err(RelogicError::InvalidGrid {
                message: format!("invalid ε range [{lo}, {hi}]"),
            });
        }
        Ok(GateEps {
            values: circuit
                .iter()
                .map(|(_, n)| {
                    if n.kind().is_gate() {
                        rng.gen_range(lo..=hi)
                    } else {
                        0.0
                    }
                })
                .collect(),
        })
    }

    /// Builds an ε vector from a per-node closure.
    ///
    /// # Errors
    ///
    /// [`RelogicError::InvalidEpsilon`] naming the offending node if the
    /// closure returns a non-finite value or one outside `[0, 1]`.
    pub fn try_from_fn(
        circuit: &Circuit,
        mut f: impl FnMut(NodeId) -> f64,
    ) -> Result<Self, RelogicError> {
        let mut values = Vec::with_capacity(circuit.len());
        for id in circuit.node_ids() {
            let e = f(id);
            check_eps(Some(id), e)?;
            values.push(e);
        }
        Ok(GateEps { values })
    }

    /// ε of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn get(&self, node: NodeId) -> f64 {
        self.values[node.index()]
    }

    /// Sets ε of `node`, validating both the node index and the value.
    ///
    /// # Errors
    ///
    /// [`RelogicError::InvalidEpsilon`] for a non-finite or out-of-range
    /// value, [`RelogicError::LengthMismatch`] for an out-of-range node.
    pub fn try_set(&mut self, node: NodeId, eps: f64) -> Result<(), RelogicError> {
        check_eps(Some(node), eps)?;
        match self.values.get_mut(node.index()) {
            Some(slot) => {
                *slot = eps;
                Ok(())
            }
            None => Err(RelogicError::LengthMismatch {
                what: "ε node index",
                expected: self.values.len(),
                actual: node.index(),
            }),
        }
    }

    /// The raw per-node slice (indexed by [`NodeId::index`]), as consumed by
    /// `relogic_sim::try_estimate`.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the vector covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over nodes with nonzero ε.
    pub fn noisy_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &e)| e > 0.0)
            .map(|(i, _)| NodeId::from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        let h = c.not(g);
        c.add_output("y", h);
        c
    }

    #[test]
    fn uniform_skips_sources() {
        let c = circuit();
        let eps = GateEps::try_uniform(&c, 0.2).unwrap();
        assert_eq!(eps.as_slice(), &[0.0, 0.0, 0.2, 0.2]);
        assert_eq!(eps.noisy_nodes().count(), 2);
    }

    #[test]
    fn zero_is_all_zero() {
        let c = circuit();
        assert!(GateEps::zero(&c).noisy_nodes().next().is_none());
    }

    #[test]
    fn set_and_get() {
        let c = circuit();
        let mut eps = GateEps::zero(&c);
        let g = NodeId::from_index(2);
        eps.try_set(g, 0.5).unwrap();
        assert_eq!(eps.get(g), 0.5);
        assert_eq!(eps.len(), 4);
    }

    #[test]
    fn random_uniform_stays_in_range() {
        let c = circuit();
        let mut rng = SmallRng::seed_from_u64(1);
        let eps = GateEps::try_random_uniform(&c, 0.0, 0.5, &mut rng).unwrap();
        for id in c.node_ids() {
            let e = eps.get(id);
            assert!((0.0..=0.5).contains(&e));
            if !c.node(id).kind().is_gate() {
                assert_eq!(e, 0.0);
            }
        }
    }

    #[test]
    fn from_fn_builds_arbitrary_vectors() {
        let c = circuit();
        let eps = GateEps::try_from_fn(&c, |id| if id.index() == 3 { 0.4 } else { 0.0 }).unwrap();
        assert_eq!(eps.get(NodeId::from_index(3)), 0.4);
    }

    #[test]
    fn invalid_eps_rejected() {
        let c = circuit();
        let err = GateEps::try_uniform(&c, 1.2).unwrap_err();
        assert!(err.to_string().contains("out of [0,1]"), "{err}");
    }

    #[test]
    fn try_variants_return_typed_errors() {
        let c = circuit();
        assert!(matches!(
            GateEps::try_uniform(&c, f64::NAN),
            Err(RelogicError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            GateEps::try_uniform(&c, 1.0 + 1e-9),
            Err(RelogicError::InvalidEpsilon { .. })
        ));
        assert!(GateEps::try_uniform(&c, 0.5).is_ok());

        let mut eps = GateEps::zero(&c);
        assert!(matches!(
            eps.try_set(NodeId::from_index(2), f64::INFINITY),
            Err(RelogicError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            eps.try_set(NodeId::from_index(99), 0.1),
            Err(RelogicError::LengthMismatch { .. })
        ));
        assert!(eps.try_set(NodeId::from_index(2), 0.3).is_ok());
        assert_eq!(eps.get(NodeId::from_index(2)), 0.3);

        assert!(matches!(
            GateEps::try_from_fn(&c, |_| -0.1),
            Err(RelogicError::InvalidEpsilon { node: Some(_), .. })
        ));

        let mut rng = SmallRng::seed_from_u64(5);
        assert!(matches!(
            GateEps::try_random_uniform(&c, 0.4, 0.1, &mut rng),
            Err(RelogicError::InvalidGrid { .. })
        ));
    }
}
