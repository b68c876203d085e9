//! Backend selection and input distributions shared by the analytical
//! engines.

use crate::RelogicError;
use relogic_netlist::Circuit;

/// How to obtain circuit statistics (weight vectors, signal probabilities,
/// observabilities).
///
/// The paper computes them "by random pattern simulation or symbolic
/// techniques based on BDDs"; both are provided. `Bdd` is exact but can be
/// memory-hungry on large or arithmetic-heavy circuits; `Simulation` scales
/// to anything, with `O(1/√patterns)` sampling noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// Exact symbolic computation with ROBDDs.
    #[default]
    Bdd,
    /// Random-pattern estimation.
    Simulation {
        /// Number of sampled patterns (rounded up to a multiple of 64).
        patterns: u64,
        /// RNG seed, for reproducibility.
        seed: u64,
    },
}

impl Backend {
    /// This backend, checked before any work starts: a sampled backend
    /// with no patterns is an error, not one silently sampled block.
    ///
    /// # Errors
    ///
    /// [`RelogicError::Sim`] wrapping
    /// [`relogic_sim::SimError::ZeroPatternBudget`] for
    /// `Simulation { patterns: 0, .. }`.
    pub(crate) fn validated(self) -> Result<Self, RelogicError> {
        match self {
            Backend::Simulation { patterns: 0, .. } => {
                Err(RelogicError::Sim(relogic_sim::SimError::ZeroPatternBudget))
            }
            backend => Ok(backend),
        }
    }
}

/// Distribution of the primary-input vectors.
///
/// The paper assumes "the primary input vectors are equally likely"
/// (uniform); independent per-input biases are also supported.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum InputDistribution {
    /// Every input is 1 with probability 1/2, independently.
    #[default]
    Uniform,
    /// Input at position `i` is 1 with probability `probs[i]`, independently.
    Independent(Vec<f64>),
}

impl InputDistribution {
    /// Per-input-position probabilities, expanded for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if an `Independent` vector's length does not match the
    /// circuit's input count, or contains values outside `[0, 1]`.
    #[must_use]
    pub fn position_probs(&self, circuit: &Circuit) -> Vec<f64> {
        match self.try_position_probs(circuit) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`InputDistribution::position_probs`].
    ///
    /// # Errors
    ///
    /// [`RelogicError::DistributionMismatch`] if an `Independent` vector's
    /// length does not match the circuit's input count, or contains
    /// non-finite values or values outside `[0, 1]`.
    pub fn try_position_probs(&self, circuit: &Circuit) -> Result<Vec<f64>, RelogicError> {
        match self {
            InputDistribution::Uniform => Ok(vec![0.5; circuit.input_count()]),
            InputDistribution::Independent(p) => {
                if p.len() != circuit.input_count() {
                    return Err(RelogicError::DistributionMismatch {
                        message: format!(
                            "covers {} inputs, circuit has {}",
                            p.len(),
                            circuit.input_count()
                        ),
                    });
                }
                for (i, &x) in p.iter().enumerate() {
                    if !x.is_finite() || !(0.0..=1.0).contains(&x) {
                        return Err(RelogicError::DistributionMismatch {
                            message: format!("input prob [{i}] = {x} out of [0,1]"),
                        });
                    }
                }
                Ok(p.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(Backend::default(), Backend::Bdd);
        assert_eq!(InputDistribution::default(), InputDistribution::Uniform);
    }

    #[test]
    fn position_probs_expand() {
        let mut c = Circuit::new("t");
        c.add_input("a");
        c.add_input("b");
        assert_eq!(
            InputDistribution::Uniform.position_probs(&c),
            vec![0.5, 0.5]
        );
        assert_eq!(
            InputDistribution::Independent(vec![0.2, 0.9]).position_probs(&c),
            vec![0.2, 0.9]
        );
    }

    #[test]
    #[should_panic(expected = "covers 1 inputs")]
    fn wrong_length_rejected() {
        let mut c = Circuit::new("t");
        c.add_input("a");
        c.add_input("b");
        let _ = InputDistribution::Independent(vec![0.2]).position_probs(&c);
    }

    #[test]
    fn try_position_probs_returns_typed_errors() {
        let mut c = Circuit::new("t");
        c.add_input("a");
        assert!(matches!(
            InputDistribution::Independent(vec![0.2, 0.3]).try_position_probs(&c),
            Err(RelogicError::DistributionMismatch { .. })
        ));
        assert!(matches!(
            InputDistribution::Independent(vec![f64::NAN]).try_position_probs(&c),
            Err(RelogicError::DistributionMismatch { .. })
        ));
        assert_eq!(
            InputDistribution::Independent(vec![0.2]).try_position_probs(&c),
            Ok(vec![0.2])
        );
    }
}
