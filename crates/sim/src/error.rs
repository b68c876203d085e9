//! Typed errors for the simulation crate's fallible entry points.

use std::error::Error;
use std::fmt;

use crate::cancel::Cancelled;

/// Errors returned by the fallible (`try_*`) simulation entry points, so
/// callers (the CLI, servers, batch drivers) can degrade gracefully
/// instead of aborting.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A pattern budget of zero was requested; every estimate would be a
    /// `0/0` division.
    ZeroPatternBudget,
    /// The per-node ε slice does not cover the circuit.
    EpsLengthMismatch {
        /// Nodes in the circuit.
        expected: usize,
        /// Entries supplied.
        actual: usize,
    },
    /// A per-node ε is non-finite or outside `[0, 1]`.
    InvalidEpsilon {
        /// Node index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A tracked joint output pair references a nonexistent output.
    JointPairOutOfRange {
        /// First output index of the pair.
        a: usize,
        /// Second output index of the pair.
        b: usize,
        /// Number of primary outputs in the circuit.
        outputs: usize,
    },
    /// The per-input bias vector does not cover the circuit's inputs.
    InputProbsMismatch {
        /// Inputs in the circuit.
        expected: usize,
        /// Biases supplied.
        actual: usize,
    },
    /// A per-input signal probability is non-finite or outside `[0, 1]`.
    InvalidInputProbability {
        /// Input position of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The ε quantization resolution is outside `1 ..= 32` binary digits.
    InvalidBitResolution {
        /// The requested resolution.
        resolution: u32,
    },
    /// The run's [`crate::CancelToken`] fired (deadline or explicit
    /// cancel) before the work completed; no partial result escapes.
    Cancelled(Cancelled),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ZeroPatternBudget => {
                write!(f, "pattern budget is zero (every estimate would be 0/0)")
            }
            SimError::EpsLengthMismatch { expected, actual } => write!(
                f,
                "need one ε per node (got {actual}, circuit has {expected})"
            ),
            SimError::InvalidEpsilon { index, value } => {
                write!(f, "ε[{index}] = {value} out of [0,1]")
            }
            SimError::JointPairOutOfRange { a, b, outputs } => write!(
                f,
                "joint pair out of range: ({a},{b}) with {outputs} outputs"
            ),
            SimError::InputProbsMismatch { expected, actual } => write!(
                f,
                "one bias per input (got {actual}, circuit has {expected})"
            ),
            SimError::InvalidInputProbability { index, value } => {
                write!(f, "input bias [{index}] = {value} out of [0,1]")
            }
            SimError::InvalidBitResolution { resolution } => {
                write!(f, "bit resolution {resolution} out of 1..=32")
            }
            SimError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl Error for SimError {}

impl From<Cancelled> for SimError {
    fn from(c: Cancelled) -> Self {
        SimError::Cancelled(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = SimError::EpsLengthMismatch {
            expected: 4,
            actual: 2,
        };
        assert_eq!(e.to_string(), "need one ε per node (got 2, circuit has 4)");
        assert!(SimError::ZeroPatternBudget.to_string().contains("zero"));
        let e = SimError::InvalidEpsilon {
            index: 3,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("out of [0,1]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
