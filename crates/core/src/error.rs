//! Typed errors for the analytical engines.
//!
//! Every public analysis entry point has a fallible `try_*` variant that
//! validates its inputs and returns a [`RelogicError`] instead of panicking.
//! The original infallible APIs remain as thin wrappers for callers that
//! have already validated their inputs (they panic with the error's
//! `Display` text on violation).

use crate::BddEngineStats;
use relogic_netlist::NodeId;
use relogic_sim::{Cancelled, SimError};
use std::error::Error;
use std::fmt;

/// Errors returned by the fallible analysis entry points of this crate.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RelogicError {
    /// A gate failure probability is non-finite or outside the accepted
    /// range (`[0, 1]` normally; `[0, 0.5]` under the strict von Neumann
    /// BSC policy, where ε > 0.5 means the gate computes the complement
    /// more often than the function).
    InvalidEpsilon {
        /// The node carrying the offending ε, when known.
        node: Option<NodeId>,
        /// The offending value.
        value: f64,
        /// Upper end of the accepted range (1.0, or 0.5 under strict).
        max: f64,
    },
    /// Two per-node structures cover different node counts (e.g. an ε map
    /// or weight table computed for a different circuit).
    LengthMismatch {
        /// What was being matched against the circuit.
        what: &'static str,
        /// Nodes in the circuit.
        expected: usize,
        /// Entries supplied.
        actual: usize,
    },
    /// The circuit has no nodes; there is nothing to analyze.
    EmptyCircuit,
    /// The circuit has more nodes than the engine's compact `u32` node
    /// keys (or the BDD variable space) can index.
    CircuitTooLarge {
        /// Number of nodes in the circuit.
        nodes: usize,
    },
    /// A gate's fanin count exceeds what the analytical engines enumerate.
    ArityExceeded {
        /// The offending gate.
        node: NodeId,
        /// Its fanin count.
        arity: usize,
        /// The supported maximum.
        max: usize,
    },
    /// An input distribution does not match the circuit (wrong input count
    /// or a probability outside `[0, 1]`).
    DistributionMismatch {
        /// Human-readable description of the mismatch.
        message: String,
    },
    /// An output pair is malformed (not strictly increasing or out of
    /// range).
    InvalidOutputPair {
        /// First output index.
        a: usize,
        /// Second output index.
        b: usize,
        /// Number of primary outputs.
        outputs: usize,
    },
    /// A consolidation query named an output pair whose joint value
    /// distribution was not precomputed.
    MissingOutputPair {
        /// First output index.
        a: usize,
        /// Second output index.
        b: usize,
    },
    /// An ε-grid request is malformed (zero points or an invalid range).
    InvalidGrid {
        /// Human-readable description of the problem.
        message: String,
    },
    /// Strict numeric policy: an intermediate quantity left its legal
    /// range (or became non-finite) by more than the tolerance, instead of
    /// being silently clamped.
    NumericRange {
        /// Which quantity went out of range.
        context: &'static str,
        /// The offending value.
        value: f64,
        /// Legal lower bound.
        lo: f64,
        /// Legal upper bound.
        hi: f64,
    },
    /// A request parameter is non-finite or outside the range its
    /// operation accepts.
    InvalidParameter {
        /// The parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// The accepted range in interval notation, e.g. `(0, 0.5)`.
        allowed: &'static str,
    },
    /// A simulation-backend failure (zero pattern budget, bad ε vector …).
    Sim(SimError),
    /// A budgeted exact (BDD) computation exceeded its live-node budget
    /// and aborted. The BDD manager enforces the budget at node
    /// allocation, so the build stopped at the first node past it. The
    /// tiered estimator treats this as the signal to fall back to a
    /// cheaper backend.
    BddBudgetExceeded {
        /// Live decision nodes the build asked for when the manager
        /// refused an allocation: `budget + 1`.
        live_nodes: usize,
        /// The configured live-node budget.
        budget: usize,
        /// The tripped manager's engine counters: its peak is `budget`
        /// live nodes, and its op-cache hits and misses are the build's
        /// work up to the trip.
        stats: BddEngineStats,
    },
    /// The run's [`relogic_sim::CancelToken`] fired (deadline or explicit
    /// cancel) before the work completed; no partial result escapes.
    /// Unlike [`RelogicError::BddBudgetExceeded`], this is *not* a
    /// fall-back signal — the caller asked the whole computation to stop.
    Cancelled(Cancelled),
}

impl fmt::Display for RelogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelogicError::InvalidEpsilon { node, value, max } => {
                // `{max}` renders 1.0 as "1", keeping the historical
                // "out of [0,1]" wording asserted on by callers.
                match node {
                    Some(n) => write!(f, "ε({n}) = {value} out of [0,{max}]")?,
                    None => write!(f, "ε = {value} out of [0,{max}]")?,
                }
                if *max < 1.0 {
                    write!(f, " (strict von Neumann BSC policy)")?;
                }
                Ok(())
            }
            RelogicError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} covers {actual} nodes, circuit has {expected}"),
            RelogicError::EmptyCircuit => write!(f, "circuit has no nodes"),
            RelogicError::CircuitTooLarge { nodes } => {
                write!(
                    f,
                    "circuit has {nodes} nodes, exceeding the engine's index space"
                )
            }
            RelogicError::ArityExceeded { node, arity, max } => write!(
                f,
                "gate {node} has arity {arity}, exceeding the analysis limit {max}"
            ),
            RelogicError::DistributionMismatch { message } => {
                write!(f, "input distribution mismatch: {message}")
            }
            RelogicError::InvalidOutputPair { a, b, outputs } => {
                write!(f, "invalid output pair ({a},{b}) with {outputs} outputs")
            }
            RelogicError::MissingOutputPair { a, b } => {
                write!(f, "output pair ({a},{b}) was not precomputed")
            }
            RelogicError::InvalidGrid { message } => write!(f, "invalid ε grid: {message}"),
            RelogicError::NumericRange {
                context,
                value,
                lo,
                hi,
            } => write!(
                f,
                "strict numeric policy violation: {context} = {value} outside [{lo}, {hi}]"
            ),
            RelogicError::InvalidParameter {
                name,
                value,
                allowed,
            } => write!(f, "{name} = {value} outside {allowed}"),
            RelogicError::Sim(e) => write!(f, "simulation error: {e}"),
            RelogicError::BddBudgetExceeded {
                live_nodes, budget, ..
            } => write!(
                f,
                "exact BDD analysis exceeded its live-node budget ({live_nodes} live nodes > {budget})"
            ),
            RelogicError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl Error for RelogicError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RelogicError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RelogicError {
    fn from(e: SimError) -> Self {
        match e {
            // Keep cancellation typed across the layer boundary: callers
            // match `RelogicError::Cancelled` regardless of which engine
            // (graph MC, tape, sweep, BDD) noticed the token.
            SimError::Cancelled(c) => RelogicError::Cancelled(c),
            other => RelogicError::Sim(other),
        }
    }
}

impl From<Cancelled> for RelogicError {
    fn from(c: Cancelled) -> Self {
        RelogicError::Cancelled(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_wording() {
        let e = RelogicError::InvalidEpsilon {
            node: None,
            value: 1.2,
            max: 1.0,
        };
        assert!(e.to_string().contains("out of [0,1]"), "{e}");
        let e = RelogicError::ArityExceeded {
            node: NodeId::from_index(4),
            arity: 9,
            max: 8,
        };
        assert!(e.to_string().contains("exceeding the analysis limit"));
        let e = RelogicError::InvalidOutputPair {
            a: 1,
            b: 1,
            outputs: 2,
        };
        assert!(e.to_string().contains("invalid output pair"));
    }

    #[test]
    fn sim_errors_wrap_with_source() {
        let e = RelogicError::from(SimError::ZeroPatternBudget);
        assert!(e.to_string().contains("pattern budget"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn sim_cancellation_stays_typed_across_the_boundary() {
        let c = Cancelled {
            after: std::time::Duration::from_millis(52),
            checked_at: "mc_chunk",
        };
        let e = RelogicError::from(SimError::Cancelled(c));
        assert_eq!(e, RelogicError::Cancelled(c));
        assert!(e.to_string().contains("cancelled after"), "{e}");
        assert!(e.to_string().contains("mc_chunk"), "{e}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RelogicError>();
    }
}
