//! Accurate and scalable reliability analysis of logic circuits.
//!
//! Rust reproduction of *M. R. Choudhury and K. Mohanram, "Accurate and
//! scalable reliability analysis of logic circuits", DATE 2007*. Every gate
//! is modelled as a binary symmetric channel that flips its output with
//! probability ε (the von Neumann noise model); the crate computes the
//! probability `δ_y(ε⃗)` that each primary output is in error, without Monte
//! Carlo simulation:
//!
//! * [`ObservabilityMatrix`] — §3's observability-based analysis with the
//!   closed form `δ_y = ½(1 − Π_i (1 − 2 ε_i o_i))`, exact for single gate
//!   failures (soft-error rate estimation).
//! * [`SinglePass`] — §4's single-pass algorithm: one topological sweep
//!   propagating per-signal `Pr(0→1)`/`Pr(1→0)` through weight-vector-
//!   conditioned gate models, with §4.1's correlation coefficients for
//!   reconvergent fanout.
//! * [`Weights`] — the ε-independent weight vectors (joint fanin
//!   distributions) and signal probabilities, computed exactly with BDDs or
//!   estimated by random-pattern simulation.
//! * [`consolidate`] — multi-output "at least one output wrong"
//!   consolidation using output-pair correlations.
//! * [`applications`] — §5.1's redundancy-free exploration: per-node
//!   asymmetric error reports and selective hardening.
//! * [`baselines`] — the competing §2 analyses (von Neumann-style
//!   compositional rules and a PTM-equivalent exact engine), for measured
//!   comparisons instead of cited ones.
//!
//! # Examples
//!
//! ```
//! use relogic::{Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
//! use relogic_netlist::Circuit;
//!
//! // y = (a & b) | c with every gate failing with probability 0.05.
//! let mut c = Circuit::new("aoi");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let cin = c.add_input("cin");
//! let g = c.and([a, b]);
//! let y = c.or([g, cin]);
//! c.add_output("y", y);
//!
//! let weights = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd)?;
//! let engine = SinglePass::try_new(&c, &weights, SinglePassOptions::default())?;
//! let result = engine.try_run(&GateEps::try_uniform(&c, 0.05)?)?;
//! let delta = result.per_output()[0];
//! assert!(delta > 0.0 && delta < 0.15);
//! # Ok::<(), relogic::RelogicError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod applications;
mod backend;
pub mod baselines;
pub mod consolidate;
mod diagnostics;
mod epsilon;
mod error;
mod exact;
pub mod metrics;
mod observability;
mod single_pass;
pub mod sweep;
mod tape;
mod weights;

pub use backend::{Backend, InputDistribution};
pub use diagnostics::Diagnostics;
pub use epsilon::GateEps;
pub use error::RelogicError;
pub use observability::ObservabilityMatrix;
/// Symbolic-engine counters attached to a run that used the BDD backend,
/// summed over every per-worker manager the run created (peaks and load
/// factors take the maximum), so they describe the whole computation
/// whatever the thread count.
pub use relogic_bdd::BddStats as BddEngineStats;
pub use relogic_sim::{CancelToken, Cancelled};
pub use single_pass::{CorrCoeffs, ErrorEvent, SinglePass, SinglePassOptions, SinglePassResult};
pub use tape::{SweepPoint, SweepTape};
pub use weights::{Weights, MAX_ANALYSIS_ARITY};
