//! 64-bit parallel-pattern simulation and Monte Carlo fault injection for
//! the `relogic` reliability-analysis suite.
//!
//! This crate is the *reference* side of the DATE 2007 reproduction: the
//! paper validates its analytical reliability algorithms against "a 64-bit
//! parallel pattern simulator … to implement a Monte Carlo framework for
//! reliability analysis based upon fault injection", which is exactly what
//! lives here:
//!
//! * [`PackedSim`] — 64 patterns per machine word, one topological sweep
//!   per block, with XOR fault-mask injection.
//! * [`BiasedBits`] — `Bernoulli(p)` words at one RNG word per binary
//!   digit of `p` (biased input sampling; defines the quantized ε the
//!   tape kernel realizes).
//! * [`try_estimate`] — the Monte Carlo reliability estimator (per-output δ,
//!   consolidated any-output error, joint output pairs, per-node
//!   conditional error statistics).
//! * [`CircuitTape`] / [`try_estimate_tape`] — the kernel behind
//!   [`try_estimate`]: the circuit lowered once into a flat slot-indexed
//!   instruction tape, executed by a fused wide kernel (`u64×8` lanes,
//!   clean and noisy planes in one pass, fault masks generated in-lane
//!   from a position-based RNG). Bit-identical across thread counts;
//!   callers holding a compiled tape call it directly.
//! * [`exec::ChunkExecutor`] — the deterministic fan-out executor behind
//!   the Monte Carlo engine and the ε-sweep drivers in `relogic::sweep`.
//! * [`exact_reliability`] / [`flip_influence`] — exhaustive ground truth
//!   for small circuits.
//! * [`weight_samples_biased`] / [`observabilities_biased`] — sampling
//!   backends for the quantities the analytical engines need (weight
//!   vectors and signal probabilities from one pass; observability rows).

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bits;
pub mod cancel;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
mod error;
mod estimate;
pub mod exec;
mod exhaustive;
mod monte_carlo;
mod packed;
mod sampler;
mod tape;
mod tape_exec;

/// Pins the `chaos` feature gate: without `--features chaos` the fault
/// injector must not exist in the compiled library, so this doctest —
/// which only runs in non-chaos builds — must fail to compile.
///
/// ```compile_fail
/// use relogic_sim::chaos::Chaos; // the `chaos` feature is off
/// ```
#[cfg(not(any(test, feature = "chaos")))]
pub const CHAOS_FEATURE_GATED: () = ();

pub use bits::{stats, BiasedBits, DEFAULT_RESOLUTION};
pub use cancel::{CancelToken, Cancelled};
pub use error::SimError;
pub use estimate::{observabilities_biased, weight_samples_biased, MAX_COUNTED_ARITY};
pub use exec::{available_threads, ChunkExecutor, SubmitRejection};
pub use exhaustive::{exact_reliability, flip_influence, ExactReliability};
pub use monte_carlo::{try_estimate, MonteCarloConfig, NodeErrorStats, ReliabilityEstimate};
pub use packed::{exhaustive_block_count, exhaustive_lane_mask, exhaustive_word, PackedSim};
pub use sampler::InputSampler;
pub use tape::{CircuitTape, OwnedTapeParts, TapeParts};
pub use tape_exec::{try_estimate_tape, CHUNK_BLOCKS, DEFAULT_LANES};
