//! A from-scratch reduced ordered binary decision diagram (ROBDD) package
//! for the `relogic` reliability-analysis suite.
//!
//! The DATE 2007 reliability analyses need two symbolic primitives, both
//! provided here on top of one circuit build ([`CircuitBdds::try_build`],
//! bounded by a live-node budget and an interrupt poll):
//!
//! 1. **Signal probabilities / joint value distributions** — weight
//!    vectors and output-pair distributions, computed as weighted model
//!    counts ([`BddManager::probability_memo`]) of conjunctions of node
//!    literals.
//! 2. **Observabilities** — via an auxiliary variable spliced in at a gate
//!    ([`CircuitBdds::with_aux_at`], or only over the reconvergent region
//!    up to a post-dominator with [`CircuitBdds::region_difference`]) and
//!    the Boolean difference ([`BddManager::boolean_difference`]).
//!
//! Hash-consing makes equality of [`BddRef`]s equality of functions.
//!
//! The manager uses **complement edges** (negation is a tag bit, so `NOT`
//! is O(1) and XOR-reconvergent circuits like the c499/c1355 analogues stay
//! linear-size), open-addressed unique/operation tables with hit-rate
//! counters ([`BddStats`]), memoized AND and XOR kernels with sorted,
//! polarity-normalized cache keys, mark-and-sweep garbage collection with
//! external roots, and optional sifting-based dynamic reordering
//! ([`BddManager::enable_reordering`]).
//!
//! # Examples
//!
//! ```
//! use relogic_bdd::{BddManager, CircuitBdds, VarOrder};
//! use relogic_netlist::Circuit;
//!
//! let mut c = Circuit::new("and2");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.and([a, b]);
//! c.add_output("y", g);
//!
//! let order = VarOrder::natural(&c);
//! let mut m = BddManager::new(order.len());
//! let bdds = CircuitBdds::try_build(&mut m, &c, &order, usize::MAX, &mut || false)?;
//! assert_eq!(m.probability_uniform(bdds.func(g)), 0.25);
//! # Ok::<(), relogic_bdd::BuildInterrupt>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bridge;
mod manager;

pub use bridge::{BuildBudgetExceeded, BuildInterrupt, CircuitBdds, VarOrder};
pub use manager::{BddManager, BddRef, BddStats, Var};
