//! Gate-level combinational netlists for reliability analysis.
//!
//! `relogic-netlist` is the structural foundation of the `relogic` suite — a
//! Rust reproduction of *Choudhury & Mohanram, "Accurate and scalable
//! reliability analysis of logic circuits", DATE 2007*. It provides:
//!
//! * [`Circuit`] — an append-only netlist that is topologically sorted by
//!   construction (gates can only reference already-created fanins), so it
//!   can never contain a combinational cycle and analyses can sweep nodes in
//!   id order.
//! * [`GateKind`] — the Boolean semantics of every node, with scalar,
//!   64-lane packed, and truth-table-combination evaluation kernels shared
//!   by the simulator and the analytical reliability engines.
//! * [`structure`] — logic levels, fanout/stem maps, transitive fanin cones,
//!   cone extraction, and summary statistics.
//! * [`bench`](mod@bench) / [`blif`] / [`verilog`] — parsers and writers for the
//!   ISCAS-85 `.bench`, Berkeley BLIF, and structural gate-level Verilog
//!   interchange formats (combinational subsets).
//! * [`dot`] — Graphviz export.
//!
//! # Examples
//!
//! Parse a `.bench` netlist and inspect its structure:
//!
//! ```
//! # fn main() -> Result<(), relogic_netlist::NetlistError> {
//! use relogic_netlist::{bench, structure::CircuitStats};
//!
//! let c = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")?;
//! let stats = CircuitStats::of(&c);
//! assert_eq!(stats.gates, 1);
//! assert_eq!(stats.depth, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod circuit;
pub mod dot;
mod error;
mod formats;
mod gate;
mod id;
pub mod structure;

pub use circuit::{Circuit, Node, Output};
pub use error::NetlistError;
pub use formats::{bench, blif, verilog};
pub use gate::GateKind;
pub use id::{NodeId, OutputId};
