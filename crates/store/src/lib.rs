//! # relogic-store
//!
//! Versioned, checksummed, crash-safe on-disk artifact store for the
//! relogic suite.
//!
//! The serve daemon's artifact cache is fast but volatile: every restart
//! re-pays the full symbolic-analysis cost of each circuit. This crate
//! persists the two expensive, ε-independent artifacts — the
//! [`Weights`](relogic::Weights) and the
//! [`ObservabilityMatrix`](relogic::ObservabilityMatrix) — keyed by the
//! same 128-bit content address the in-memory cache uses, alongside a
//! small provenance record (netlist text + format + backend) that lets
//! `relogic cache warm` recompute everything offline.
//!
//! A kind is stored only when reading it back is measured to be faster
//! than recomputing it. The compiled tape and the propagation estimate
//! fail that test and are rebuilt in memory; [`Store::gc`] deletes the
//! `*.tape` and `*.est` containers earlier versions wrote.
//!
//! Design rules, in priority order:
//!
//! 1. **Never a wrong answer.** Every container carries a dual-FNV-128
//!    checksum verified before deserialization, and decoded values are
//!    revalidated structurally (`from_parts`). Anything suspect is
//!    quarantined (renamed `*.corrupt`) and recomputed — a disk hit is
//!    bit-identical to a recompute or it does not happen.
//! 2. **Crash-safe.** Writes are temp-file + fsync + atomic rename +
//!    directory fsync; a crash leaves the old state or the new state.
//! 3. **Optional.** Every failure mode degrades to recomputation; the
//!    store is a performance layer, not a correctness dependency.
//!
//! See `DESIGN.md` §15 for the on-disk format and recovery semantics.

mod codec;
mod container;
mod key;
mod store;

pub use codec::{
    decode_meta, decode_observability, decode_weights, encode_meta, encode_observability,
    encode_weights, ArtifactMeta,
};
pub use container::{open, seal, ArtifactKind, ContainerError, FORMAT_VERSION, HEADER_LEN, MAGIC};
pub use key::StoreKey;
pub use store::{
    GcReport, Loaded, LsEntry, Store, StoreCounters, StoreCountersSnapshot, StoreError,
    VerifyReport,
};
