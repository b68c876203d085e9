//! `relogic-serve` — a concurrent reliability-analysis service.
//!
//! Long-running analysis pipelines re-analyse the same circuits over and
//! over (per-ε sweeps, regression dashboards, design-space exploration).
//! The expensive state in this codebase — parsed circuits, BDD-backed
//! weight vectors (§4, Table 2 of the DATE'07 paper), and observability
//! matrices (§3) — is ε-independent, so a daemon that compiles a netlist
//! once and answers many queries against the cached artifact amortises
//! nearly all of the cost.
//!
//! The crate is std-only and layers:
//!
//! - [`json`] — a hand-rolled JSON value, encoder, and parser shared with
//!   the CLI's `--json` output.
//! - [`proto`] — the newline-delimited request/response wire protocol and
//!   typed error codes.
//! - [`cache`] — the content-addressed compiled-circuit artifact cache
//!   with LRU eviction under a byte budget.
//! - [`api`] — result-object builders shared by the daemon and CLI.
//! - [`stats`] — request counters and a lock-free latency histogram.
//! - [`service`] — transport-independent request execution with
//!   per-request timeouts.
//! - [`server`] — TCP + Unix-socket listeners, a bounded connection
//!   worker pool, and graceful drain.
//! - [`signal`] — SIGTERM/SIGINT → drain flag, with no libc crate.
//! - [`client`] — a retrying std-only client with deadline-capped,
//!   seeded decorrelated-jitter backoff and retry-budget accounting.
//!
//! With the `chaos` feature, `relogic_sim::chaos` is re-exported as
//! `chaos` and the daemon accepts a fault-injection config that
//! deterministically perturbs the pool, connection I/O, and the cache.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod cache;
pub mod client;
pub mod json;
pub mod proto;
pub mod server;
pub mod service;
pub mod signal;
pub mod stats;

#[cfg(feature = "chaos")]
pub use relogic_sim::chaos;

pub use cache::{ArtifactCache, CacheOutcome};
pub use client::{Client, ClientConfig, ClientError, Endpoint};
pub use json::Json;
pub use proto::{Request, RequestLimits, Response, ServeError};
pub use server::{Server, ServerConfig};
pub use service::{Service, ServiceConfig};
