//! The per-layer metrics of a traced run. The lists are fixed, so every
//! traced run of every workload prints the same names; a layer a workload
//! never enters reads 0.

use crate::trace::{reduce, Span};
use crate::Metric;
use std::collections::BTreeMap;

/// Spans recorded around calls into each layer's public functions. Each
/// yields `<span>.calls` and `<span>.self_ms`.
pub const SPANS: [&str; 21] = [
    "netlist.parse",
    "bdd.weights",
    "bdd.observability",
    "core.weights_sim",
    "core.single_pass_new",
    "core.single_pass_run",
    "core.analyze",
    "core.closed_form",
    "core.sweep_tape",
    "sim.tape_compile",
    "sim.mc_tape",
    "sim.mc_graph",
    "estimate.run",
    "estimate.propagation",
    "estimate.harden",
    "estimate.critical",
    "serve.request_parse",
    "serve.digest",
    "serve.encode",
    "serve.handle",
    "serve.transport",
];

/// Counters and ratios read from the program or derived from the spans.
pub const COUNTERS: [(&str, &str); 21] = [
    ("cli.overhead_ms", "ms"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.op_cache_hit_rate", "ratio"),
    ("bdd.gc_runs", "count"),
    ("bdd.reorders", "count"),
    ("bdd.budget_trips", "count"),
    ("bdd.parallel_efficiency", "ratio"),
    ("core.coeff_saturations", "count"),
    ("core.correlation_fallbacks", "count"),
    ("core.err_pct", "%"),
    ("core.nondeterministic", "count"),
    ("sim.mc_mpatterns_per_s", "Mpattern/s"),
    ("estimate.tier_exact", "count"),
    ("estimate.tier_propagation", "count"),
    ("estimate.tier_mc", "count"),
    ("estimate.fallbacks", "count"),
    ("estimate.exact_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.failed_spans", "count"),
];

/// Every per-layer metric, in list order: span totals from `spans`, then
/// the counters (0 when the workload set none). Unknown counter names
/// are a bug in this benchmark.
pub fn metrics(spans: &[Span], counters: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in counters.keys() {
        assert!(
            COUNTERS.iter().any(|(n, _)| n == name),
            "counter `{name}` is not in the per-layer list"
        );
    }
    let totals = reduce(spans);
    let mut out = Vec::with_capacity(2 * SPANS.len() + COUNTERS.len());
    for name in SPANS {
        let t = totals.get(name).copied().unwrap_or_default();
        #[allow(clippy::cast_precision_loss)]
        out.push(Metric::new(
            format!("{name}.calls"),
            t.calls as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("{name}.self_ms"),
            t.self_time.as_secs_f64() * 1e3,
            "ms",
        ));
    }
    for (name, unit) in COUNTERS {
        let value = counters.get(name).copied().unwrap_or(0.0);
        out.push(Metric::new(name.to_owned(), value, unit));
    }
    out
}

/// Every per-layer metric name with its unit, in the order printed.
#[cfg(test)]
pub fn names() -> Vec<(String, &'static str)> {
    metrics(&[], &BTreeMap::new())
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}
