//! Service counters and a lock-free latency histogram.

use crate::json::Json;
use crate::proto::KINDS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets; bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, bucket 0 covers `[0, 2)` µs. 40 buckets
/// reach ~12.7 days, far beyond any request timeout.
const BUCKETS: usize = 40;

/// A fixed-bucket log₂ histogram of service times in microseconds.
///
/// Recording is a single relaxed atomic increment; percentile reads
/// (`stats` requests) scan the 40 buckets. Percentiles are reported as the
/// upper bound of the bucket containing the target rank, so they are exact
/// to within a factor of two — the right fidelity for a counters endpoint
/// (alerting, regressions), not for microbenchmarking.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one service time.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let idx = (64 - us.leading_zeros() as usize)
            .saturating_sub(1)
            .min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in microseconds: the upper bound of
    /// the bucket containing the target rank, or 0 with no samples.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in snapshot.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Upper bound of bucket i, capped by the observed maximum.
                let bound = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return bound.min(self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// The largest recorded service time in microseconds.
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The histogram as a JSON object (`count`, `p50`, `p99`, `max`, µs).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count())),
            ("p50", Json::from(self.quantile_us(0.50))),
            ("p99", Json::from(self.quantile_us(0.99))),
            ("max", Json::from(self.max_us())),
        ])
    }
}

/// Request/connection counters exposed by the `stats` request kind.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests received per kind, indexed like [`KINDS`].
    pub requests: [AtomicU64; KINDS.len()],
    /// Frames answered with a typed error.
    pub errors: AtomicU64,
    /// Requests that hit the per-request timeout.
    pub timeouts: AtomicU64,
    /// Requests answered with the `deadline_exceeded` wire code (the
    /// client-facing subset of the engine record's cancellations).
    pub deadline_exceeded: AtomicU64,
    /// In-flight jobs cancelled because their client disconnected before
    /// the reply was ready.
    pub disconnect_cancels: AtomicU64,
    /// Requests shed under load: admission-control rejections plus
    /// connections turned away with an `overloaded` farewell because the
    /// worker-pool queue stayed full.
    pub shed: AtomicU64,
    /// Requests or connections that died to a contained panic.
    pub panics: AtomicU64,
    /// Analysis requests currently executing (admission gauge).
    pub inflight: AtomicU64,
    /// Connections accepted (TCP + Unix).
    pub connections_accepted: AtomicU64,
    /// Connections currently open.
    pub connections_active: AtomicU64,
    /// Service-time histogram over every answered frame.
    pub latency: LatencyHistogram,
}

impl ServiceStats {
    /// Bumps the request counter of the kind at `kind` in [`KINDS`]
    /// (see [`crate::Request::kind_index`]).
    pub fn count_kind(&self, kind: usize) {
        self.requests[kind].fetch_add(1, Ordering::Relaxed);
    }

    /// The `cancellation` sub-object: cooperative-cancellation outcomes.
    /// `cancelled` counts every compute path that unwound on a fired
    /// token (the engine record's [`relogic::Diagnostics::cancellations`]:
    /// deadline fires, disconnect cancels and drain cancels);
    /// `deadline_exceeded` and `disconnect_cancels` attribute the fires to
    /// their cause.
    #[must_use]
    pub fn cancellation_json(&self, cancelled: u64) -> Json {
        Json::obj([
            ("cancelled", Json::from(cancelled)),
            (
                "deadline_exceeded",
                Json::from(self.deadline_exceeded.load(Ordering::Relaxed)),
            ),
            (
                "disconnect_cancels",
                Json::from(self.disconnect_cancels.load(Ordering::Relaxed)),
            ),
        ])
    }

    /// The `requests` sub-object: one member per kind, in [`KINDS`]
    /// order.
    #[must_use]
    pub fn requests_json(&self) -> Json {
        Json::Obj(
            KINDS
                .iter()
                .zip(&self.requests)
                .map(|(kind, n)| ((*kind).to_owned(), Json::from(n.load(Ordering::Relaxed))))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_recorded_samples() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [3u64, 5, 9, 17, 33, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        let p50 = h.quantile_us(0.50);
        assert!((4..=31).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 512, "p99 = {p99}");
        assert_eq!(h.max_us(), 1000);
        assert!(p99 <= h.max_us());
    }

    #[test]
    fn kind_counters_accumulate() {
        let s = ServiceStats::default();
        let count_kind = |tag| s.count_kind(KINDS.iter().position(|k| *k == tag).unwrap());
        count_kind("analyze");
        count_kind("analyze");
        count_kind("monte_carlo");
        count_kind("estimate");
        count_kind("harden");
        count_kind("critical_eps");
        count_kind("stats");
        count_kind("health");
        let j = s.requests_json();
        assert_eq!(j.get("analyze").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("monte_carlo").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("estimate").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("harden").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("critical_eps").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("health").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn cancellation_counters_serialize() {
        let s = ServiceStats::default();
        s.deadline_exceeded.fetch_add(2, Ordering::Relaxed);
        s.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
        let j = s.cancellation_json(3);
        assert_eq!(j.get("cancelled").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("deadline_exceeded").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("disconnect_cancels").and_then(Json::as_u64), Some(1));
    }
}
