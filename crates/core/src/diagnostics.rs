//! Per-run numerical diagnostics.
//!
//! The single-pass engine (§4/§4.1) and the multi-output consolidator keep
//! their estimates legal by clamping: propagated flip probabilities and
//! coefficient-weighted products are clamped into `[0, 1]`, and the
//! pairwise Kirkwood correction factor θ in
//! [`crate::consolidate::Consolidator::try_any_output_error`] is clamped into
//! `[1e-6, 1e6]`. Those clamps are part of the approximation — §4.1's
//! correlation coefficients are first-order, so the products they re-weight
//! can legitimately leave `[0, 1]` — but silently discarding the excursion
//! makes large-benchmark runs unobservable. A [`Diagnostics`] value counts
//! every such event, records the worst excursion magnitude, and tracks the
//! graceful-degradation fallbacks taken when correlation propagation
//! produces non-finite coefficients.

use crate::BddEngineStats;
use std::fmt;

/// Slack below which a clamp is considered floating-point rounding and not
/// counted as an event (the value is still clamped).
pub(crate) const CLAMP_SLACK: f64 = 1e-12;

/// Counters and extrema accumulated over one analysis run.
///
/// Obtained from [`crate::SinglePassResult::diagnostics`], passed to the
/// consolidator's `try_*` methods, and from [`crate::sweep::DeltaCurves`].
/// Merge several runs with [`Diagnostics::merge`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Diagnostics {
    prob_clamps: u64,
    coeff_saturations: u64,
    theta_clamps: u64,
    correlation_fallbacks: u64,
    worst_excursion: f64,
    bdd: Option<BddEngineStats>,
    tier_exact: u64,
    tier_propagation: u64,
    tier_mc: u64,
    estimator_fallbacks: u64,
    cancellations: u64,
}

impl Diagnostics {
    /// A fresh, all-zero accumulator.
    #[must_use]
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Reconstructs an accumulator from previously-recorded counters, for
    /// deserializing a persisted run. `worst_excursion` is pinned
    /// non-negative (NaN and negatives become 0) so a restored value obeys
    /// the same invariants a live accumulator does.
    #[must_use]
    pub fn restore(
        prob_clamps: u64,
        coeff_saturations: u64,
        theta_clamps: u64,
        correlation_fallbacks: u64,
        worst_excursion: f64,
        bdd: Option<BddEngineStats>,
    ) -> Self {
        Diagnostics {
            prob_clamps,
            coeff_saturations,
            theta_clamps,
            correlation_fallbacks,
            worst_excursion: if worst_excursion > 0.0 {
                worst_excursion
            } else {
                0.0
            },
            bdd,
            ..Diagnostics::default()
        }
    }

    /// Number of probability clamp events: a propagated error probability
    /// left `[0, 1]` by more than floating-point slack and was clamped.
    #[must_use]
    pub fn prob_clamps(&self) -> u64 {
        self.prob_clamps
    }

    /// Number of correlation-coefficient saturation events: a
    /// coefficient-weighted probability product left `[0, 1]` and was
    /// clamped (the §4.1 re-weighting overshot).
    #[must_use]
    pub fn coeff_saturations(&self) -> u64 {
        self.coeff_saturations
    }

    /// Number of θ clamp events in multi-output consolidation (the
    /// pairwise correction factor hit the `1e-6..1e6` guard rails).
    #[must_use]
    pub fn theta_clamps(&self) -> u64 {
        self.theta_clamps
    }

    /// Number of signal pairs whose correlation coefficients came out
    /// non-finite and were dropped, falling back to uncorrelated
    /// propagation for that pair.
    #[must_use]
    pub fn correlation_fallbacks(&self) -> u64 {
        self.correlation_fallbacks
    }

    /// The largest distance by which any clamped quantity left its legal
    /// range (0 when no clamp event occurred).
    #[must_use]
    pub fn worst_excursion(&self) -> f64 {
        self.worst_excursion
    }

    /// Total number of recorded events of any kind.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.prob_clamps + self.coeff_saturations + self.theta_clamps + self.correlation_fallbacks
    }

    /// `true` when the run completed without a single clamp, saturation,
    /// or fallback. BDD engine statistics are informational and do not
    /// affect cleanliness.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_events() == 0
    }

    /// Times the auto-escalating estimator answered with the exact (BDD)
    /// tier.
    #[must_use]
    pub fn tier_exact(&self) -> u64 {
        self.tier_exact
    }

    /// Times the auto-escalating estimator answered with the
    /// propagation-probability tier.
    #[must_use]
    pub fn tier_propagation(&self) -> u64 {
        self.tier_propagation
    }

    /// Times the auto-escalating estimator answered with the Monte Carlo
    /// refinement tier.
    #[must_use]
    pub fn tier_mc(&self) -> u64 {
        self.tier_mc
    }

    /// Times the exact tier failed (budget trip or analysis error) and
    /// the estimator fell back to a cheaper tier. Fallbacks are never
    /// silent: the count survives merges and serialization.
    #[must_use]
    pub fn estimator_fallbacks(&self) -> u64 {
        self.estimator_fallbacks
    }

    /// Records that the exact tier produced this run's answer.
    pub fn record_tier_exact(&mut self) {
        self.tier_exact += 1;
    }

    /// Records that the propagation-probability tier produced this run's
    /// answer.
    pub fn record_tier_propagation(&mut self) {
        self.tier_propagation += 1;
    }

    /// Records that the Monte Carlo tier produced this run's answer.
    pub fn record_tier_mc(&mut self) {
        self.tier_mc += 1;
    }

    /// Records one exact-tier failure that forced a fallback to a cheaper
    /// tier.
    pub fn record_estimator_fallback(&mut self) {
        self.estimator_fallbacks += 1;
    }

    /// Times a computation under this accumulator was cancelled (deadline
    /// or explicit cancel) before it completed. Cancelled work never
    /// produces a partial result; this counter is how the abandonment
    /// stays visible.
    #[must_use]
    pub fn cancellations(&self) -> u64 {
        self.cancellations
    }

    /// Records one cancelled computation.
    pub fn record_cancellation(&mut self) {
        self.cancellations += 1;
    }

    /// Symbolic-engine statistics, present when the run used the BDD
    /// backend.
    #[must_use]
    pub fn bdd_stats(&self) -> Option<&BddEngineStats> {
        self.bdd.as_ref()
    }

    /// Attaches (or merges in) BDD engine statistics for this run.
    pub fn record_bdd_stats(&mut self, stats: BddEngineStats) {
        match &mut self.bdd {
            Some(existing) => existing.merge(&stats),
            slot @ None => *slot = Some(stats),
        }
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &Diagnostics) {
        self.prob_clamps += other.prob_clamps;
        self.coeff_saturations += other.coeff_saturations;
        self.theta_clamps += other.theta_clamps;
        self.correlation_fallbacks += other.correlation_fallbacks;
        self.worst_excursion = self.worst_excursion.max(other.worst_excursion);
        self.tier_exact += other.tier_exact;
        self.tier_propagation += other.tier_propagation;
        self.tier_mc += other.tier_mc;
        self.estimator_fallbacks += other.estimator_fallbacks;
        self.cancellations += other.cancellations;
        if let Some(stats) = &other.bdd {
            self.record_bdd_stats(*stats);
        }
    }

    /// Clamps `value` into `[lo, hi]`, recording a probability-clamp event
    /// when the excursion exceeds the rounding slack.
    #[inline]
    pub(crate) fn clamp_prob(&mut self, value: f64, lo: f64, hi: f64) -> f64 {
        self.clamp_counted(value, lo, hi, ClampKind::Probability)
    }

    /// Clamps a coefficient-weighted product, recording a saturation event.
    #[inline]
    pub(crate) fn clamp_coeff(&mut self, value: f64, lo: f64, hi: f64) -> f64 {
        self.clamp_counted(value, lo, hi, ClampKind::Coefficient)
    }

    /// Clamps the consolidation θ factor, recording a θ-clamp event.
    #[inline]
    pub(crate) fn clamp_theta(&mut self, value: f64, lo: f64, hi: f64) -> f64 {
        self.clamp_counted(value, lo, hi, ClampKind::Theta)
    }

    /// Records one correlation-propagation fallback (a pair dropped to
    /// independence because its coefficients were non-finite).
    #[inline]
    pub(crate) fn record_fallback(&mut self) {
        self.correlation_fallbacks += 1;
    }

    #[inline]
    fn clamp_counted(&mut self, value: f64, lo: f64, hi: f64, kind: ClampKind) -> f64 {
        debug_assert!(lo <= hi);
        if value.is_nan() {
            // NaN clamps to the lower bound; record it as a (large) event
            // so it never passes silently.
            self.count(kind);
            self.worst_excursion = f64::INFINITY;
            return lo;
        }
        let excursion = if value < lo {
            lo - value
        } else if value > hi {
            value - hi
        } else {
            return value;
        };
        if excursion > CLAMP_SLACK {
            self.count(kind);
            self.worst_excursion = self.worst_excursion.max(excursion);
        }
        value.clamp(lo, hi)
    }

    #[inline]
    fn count(&mut self, kind: ClampKind) {
        match kind {
            ClampKind::Probability => self.prob_clamps += 1,
            ClampKind::Coefficient => self.coeff_saturations += 1,
            ClampKind::Theta => self.theta_clamps += 1,
        }
    }
}

#[derive(Clone, Copy)]
enum ClampKind {
    Probability,
    Coefficient,
    Theta,
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "probability clamps:       {}", self.prob_clamps)?;
        writeln!(f, "coefficient saturations:  {}", self.coeff_saturations)?;
        writeln!(f, "theta clamps:             {}", self.theta_clamps)?;
        writeln!(
            f,
            "correlation fallbacks:    {}",
            self.correlation_fallbacks
        )?;
        write!(f, "worst excursion:          {:.3e}", self.worst_excursion)?;
        let tiers = self.tier_exact + self.tier_propagation + self.tier_mc;
        if tiers + self.estimator_fallbacks > 0 {
            write!(
                f,
                "\nestimator tiers:          exact {} / propagation {} / mc {} (fallbacks {})",
                self.tier_exact, self.tier_propagation, self.tier_mc, self.estimator_fallbacks
            )?;
        }
        if self.cancellations > 0 {
            write!(f, "\ncancellations:            {}", self.cancellations)?;
        }
        if let Some(stats) = &self.bdd {
            write!(f, "\n{stats}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass_through_uncounted() {
        let mut d = Diagnostics::new();
        assert_eq!(d.clamp_prob(0.5, 0.0, 1.0), 0.5);
        assert_eq!(d.clamp_prob(0.0, 0.0, 1.0), 0.0);
        assert_eq!(d.clamp_prob(1.0, 0.0, 1.0), 1.0);
        assert!(d.is_clean());
    }

    #[test]
    fn rounding_slack_is_clamped_but_not_counted() {
        let mut d = Diagnostics::new();
        let v = d.clamp_prob(1.0 + 1e-15, 0.0, 1.0);
        assert_eq!(v, 1.0);
        assert!(d.is_clean());
    }

    #[test]
    fn real_excursions_are_counted_with_magnitude() {
        let mut d = Diagnostics::new();
        assert_eq!(d.clamp_prob(1.25, 0.0, 1.0), 1.0);
        assert_eq!(d.clamp_coeff(-0.5, 0.0, 1.0), 0.0);
        assert_eq!(d.clamp_theta(1e8, 1e-6, 1e6), 1e6);
        assert_eq!(d.prob_clamps(), 1);
        assert_eq!(d.coeff_saturations(), 1);
        assert_eq!(d.theta_clamps(), 1);
        assert_eq!(d.total_events(), 3);
        assert!((d.worst_excursion() - (1e8 - 1e6)).abs() < 1.0);
        assert!(!d.is_clean());
    }

    #[test]
    fn nan_is_caught_and_pinned_to_lower_bound() {
        let mut d = Diagnostics::new();
        assert_eq!(d.clamp_prob(f64::NAN, 0.0, 1.0), 0.0);
        assert_eq!(d.prob_clamps(), 1);
        assert!(d.worst_excursion().is_infinite());
    }

    #[test]
    fn merge_accumulates_counters_and_extrema() {
        let mut a = Diagnostics::new();
        let _ = a.clamp_prob(1.5, 0.0, 1.0);
        let mut b = Diagnostics::new();
        let _ = b.clamp_coeff(3.0, 0.0, 1.0);
        b.record_fallback();
        a.merge(&b);
        assert_eq!(a.prob_clamps(), 1);
        assert_eq!(a.coeff_saturations(), 1);
        assert_eq!(a.correlation_fallbacks(), 1);
        assert!((a.worst_excursion() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bdd_stats_attach_merge_and_display() {
        let mut d = Diagnostics::new();
        assert!(d.bdd_stats().is_none());
        d.record_bdd_stats(BddEngineStats {
            peak_live_nodes: 1000,
            live_nodes: 400,
            unique_load: 0.5,
            cache_hits: 30,
            cache_misses: 70,
            gc_runs: 2,
            reorders: 1,
        });
        // Informational only: a run with engine stats is still clean.
        assert!(d.is_clean());
        let mut other = Diagnostics::new();
        other.record_bdd_stats(BddEngineStats {
            peak_live_nodes: 2000,
            live_nodes: 100,
            unique_load: 0.25,
            cache_hits: 70,
            cache_misses: 30,
            gc_runs: 1,
            reorders: 0,
        });
        d.merge(&other);
        let s = d.bdd_stats().unwrap();
        assert_eq!(s.peak_live_nodes, 2000);
        assert_eq!(s.live_nodes, 500);
        assert_eq!(s.cache_hits, 100);
        assert_eq!(s.gc_runs, 3);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
        let text = d.to_string();
        assert!(text.contains("peak live BDD nodes:      2000"));
        assert!(text.contains("op-cache hit rate"));
    }

    #[test]
    fn cancellations_count_merge_and_display() {
        let mut d = Diagnostics::new();
        assert_eq!(d.cancellations(), 0);
        assert!(!d.to_string().contains("cancellations"));
        d.record_cancellation();
        let mut other = Diagnostics::new();
        other.record_cancellation();
        d.merge(&other);
        assert_eq!(d.cancellations(), 2);
        assert!(d.to_string().contains("cancellations:            2"));
        // Informational like BDD stats: cancellations don't dirty a run's
        // numeric cleanliness.
        assert!(d.is_clean());
    }

    #[test]
    fn display_lists_every_counter() {
        let mut d = Diagnostics::new();
        let _ = d.clamp_prob(2.0, 0.0, 1.0);
        let text = d.to_string();
        assert!(text.contains("probability clamps:       1"));
        assert!(text.contains("worst excursion"));
    }
}
