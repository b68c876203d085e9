//! ε-sweep drivers: evaluate δ(ε⃗) curves over a grid of uniform gate
//! failure probabilities, as every figure and table in the paper does
//! ("δ(ε⃗) for 50 different values of ε over the range 0 to 0.5").

use crate::{Diagnostics, GateEps, RelogicError, SinglePass, SinglePassOptions, Weights};
use relogic_netlist::Circuit;
use relogic_sim::{try_estimate_tape, CancelToken, ChunkExecutor, CircuitTape, MonteCarloConfig};

/// An evenly spaced ε grid of `points` values covering `[lo, hi]`
/// inclusive.
///
/// # Errors
///
/// [`RelogicError::InvalidGrid`] if `points == 0` or the range is not an
/// increasing, finite subrange of `[0, 1]`.
///
/// # Examples
///
/// ```
/// let grid = relogic::sweep::try_epsilon_grid(50, 0.0, 0.5)?;
/// assert_eq!(grid.len(), 50);
/// assert_eq!(grid[0], 0.0);
/// assert_eq!(grid.last(), Some(&0.5));
/// # Ok::<(), relogic::RelogicError>(())
/// ```
pub fn try_epsilon_grid(points: usize, lo: f64, hi: f64) -> Result<Vec<f64>, RelogicError> {
    if points == 0 {
        return Err(RelogicError::InvalidGrid {
            message: "need at least one grid point".to_string(),
        });
    }
    if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi && hi <= 1.0) {
        return Err(RelogicError::InvalidGrid {
            message: format!("invalid ε range [{lo}, {hi}]"),
        });
    }
    if points == 1 {
        return Ok(vec![lo]);
    }
    #[allow(clippy::cast_precision_loss)]
    let step = (hi - lo) / (points - 1) as f64;
    Ok((0..points)
        .map(|i| {
            if i == points - 1 {
                hi
            } else {
                #[allow(clippy::cast_precision_loss)]
                let e = lo + step * i as f64;
                e.min(hi)
            }
        })
        .collect())
}

/// A family of δ(ε) curves: `delta[point][output]`.
#[derive(Clone, Debug)]
pub struct DeltaCurves {
    /// The ε grid.
    pub eps: Vec<f64>,
    /// `delta[i][k]` is δ of output `k` at `eps[i]`.
    pub delta: Vec<Vec<f64>>,
    /// Numerical diagnostics merged over every grid point (all-zero for
    /// the Monte Carlo and closed-form sweeps, which do not clamp).
    pub diagnostics: Diagnostics,
}

impl DeltaCurves {
    /// The curve of one output across the grid.
    #[must_use]
    pub fn output_curve(&self, output: usize) -> Vec<f64> {
        self.delta.iter().map(|row| row[output]).collect()
    }
}

/// Sweeps the single-pass engine over `eps_values` (uniform per-gate ε).
///
/// The weight vectors are computed by the caller once and shared across the
/// whole sweep — the reuse the paper highlights in §4(i). Grid points are
/// evaluated in parallel on `threads` workers (`0` = auto-detect) against
/// one shared, immutable [`SinglePass`] engine. Each grid point is an
/// independent, purely analytical evaluation, so the curves are identical
/// for every thread count. The first grid point that fails validation
/// aborts the sweep with its error; per-point diagnostics are merged into
/// [`DeltaCurves::diagnostics`].
///
/// # Errors
///
/// Any error of [`SinglePass::try_new`], [`GateEps::try_uniform`], or
/// [`SinglePass::try_run`], e.g. an out-of-range ε under the strict policy.
pub fn sweep_single_pass(
    circuit: &Circuit,
    weights: &Weights,
    options: SinglePassOptions,
    eps_values: &[f64],
    threads: usize,
) -> Result<DeltaCurves, RelogicError> {
    // Uncorrelated, non-strict sweeps take the compiled grid engine: one
    // tape traversal carries many grid points at once and produces the
    // same curves as the per-point engine (same arithmetic per lane).
    // Strict mode stays on the per-point path for its ε ≤ 0.5 policy.
    if !options.correlations && !options.strict {
        return crate::SweepTape::try_new(circuit, weights)?.try_run_grid(
            eps_values,
            threads,
            &CancelToken::new(),
        );
    }
    let engine = SinglePass::try_new(circuit, weights, options)?;
    let rows = ChunkExecutor::new(threads).map_chunks(eps_values.len(), |i| {
        let eps = GateEps::try_uniform(circuit, eps_values[i])?;
        let r = engine.try_run(&eps)?;
        Ok::<_, RelogicError>((r.per_output().to_vec(), r.diagnostics().clone()))
    });
    let mut delta = Vec::with_capacity(rows.len());
    let mut diagnostics = Diagnostics::new();
    for row in rows {
        let (d, diag) = row?;
        delta.push(d);
        diagnostics.merge(&diag);
    }
    Ok(DeltaCurves {
        eps: eps_values.to_vec(),
        delta,
        diagnostics,
    })
}

/// Sweeps Monte Carlo fault injection over `eps_values`, deriving a distinct
/// RNG seed per point from `config.seed`; grid points run in parallel on
/// `threads` workers (`0` = auto-detect).
///
/// When the sweep fans out (`> 1` workers), each point's estimator runs
/// single-threaded — the sweep itself is the parallel axis, so nesting would
/// only oversubscribe; on a sequential sweep the estimator keeps
/// `config.threads`. Every point draws from a seed derived off `config.seed`
/// and the point index alone, and the estimator is bit-identical for every
/// `threads` value, so the whole sweep is too — a 7-thread sweep reproduces
/// the 1-thread curves exactly.
///
/// # Errors
///
/// [`RelogicError::Sim`] wrapping any Monte Carlo validation failure (zero
/// pattern budget, bad ε vector …), or [`GateEps::try_uniform`] errors.
pub fn sweep_monte_carlo(
    circuit: &Circuit,
    config: &MonteCarloConfig,
    eps_values: &[f64],
    threads: usize,
) -> Result<DeltaCurves, RelogicError> {
    let executor = ChunkExecutor::new(threads);
    let inner_threads = if executor.threads() > 1 {
        1
    } else {
        config.threads
    };
    let tape = CircuitTape::compile(circuit);
    let never = CancelToken::new();
    let rows = executor.map_chunks(eps_values.len(), |i| {
        let cfg = MonteCarloConfig {
            seed: config
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
            threads: inner_threads,
            ..config.clone()
        };
        let eps = GateEps::try_uniform(circuit, eps_values[i])?;
        let est = try_estimate_tape(circuit, &tape, eps.as_slice(), &cfg, &never)?;
        Ok::<_, RelogicError>(est.per_output().to_vec())
    });
    let delta = rows.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(DeltaCurves {
        eps: eps_values.to_vec(),
        delta,
        diagnostics: Diagnostics::new(),
    })
}

/// Sweeps the observability closed form (Eq. 3) over `eps_values`; grid
/// points are evaluated in parallel on `threads` workers (`0` =
/// auto-detect) against the shared, immutable observability matrix.
///
/// # Errors
///
/// [`GateEps::try_uniform`] errors for any grid value outside `[0, 1]`.
pub fn sweep_closed_form(
    circuit: &Circuit,
    obs: &crate::ObservabilityMatrix,
    eps_values: &[f64],
    threads: usize,
) -> Result<DeltaCurves, RelogicError> {
    let rows = ChunkExecutor::new(threads).map_chunks(eps_values.len(), |i| {
        GateEps::try_uniform(circuit, eps_values[i]).map(|eps| obs.closed_form(&eps))
    });
    let delta = rows.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(DeltaCurves {
        eps: eps_values.to_vec(),
        delta,
        diagnostics: Diagnostics::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, InputDistribution, ObservabilityMatrix};

    fn circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        let h = c.not(g);
        c.add_output("y", h);
        c
    }

    #[test]
    fn grid_endpoints_and_spacing() {
        let g = try_epsilon_grid(6, 0.05, 0.3).unwrap();
        assert_eq!(g.len(), 6);
        assert!((g[0] - 0.05).abs() < 1e-12);
        assert!((g[5] - 0.3).abs() < 1e-12);
        assert!((g[1] - 0.1).abs() < 1e-12);
        assert_eq!(try_epsilon_grid(1, 0.2, 0.5).unwrap(), vec![0.2]);
    }

    #[test]
    fn try_grid_rejects_bad_requests() {
        use crate::RelogicError;
        assert!(matches!(
            try_epsilon_grid(0, 0.0, 0.5),
            Err(RelogicError::InvalidGrid { .. })
        ));
        assert!(matches!(
            try_epsilon_grid(5, 0.4, 0.1),
            Err(RelogicError::InvalidGrid { .. })
        ));
        assert!(matches!(
            try_epsilon_grid(5, 0.0, f64::NAN),
            Err(RelogicError::InvalidGrid { .. })
        ));
        assert!(try_epsilon_grid(5, 0.0, 0.5).is_ok());
    }

    #[test]
    fn sweep_propagates_grid_point_errors() {
        use crate::RelogicError;
        let c = circuit();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let err = sweep_single_pass(&c, &w, SinglePassOptions::default(), &[0.1, 1.5], 1);
        assert!(matches!(err, Err(RelogicError::InvalidEpsilon { .. })));
        let ok = sweep_single_pass(&c, &w, SinglePassOptions::default(), &[0.1, 0.2], 1).unwrap();
        assert_eq!(ok.delta.len(), 2);
    }

    #[test]
    fn single_pass_sweep_is_monotone_from_zero() {
        let c = circuit();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let grid = try_epsilon_grid(6, 0.0, 0.25).unwrap();
        let curves = sweep_single_pass(&c, &w, SinglePassOptions::default(), &grid, 1).unwrap();
        assert_eq!(curves.delta.len(), 6);
        assert_eq!(curves.delta[0], vec![0.0]);
        let curve = curves.output_curve(0);
        for win in curve.windows(2) {
            assert!(win[1] >= win[0] - 1e-12, "δ should grow with ε here");
        }
    }

    #[test]
    fn monte_carlo_sweep_tracks_single_pass() {
        let c = circuit();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let grid = try_epsilon_grid(4, 0.0, 0.3).unwrap();
        let sp = sweep_single_pass(&c, &w, SinglePassOptions::default(), &grid, 1).unwrap();
        let mc = sweep_monte_carlo(
            &c,
            &MonteCarloConfig {
                patterns: 1 << 15,
                ..MonteCarloConfig::default()
            },
            &grid,
            1,
        )
        .unwrap();
        for (s, m) in sp.delta.iter().zip(&mc.delta) {
            assert!((s[0] - m[0]).abs() < 0.02, "{} vs {}", s[0], m[0]);
        }
    }

    #[test]
    fn sweeps_are_identical_for_every_thread_count() {
        let c = circuit();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let grid = try_epsilon_grid(7, 0.0, 0.4).unwrap();
        let sp = |threads| {
            sweep_single_pass(&c, &w, SinglePassOptions::default(), &grid, threads).unwrap()
        };
        // Uncorrelated and non-strict: the `SweepTape` grid route.
        let tape = |threads| {
            let options = SinglePassOptions::without_correlations();
            sweep_single_pass(&c, &w, options, &grid, threads).unwrap()
        };
        let cfg = MonteCarloConfig {
            patterns: 4096,
            ..MonteCarloConfig::default()
        };
        let mc = |threads| sweep_monte_carlo(&c, &cfg, &grid, threads).unwrap();
        let cf = |threads| sweep_closed_form(&c, &obs, &grid, threads).unwrap();
        let (sp1, tape1, mc1, cf1) = (sp(1), tape(1), mc(1), cf(1));
        for threads in [2, 3, 7] {
            let at = format!("@ {threads} threads");
            assert_eq!(sp(threads).delta, sp1.delta, "single-pass sweep {at}");
            assert_eq!(tape(threads).delta, tape1.delta, "tape-routed sweep {at}");
            assert_eq!(mc(threads).delta, mc1.delta, "MC sweep {at}");
            assert_eq!(cf(threads).delta, cf1.delta, "closed-form sweep {at}");
        }
        // The auto-detected width (threads = 0) is one more thread count.
        assert_eq!(mc(0).delta, mc1.delta);
    }

    #[test]
    fn closed_form_sweep_matches_single_pass_at_small_eps() {
        let c = circuit();
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        let grid = try_epsilon_grid(3, 0.0, 0.02).unwrap();
        let sp = sweep_single_pass(&c, &w, SinglePassOptions::default(), &grid, 1).unwrap();
        let cf = sweep_closed_form(&c, &obs, &grid, 1).unwrap();
        for (s, f) in sp.delta.iter().zip(&cf.delta) {
            assert!((s[0] - f[0]).abs() < 1e-3);
        }
    }
}
