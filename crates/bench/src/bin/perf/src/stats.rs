//! Order statistics shared by the workloads, the comparison and the
//! baseline summary.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie beyond the `q`-quantile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let k = ((1.0 - q) * n as f64 + 1e-9).floor() as usize;
    k
}

/// The tail of ascending `sorted` with its label: the `q`-quantile when
/// at least [`MIN_BEYOND`] samples lie beyond it, else the maximum.
#[must_use]
pub fn tail(sorted: &[f64], q: f64) -> (f64, String) {
    if beyond(sorted.len(), q) >= MIN_BEYOND {
        (percentile(sorted, q), format!("p{:.0}", q * 100.0))
    } else {
        (percentile(sorted, 1.0), "max".to_owned())
    }
}

/// The `q`-quantile of ascending `sorted` by linear interpolation between
/// closest ranks; `q = 1` is the maximum. Empty input gives 0.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            #[allow(clippy::cast_precision_loss)]
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            #[allow(clippy::cast_precision_loss)]
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median of arbitrary-order values (mean of the middle two when even).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match a computation done in Python. A single
/// value is its own quartiles; no values give zeros.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: with two values the first cut extrapolates, as in Python.
        #[allow(clippy::cast_possible_wrap)]
        let delta = (i * m) as i64 - (j * 4) as i64;
        #[allow(clippy::cast_precision_loss)]
        let v = (data[j - 1] * (4 - delta) as f64 + data[j] * delta as f64) / 4.0;
        v
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_choice_needs_ten_samples_beyond() {
        let ramp = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        // 200 samples: exactly ten beyond p95.
        let (value, label) = tail(&ramp(200), 0.95);
        assert_eq!(label, "p95");
        assert!((value - percentile(&ramp(200), 0.95)).abs() < 1e-12);
        // 199 samples: nine beyond p95, so the slowest is reported.
        assert_eq!(tail(&ramp(199), 0.95), (199.0, "max".to_owned()));
        assert_eq!(tail(&ramp(100), 0.90).1, "p90");
        assert_eq!(tail(&ramp(99), 0.90).1, "max");
        assert_eq!(beyond(110, 0.9), 11);
    }

    #[test]
    fn percentile_interpolates_and_hits_the_ends() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }
}
