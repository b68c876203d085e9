//! Judging saved runs: `perf compare` applies the regression rules to a
//! parent and a change, `perf summary` condenses runs into a baseline.
//!
//! A run file is what `perf --out` writes: the closing JSON object plus
//! `workload`, `seed` and `trace`.

use crate::stats::quartiles;
use relogic_serve::json::{self, Json};
use std::collections::BTreeMap;

/// Pairs of alternating parent/change runs a verdict needs.
const MIN_PAIRS: usize = 10;

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Won at least 9/10 of the pairs and moved by more than the
    /// parent's interquartile spread.
    Better,
    /// Not better, and no worse than the bound.
    Same,
    /// Worse than the parent's median by more than the bound.
    Worse,
    /// The parent's own spread is wider than the bound, so "same" cannot
    /// be told apart from a regression.
    Unresolved,
}

/// Compares `change` with `parent`, pair by pair in the order run.
/// `bound` is the share of the parent's median by which the metric may
/// worsen.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (p1, pmed, p3) = quartiles(&parent[..pairs]);
    let (_, cmed, _) = quartiles(&change[..pairs]);
    let spread = p3 - p1;
    if wins * 10 >= pairs * 9 && (cmed - pmed).abs() > spread && better(cmed, pmed) {
        return Verdict::Better;
    }
    let all_better = change[..pairs]
        .iter()
        .all(|&c| parent[..pairs].iter().all(|&p| better(c, p)));
    if spread > bound * pmed.abs() && !all_better {
        return Verdict::Unresolved;
    }
    let worse = if lower_is_better {
        cmed - pmed
    } else {
        pmed - cmed
    };
    if worse > bound * pmed.abs() {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One saved run.
struct RunFile {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: no `workload` (write runs with --out)"))?
        .to_owned();
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err(format!("{path}: no `metrics` object"));
    };
    let metrics = members
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(RunFile {
        workload,
        seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// Runs grouped by workload, in file order.
fn group(paths: &[String]) -> Result<BTreeMap<String, Vec<RunFile>>, String> {
    let mut out: BTreeMap<String, Vec<RunFile>> = BTreeMap::new();
    for path in paths {
        let run = load(path)?;
        out.entry(run.workload.clone()).or_default().push(run);
    }
    Ok(out)
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
fn bounds(bench: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{bench}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{bench}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{bench}: no end_to_end list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_owned(), b == "lower", x)),
                _ => Err(format!("{bench}: malformed end_to_end entry")),
            }
        })
        .collect()
}

/// `perf compare <parent>... -- <change>... [--bench BENCHMARK.json]`:
/// one row per workload, one verdict per end-to-end metric. Exits 1 when
/// any metric is worse.
pub fn compare_main(args: &[String]) -> Result<u8, String> {
    let mut bench = "BENCHMARK.json".to_owned();
    let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => side = 1,
            "--bench" => bench = it.next().ok_or("`--bench` needs a path")?.clone(),
            path => sides[side].push(path.to_owned()),
        }
    }
    if sides[1].is_empty() {
        return Err("compare needs parent runs, `--`, then change runs".into());
    }
    let metrics = bounds(&bench)?;
    let parent = group(&sides[0])?;
    let change = group(&sides[1])?;
    let mut any_worse = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        let pairs = p_runs.len().min(c_runs.len());
        if pairs < MIN_PAIRS {
            println!("{workload}: unresolved, {pairs} pairs (need {MIN_PAIRS} alternating pairs)");
            continue;
        }
        let mut row = format!("{workload} ({pairs} pairs):");
        for (name, lower, bound) in &metrics {
            let values = |runs: &[RunFile]| -> Option<Vec<f64>> {
                runs[..pairs]
                    .iter()
                    .map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (Some(p), Some(c)) = (values(p_runs), values(c_runs)) else {
                row.push_str(&format!("  {name}=missing"));
                continue;
            };
            let v = verdict(&p, &c, *lower, *bound);
            any_worse |= v == Verdict::Worse;
            let (p1, pmed, p3) = quartiles(&p);
            let (_, cmed, _) = quartiles(&c);
            row.push_str(&format!(
                "  {name}={v:?}({:+.1}%, parent IQR {:.1}%)",
                (cmed - pmed) / pmed * 100.0,
                (p3 - p1) / pmed * 100.0
            ));
        }
        println!("{row}");
    }
    Ok(u8::from(any_worse))
}

/// `perf summary --rev <rev> [--set <name>] <run>...`: per set, workload
/// and metric, the median and quartiles of the runs, with the git rev
/// and `nproc` — the form of `results/bench/baseline.json`.
pub fn summary_main(args: &[String]) -> Result<u8, String> {
    let mut rev = None;
    let mut sets: Vec<(String, Vec<String>)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rev" => rev = Some(it.next().ok_or("`--rev` needs a value")?.clone()),
            "--set" => sets.push((it.next().ok_or("`--set` needs a name")?.clone(), Vec::new())),
            path => {
                if sets.is_empty() {
                    sets.push(("runs".into(), Vec::new()));
                }
                sets.last_mut()
                    .expect("a set exists")
                    .1
                    .push(path.to_owned());
            }
        }
    }
    let rev = rev.ok_or("summary needs --rev")?;
    let mut out = Vec::new();
    for (name, paths) in sets {
        let mut workloads = Vec::new();
        for (workload, runs) in group(&paths)? {
            let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            let names: Vec<&String> = runs[0].metrics.keys().collect();
            let metrics = names
                .into_iter()
                .map(|m| {
                    let values: Vec<f64> = runs
                        .iter()
                        .filter_map(|r| r.metrics.get(m).copied())
                        .collect();
                    let (q1, med, q3) = quartiles(&values);
                    let summary = Json::obj([
                        ("median", Json::Num(med)),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        ("iqr_share", Json::Num((q3 - q1) / med)),
                    ]);
                    (m.clone(), summary)
                })
                .collect();
            let entry = Json::obj([
                ("runs", Json::from(runs.len())),
                (
                    "seeds",
                    Json::Arr(seeds.into_iter().map(Json::from).collect()),
                ),
                ("metrics", Json::Obj(metrics)),
            ]);
            workloads.push((workload, entry));
        }
        out.push((name, Json::Obj(workloads)));
    }
    let doc = Json::obj([
        ("rev", Json::from(rev)),
        ("nproc", Json::from(crate::sys::nproc())),
        ("sets", Json::Obj(out)),
    ]);
    println!("{}", doc.encode());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn a_clear_win_is_better() {
        // Parent 100..104 ms, change 90..94 ms: every pair won, the
        // medians 10 ms apart against a 2.5 ms spread.
        assert_eq!(
            verdict(&runs(100.0, 1.0), &runs(90.0, 1.0), true, 0.1),
            Verdict::Better
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            verdict(&runs(100.0, 1.0), &runs(110.0, 1.0), false, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn a_small_move_inside_the_bound_is_same() {
        assert_eq!(
            verdict(&runs(100.0, 1.0), &runs(103.0, 1.0), true, 0.1),
            Verdict::Same
        );
        // Winning every pair is not enough when the medians sit
        // inside the parent's spread.
        let parent = runs(100.0, 2.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Same);
    }

    #[test]
    fn a_regression_past_the_bound_is_worse() {
        assert_eq!(
            verdict(&runs(100.0, 1.0), &runs(115.0, 1.0), true, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&runs(100.0, 1.0), &runs(85.0, 1.0), false, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // Parent spread ~30 % of its median against a 10 % bound.
        let parent = runs(80.0, 15.0);
        assert_eq!(
            verdict(&parent, &runs(90.0, 15.0), true, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        assert_eq!(
            verdict(&parent, &runs(10.0, 1.0), true, 0.1),
            Verdict::Better
        );
    }
}
