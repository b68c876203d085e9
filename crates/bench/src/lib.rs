//! Shared harness for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the DATE
//! 2007 paper (see `DESIGN.md` §6 for the index); this library holds the
//! pieces they share: per-circuit backend selection, scaled-down defaults
//! with a `--full` escape hatch, and plain-text table rendering.

use relogic::Backend;
use relogic_sim::MonteCarloConfig;

/// Default Monte Carlo pattern budget for the scaled-down (CI-friendly)
/// runs. `--full` switches to the paper's 6.4 M patterns.
pub const DEFAULT_PATTERNS: u64 = 1 << 16;

/// The paper's Monte Carlo sample size (6.4 million random patterns).
pub const PAPER_PATTERNS: u64 = 6_400_000;

/// Picks the statistics backend for a suite circuit.
///
/// The small and structured circuits afford exact BDD weight vectors and
/// signal probabilities; the large random-logic analogues (c1908, c2670,
/// frg2, c3540, i10) blow up symbolically and use random-pattern estimation
/// instead — precisely the two options §4(i) of the paper offers.
#[must_use]
pub fn backend_for(name: &str) -> Backend {
    match name {
        "x2" | "cu" | "b9" | "c499" | "c1355" => Backend::Bdd,
        _ => Backend::Simulation {
            patterns: 1 << 17,
            seed: 0xBEEF,
        },
    }
}

/// Command-line options shared by the regeneration binaries.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// Run at paper scale (6.4 M Monte Carlo patterns, 1000 Fig. 7 runs).
    pub full: bool,
    /// Override the Monte Carlo pattern count.
    pub patterns: Option<u64>,
    /// Override the number of ε grid points.
    pub points: Option<usize>,
    /// Override the number of randomized runs (Fig. 7).
    pub runs: Option<usize>,
    /// Restrict to a single named circuit (Table 2).
    pub only: Option<String>,
}

impl Cli {
    /// Parses `std::env::args`, ignoring unknown flags.
    ///
    /// Recognized: `--full`, `--patterns N`, `--points N`, `--runs N`,
    /// `--only NAME`.
    #[must_use]
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => cli.full = true,
                "--patterns" => cli.patterns = args.next().and_then(|v| v.parse().ok()),
                "--points" => cli.points = args.next().and_then(|v| v.parse().ok()),
                "--runs" => cli.runs = args.next().and_then(|v| v.parse().ok()),
                "--only" => cli.only = args.next(),
                _ => {}
            }
        }
        cli
    }

    /// The Monte Carlo pattern budget implied by the flags.
    #[must_use]
    pub fn mc_patterns(&self) -> u64 {
        self.patterns.unwrap_or(if self.full {
            PAPER_PATTERNS
        } else {
            DEFAULT_PATTERNS
        })
    }

    /// A Monte Carlo configuration with the selected pattern budget.
    #[must_use]
    pub fn mc_config(&self) -> MonteCarloConfig {
        MonteCarloConfig {
            patterns: self.mc_patterns(),
            ..MonteCarloConfig::default()
        }
    }
}

/// Renders rows as a fixed-width text table with a header rule.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (j, cell) in row.iter().enumerate().take(cols) {
            widths[j] = widths[j].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a duration compactly (`1m 23.4s`, `456ms`, …).
#[must_use]
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{}m {:.1}s", (s / 60.0).floor(), s % 60.0)
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_table() {
        assert_eq!(backend_for("b9"), Backend::Bdd);
        assert!(matches!(backend_for("i10"), Backend::Simulation { .. }));
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with('1'));
    }

    #[test]
    fn durations_format() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.0ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.5)), "2.50s");
        assert_eq!(fmt_duration(Duration::from_secs(125)), "2m 5.0s");
    }

    #[test]
    fn cli_defaults() {
        let cli = Cli::default();
        assert_eq!(cli.mc_patterns(), DEFAULT_PATTERNS);
        let full = Cli {
            full: true,
            ..Cli::default()
        };
        assert_eq!(full.mc_patterns(), PAPER_PATTERNS);
        let over = Cli {
            patterns: Some(999),
            full: true,
            ..Cli::default()
        };
        assert_eq!(over.mc_patterns(), 999);
    }
}
