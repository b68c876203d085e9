//! Command-line option parsing (dependency-free).

use crate::commands::CliError;
use relogic::Backend;
use relogic_estimate::CriticalMetric;
use relogic_serve::proto::{
    DEFAULT_AREA_BUDGET, DEFAULT_CRITICAL_THRESHOLD, DEFAULT_EPS, DEFAULT_PATTERNS,
};

/// The commands that run one protocol request kind through
/// `relogic_serve::api::run`, as the daemon does. `--json` applies to
/// exactly these; `--deadline-ms` to these and `rank`.
pub(crate) const KIND_COMMANDS: [&str; 6] = [
    "analyze",
    "observability",
    "mc",
    "estimate",
    "harden",
    "critical-eps",
];

/// Raw command line split into command, positional argument, and options.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand name.
    pub command: String,
    /// The positional argument (netlist path or suite name), if present.
    pub target: Option<String>,
    /// Parsed flag values.
    pub options: Options,
}

/// Typed option values with their defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Uniform gate failure probability.
    pub eps: f64,
    /// Backend selector (`bdd` exact or `sim` sampled).
    pub backend: BackendKind,
    /// Pattern budget for sampled statistics and Monte Carlo.
    pub patterns: u64,
    /// RNG seed.
    pub seed: u64,
    /// ε grid points for `sweep`.
    pub points: usize,
    /// ε grid upper bound for `sweep`.
    pub max_eps: f64,
    /// Disable the §4.1 correlation correction.
    pub no_correlations: bool,
    /// Print per-node detail in `analyze`.
    pub per_node: bool,
    /// Target format for `convert`.
    pub to: String,
    /// Row limit for `rank`.
    pub top: usize,
    /// Worker threads for `mc` and `sweep` (`0` = auto-detect).
    pub threads: usize,
    /// Print numerical diagnostics (clamp counts, fallbacks) after analysis.
    pub diagnostics: bool,
    /// Enforce the strict numeric policy (ε ≤ 0.5, no silent degradation).
    pub strict: bool,
    /// Emit machine-readable JSON (same schema as `relogic-serve`).
    pub json: bool,
    /// Override for the §4.1 correlation partner cap: unset keeps the
    /// engine default, `Some(None)` disables the cap (`--partner-cap
    /// none`), `Some(Some(n))` caps at `n` partners.
    pub partner_cap: Option<Option<usize>>,
    /// TCP listen address for `serve` (e.g. `127.0.0.1:7171`).
    pub listen: Option<String>,
    /// Unix-socket path for `serve`.
    pub unix: Option<String>,
    /// Artifact-cache byte budget for `serve`.
    pub cache_bytes: usize,
    /// Per-request timeout for `serve`, in milliseconds (0 = no timeout).
    pub timeout_ms: u64,
    /// Admission-control cap on concurrently executing analysis requests
    /// for `serve` (0 = unlimited); excess requests are answered with a
    /// typed `overloaded` error carrying a retry hint.
    pub max_inflight: usize,
    /// On-disk artifact store directory: `serve` persists compiled
    /// artifacts across restarts, the one-shot analysis commands (the six
    /// request-kind commands and `rank`) read/write it, and the `cache`
    /// subcommand manages it offline.
    pub cache_dir: Option<String>,
    /// Chaos fault-injection profile for `serve` (`NAME[:SEED]`). Only
    /// compiled in with the `chaos` feature.
    #[cfg(feature = "chaos")]
    pub chaos_profile: Option<String>,
    /// BDD live-node budget for the `estimate` exact tier (0 disables
    /// the exact tier and goes straight to propagation).
    pub bdd_node_budget: usize,
    /// Gate-count-ratio budget for `harden` (baseline = 1.0).
    pub area_budget: f64,
    /// δ threshold for `critical-eps`.
    pub threshold: f64,
    /// δ summary the `critical-eps` threshold applies to.
    pub metric: CriticalMetric,
    /// Step cap for `harden` prefixes / `critical-eps` bisection
    /// (0 = the command's default).
    pub max_steps: usize,
    /// Wall-clock budget for the analysis commands, in milliseconds
    /// (0 = no deadline). A run that exceeds it stops at the next
    /// cooperative check and exits with code 9 — never a partial result.
    pub deadline_ms: u64,
}

/// Which statistics backend the user asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Exact symbolic backend.
    Bdd,
    /// Random-pattern sampling backend.
    Sim,
}

impl Options {
    /// The `relogic` backend implied by these options.
    #[must_use]
    pub fn backend(&self) -> Backend {
        match self.backend {
            BackendKind::Bdd => Backend::Bdd,
            BackendKind::Sim => Backend::Simulation {
                patterns: self.patterns,
                seed: self.seed,
            },
        }
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            eps: DEFAULT_EPS,
            backend: BackendKind::Bdd,
            patterns: DEFAULT_PATTERNS,
            seed: 1,
            points: 20,
            max_eps: 0.5,
            no_correlations: false,
            per_node: false,
            to: "blif".to_owned(),
            top: 10,
            threads: 0,
            diagnostics: false,
            strict: false,
            json: false,
            partner_cap: None,
            listen: None,
            unix: None,
            cache_bytes: 256 << 20,
            timeout_ms: 10_000,
            max_inflight: 0,
            cache_dir: None,
            #[cfg(feature = "chaos")]
            chaos_profile: None,
            bdd_node_budget: relogic_estimate::DEFAULT_BDD_NODE_BUDGET,
            area_budget: DEFAULT_AREA_BUDGET,
            threshold: DEFAULT_CRITICAL_THRESHOLD,
            metric: CriticalMetric::Max,
            max_steps: 0,
            deadline_ms: 0,
        }
    }
}

impl ParsedArgs {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown flags, missing or malformed
    /// values, or a missing command.
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = args.into_iter().map(Into::into);
        let mut command = args
            .next()
            .ok_or_else(|| CliError::Usage("missing command (try `relogic-cli help`)".into()))?;
        // `cache` takes an action word (`cache verify ...`); fold it into
        // the command so the positional slot stays free for `warm`'s
        // netlist file.
        if command == "cache" {
            let action = args.next().ok_or_else(|| {
                CliError::Usage("`cache` needs an action: ls, verify, gc, or warm".into())
            })?;
            command = format!("cache {action}");
        }
        let mut target = None;
        let mut options = Options::default();
        let mut deadline_given = false;

        let mut iter = args;
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--eps" => options.eps = parse_value(&arg, iter.next())?,
                "--patterns" => options.patterns = parse_value(&arg, iter.next())?,
                "--seed" => options.seed = parse_value(&arg, iter.next())?,
                "--points" => options.points = parse_value(&arg, iter.next())?,
                "--max-eps" => options.max_eps = parse_value(&arg, iter.next())?,
                "--top" => options.top = parse_value(&arg, iter.next())?,
                "--threads" => options.threads = parse_value(&arg, iter.next())?,
                "--backend" => {
                    let v: String = parse_value(&arg, iter.next())?;
                    options.backend = match v.as_str() {
                        "bdd" => BackendKind::Bdd,
                        "sim" => BackendKind::Sim,
                        other => {
                            return Err(CliError::Usage(format!(
                                "unknown backend `{other}` (expected bdd or sim)"
                            )))
                        }
                    };
                }
                "--to" => options.to = parse_value(&arg, iter.next())?,
                "--listen" => options.listen = Some(parse_value(&arg, iter.next())?),
                "--unix" => options.unix = Some(parse_value(&arg, iter.next())?),
                "--cache-bytes" => options.cache_bytes = parse_value(&arg, iter.next())?,
                "--cache-dir" => options.cache_dir = Some(parse_value(&arg, iter.next())?),
                "--timeout-ms" => options.timeout_ms = parse_value(&arg, iter.next())?,
                "--max-inflight" => options.max_inflight = parse_value(&arg, iter.next())?,
                // Without the `chaos` feature this arm does not exist, so
                // the flag falls through to `unknown option` — production
                // builds cannot even spell fault injection.
                #[cfg(feature = "chaos")]
                "--chaos-profile" => {
                    options.chaos_profile = Some(parse_value(&arg, iter.next())?);
                }
                "--partner-cap" => {
                    let v: String = parse_value(&arg, iter.next())?;
                    options.partner_cap = Some(if v == "none" {
                        None
                    } else {
                        Some(v.parse().map_err(|_| {
                            CliError::Usage(format!(
                                "invalid value `{v}` for --partner-cap (expected a count or `none`)"
                            ))
                        })?)
                    });
                }
                "--bdd-node-budget" => options.bdd_node_budget = parse_value(&arg, iter.next())?,
                "--deadline-ms" => {
                    options.deadline_ms = parse_value(&arg, iter.next())?;
                    deadline_given = true;
                }
                "--area-budget" => options.area_budget = parse_value(&arg, iter.next())?,
                "--threshold" => options.threshold = parse_value(&arg, iter.next())?,
                "--max-steps" => options.max_steps = parse_value(&arg, iter.next())?,
                "--metric" => {
                    let v: String = parse_value(&arg, iter.next())?;
                    options.metric = CriticalMetric::parse(&v).ok_or_else(|| {
                        CliError::Usage(format!("unknown metric `{v}` (expected max or mean)"))
                    })?;
                }
                "--json" => options.json = true,
                "--no-correlations" => options.no_correlations = true,
                "--per-node" => options.per_node = true,
                "--diagnostics" => options.diagnostics = true,
                "--strict" => options.strict = true,
                flag if flag.starts_with("--") => {
                    return Err(CliError::Usage(format!("unknown option `{flag}`")))
                }
                positional => {
                    if target.is_some() {
                        return Err(CliError::Usage(format!(
                            "unexpected extra argument `{positional}`"
                        )));
                    }
                    target = Some(positional.to_owned());
                }
            }
        }
        if !(0.0..=1.0).contains(&options.eps) {
            return Err(CliError::Usage(format!(
                "--eps {} out of [0, 1]",
                options.eps
            )));
        }
        // The usage text printed with the error lists where each flag applies.
        let kind_command = KIND_COMMANDS.contains(&command.as_str());
        for (given, flag, honoured) in [
            (options.json, "--json", kind_command),
            (
                deadline_given,
                "--deadline-ms",
                kind_command || command == "rank",
            ),
        ] {
            if given && !honoured {
                return Err(CliError::Usage(format!("`{command}` does not take {flag}")));
            }
        }
        if options.threads > 1024 {
            return Err(CliError::Usage(format!(
                "--threads {} is implausibly large (use 0 to auto-detect)",
                options.threads
            )));
        }
        Ok(ParsedArgs {
            command,
            target,
            options,
        })
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, CliError> {
    let v = value.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| CliError::Usage(format!("invalid value `{v}` for {flag}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_target_and_flags() {
        let p = ParsedArgs::parse(["analyze", "c.bench", "--eps", "0.1", "--per-node"]).unwrap();
        assert_eq!(p.command, "analyze");
        assert_eq!(p.target.as_deref(), Some("c.bench"));
        assert_eq!(p.options.eps, 0.1);
        assert!(p.options.per_node);
        assert!(!p.options.no_correlations);
    }

    #[test]
    fn defaults_apply() {
        let p = ParsedArgs::parse(["stats", "x.blif"]).unwrap();
        assert_eq!(p.options.eps, 0.05);
        assert_eq!(p.options.patterns, 65_536);
        assert_eq!(p.options.backend, BackendKind::Bdd);
    }

    #[test]
    fn backend_selection() {
        let p = ParsedArgs::parse(["analyze", "x.bench", "--backend", "sim"]).unwrap();
        assert_eq!(p.options.backend, BackendKind::Sim);
        assert!(matches!(
            p.options.backend(),
            relogic::Backend::Simulation { .. }
        ));
        assert!(ParsedArgs::parse(["analyze", "x", "--backend", "magic"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(ParsedArgs::parse(["analyze", "--frobnicate"]).is_err());
        assert!(ParsedArgs::parse(["analyze", "--eps"]).is_err());
        assert!(ParsedArgs::parse(["analyze", "--eps", "banana"]).is_err());
        assert!(ParsedArgs::parse(["analyze", "--eps", "1.5"]).is_err());
        assert!(ParsedArgs::parse(["analyze", "a", "b"]).is_err());
        assert!(ParsedArgs::parse(Vec::<String>::new()).is_err());
    }

    #[test]
    fn diagnostics_and_strict_flags() {
        let p = ParsedArgs::parse(["analyze", "x.bench"]).unwrap();
        assert!(!p.options.diagnostics);
        assert!(!p.options.strict);
        let p = ParsedArgs::parse(["analyze", "x.bench", "--diagnostics", "--strict"]).unwrap();
        assert!(p.options.diagnostics);
        assert!(p.options.strict);
    }

    #[test]
    fn partner_cap_option() {
        let p = ParsedArgs::parse(["analyze", "x.bench"]).unwrap();
        assert_eq!(p.options.partner_cap, None, "default: engine decides");
        let p = ParsedArgs::parse(["analyze", "x.bench", "--partner-cap", "16"]).unwrap();
        assert_eq!(p.options.partner_cap, Some(Some(16)));
        let p = ParsedArgs::parse(["analyze", "x.bench", "--partner-cap", "none"]).unwrap();
        assert_eq!(p.options.partner_cap, Some(None));
        assert!(ParsedArgs::parse(["analyze", "x.bench", "--partner-cap", "soon"]).is_err());
        assert!(ParsedArgs::parse(["analyze", "x.bench", "--partner-cap"]).is_err());
    }

    #[test]
    fn json_and_serve_options() {
        let p = ParsedArgs::parse(["analyze", "x.bench", "--json"]).unwrap();
        assert!(p.options.json);
        let p = ParsedArgs::parse([
            "serve",
            "--listen",
            "127.0.0.1:7171",
            "--unix",
            "/tmp/relogic.sock",
            "--cache-bytes",
            "1048576",
            "--timeout-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(p.options.listen.as_deref(), Some("127.0.0.1:7171"));
        assert_eq!(p.options.unix.as_deref(), Some("/tmp/relogic.sock"));
        assert_eq!(p.options.cache_bytes, 1_048_576);
        assert_eq!(p.options.timeout_ms, 500);
    }

    #[test]
    fn max_inflight_option() {
        let p = ParsedArgs::parse(["serve", "--unix", "/tmp/x.sock"]).unwrap();
        assert_eq!(p.options.max_inflight, 0, "default is unlimited");
        let p =
            ParsedArgs::parse(["serve", "--unix", "/tmp/x.sock", "--max-inflight", "8"]).unwrap();
        assert_eq!(p.options.max_inflight, 8);
        assert!(ParsedArgs::parse(["serve", "--max-inflight", "lots"]).is_err());
    }

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn chaos_profile_flag_is_unknown_without_the_feature() {
        let err = ParsedArgs::parse(["serve", "--unix", "/tmp/x.sock", "--chaos-profile", "io"])
            .unwrap_err();
        assert!(err.to_string().contains("unknown option"), "{err}");
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_profile_flag_parses_with_the_feature() {
        let p = ParsedArgs::parse(["serve", "--unix", "/tmp/x.sock", "--chaos-profile", "io:7"])
            .unwrap();
        assert_eq!(p.options.chaos_profile.as_deref(), Some("io:7"));
    }

    #[test]
    fn cache_dir_and_cache_command() {
        let p = ParsedArgs::parse(["serve", "--unix", "/tmp/x.sock"]).unwrap();
        assert_eq!(p.options.cache_dir, None, "default is in-memory only");
        let p = ParsedArgs::parse([
            "serve",
            "--unix",
            "/tmp/x.sock",
            "--cache-dir",
            "/tmp/store",
        ])
        .unwrap();
        assert_eq!(p.options.cache_dir.as_deref(), Some("/tmp/store"));
        // The cache action folds into the command; `warm` keeps the
        // positional slot for its netlist file.
        let p = ParsedArgs::parse(["cache", "verify", "--cache-dir", "/tmp/store"]).unwrap();
        assert_eq!(p.command, "cache verify");
        assert_eq!(p.target, None);
        let p =
            ParsedArgs::parse(["cache", "warm", "c.bench", "--cache-dir", "/tmp/store"]).unwrap();
        assert_eq!(p.command, "cache warm");
        assert_eq!(p.target.as_deref(), Some("c.bench"));
        assert!(ParsedArgs::parse(["cache"]).is_err());
    }

    #[test]
    fn estimator_options() {
        let p = ParsedArgs::parse(["estimate", "x.bench"]).unwrap();
        assert_eq!(
            p.options.bdd_node_budget,
            relogic_estimate::DEFAULT_BDD_NODE_BUDGET
        );
        assert_eq!(p.options.area_budget, 2.0);
        assert_eq!(p.options.threshold, 0.1);
        assert_eq!(p.options.metric, CriticalMetric::Max);
        assert_eq!(p.options.max_steps, 0);
        let p = ParsedArgs::parse([
            "critical-eps",
            "x.bench",
            "--bdd-node-budget",
            "0",
            "--area-budget",
            "3.5",
            "--threshold",
            "0.25",
            "--metric",
            "mean",
            "--max-steps",
            "40",
        ])
        .unwrap();
        assert_eq!(p.options.bdd_node_budget, 0);
        assert_eq!(p.options.area_budget, 3.5);
        assert_eq!(p.options.threshold, 0.25);
        assert_eq!(p.options.metric, CriticalMetric::Mean);
        assert_eq!(p.options.max_steps, 40);
        let err = ParsedArgs::parse(["critical-eps", "x.bench", "--metric", "median"]).unwrap_err();
        assert!(err.to_string().contains("unknown metric"), "{err}");
        assert!(ParsedArgs::parse(["estimate", "x.bench", "--bdd-node-budget"]).is_err());
    }

    #[test]
    fn deadline_option() {
        let p = ParsedArgs::parse(["analyze", "x.bench"]).unwrap();
        assert_eq!(p.options.deadline_ms, 0, "default is no deadline");
        let p = ParsedArgs::parse(["observability", "x.bench", "--deadline-ms", "500"]).unwrap();
        assert_eq!(p.options.deadline_ms, 500);
        assert!(ParsedArgs::parse(["analyze", "x.bench", "--deadline-ms", "soon"]).is_err());
        assert!(ParsedArgs::parse(["analyze", "x.bench", "--deadline-ms"]).is_err());
    }

    #[test]
    fn threads_option() {
        let p = ParsedArgs::parse(["mc", "x.bench"]).unwrap();
        assert_eq!(p.options.threads, 0, "default is auto-detect");
        let p = ParsedArgs::parse(["mc", "x.bench", "--threads", "4"]).unwrap();
        assert_eq!(p.options.threads, 4);
        assert!(ParsedArgs::parse(["mc", "x.bench", "--threads", "-1"]).is_err());
        assert!(ParsedArgs::parse(["mc", "x.bench", "--threads", "1.5"]).is_err());
        assert!(ParsedArgs::parse(["mc", "x.bench", "--threads", "99999"]).is_err());
    }
}
