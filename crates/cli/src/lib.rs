//! Implementation of the `relogic-cli` command-line tool.
//!
//! Everything is in the library (commands take parsed options and return
//! strings) so the test suite can drive the tool without spawning
//! processes; `main.rs` is a thin shell.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod commands;
mod options;

pub use commands::{run, CliError};
pub use options::{Options, ParsedArgs};

/// The usage text printed by `relogic-cli help`.
pub const USAGE: &str = "\
relogic-cli — reliability analysis of logic circuits (DATE 2007 algorithms)

USAGE:
    relogic-cli <COMMAND> [ARGS] [OPTIONS]

COMMANDS:
    stats <FILE>            structural statistics of a netlist
    analyze <FILE>          per-output error probabilities (single-pass engine)
    observability <FILE>    closed-form observability bound per output
    sweep <FILE>            delta(eps) curves over an epsilon grid (CSV)
    mc <FILE>               Monte Carlo fault-injection reference
    rank <FILE>             gates ranked by soft-error criticality (eps * observability)
    estimate <FILE>         hybrid SER estimate: exact BDD under a live-node
                            budget, auto-escalating to the propagation
                            estimator and Monte Carlo refinement
    harden <FILE>           selective-TMR hardening sweep under an area
                            budget (reliability-per-area Pareto front)
    critical-eps <FILE>     bisect for the smallest eps where delta
                            reaches --threshold (deterministic, on the
                            compiled sweep tape)
    convert <FILE>          convert between bench / blif / dot
    gen <NAME>              emit a benchmark-suite analogue as .bench text
    serve                   run the relogic-serve analysis daemon
    cache <ACTION>          manage the on-disk artifact store (offline):
                            ls | verify | gc | warm <FILE>, with --cache-dir
    help                    this message

OPTIONS:
    --eps <F>               uniform gate failure probability     [default: 0.05]
    --backend <bdd|sim>     statistics backend                   [default: bdd]
    --patterns <N>          patterns for sim backend / mc        [default: 65536]
    --seed <N>              RNG seed                             [default: 1]
    --points <N>            epsilon grid points for sweep        [default: 20]
    --max-eps <F>           epsilon grid upper bound             [default: 0.5]
    --no-correlations       disable reconvergent-fanout correction
    --per-node              also print per-node error probabilities (analyze)
    --diagnostics           print engine diagnostics (analyze, observability,
                            sweep, mc, rank, estimate, critical-eps)
    --strict                reject eps > 0.5 and non-finite intermediates
                            instead of degrading gracefully
    --to <bench|blif|verilog|dot>  target format for convert     [default: blif]
    --top <N>               rows to print for rank               [default: 10]
    --threads <N>           worker threads for observability, sweep, mc,
                            rank, estimate and serve; 0 = auto-detect
                            (results are identical for every N)  [default: 0]
    --partner-cap <N|none>  cap the correlation partners tracked per node
                            (accuracy/time dial; `none` lifts the cap)
    --json                  emit machine-readable JSON (analyze, observability,
                            mc, estimate, harden, critical-eps) using the
                            relogic-serve result schema
    --bdd-node-budget <N>   BDD live-node budget for the estimate exact
                            tier; 0 disables the exact tier
                            (fallbacks are counted, never silent)
                                                          [default: 2000000]
    --area-budget <F>       max gate-count ratio for harden  [default: 2.0]
    --threshold <F>         delta threshold for critical-eps [default: 0.1]
    --metric <max|mean>     delta summary for critical-eps   [default: max]
    --max-steps <N>         step cap for harden prefixes / critical-eps
                            bisection (0 = command default)  [default: 0]
    --deadline-ms <N>       wall-clock budget for analyze, observability,
                            mc, rank, estimate, harden, and critical-eps
                            (0 = none). An exceeded deadline stops the
                            work at its next cooperative check and exits
                            with code 9 — never a partial result. A run
                            that completes under its deadline prints
                            bit-identical output to an undeadlined run.
    --cache-dir <DIR>       versioned, checksummed on-disk artifact store:
                            analyze, observability, rank, estimate and
                            critical-eps read and write it, serve
                            persists its cache across restarts in it,
                            and `cache ls|verify|gc|warm` manage it offline.
                            Corrupt files are quarantined (*.corrupt) and
                            recomputed — never served.

SERVE OPTIONS:
    --listen <ADDR>         TCP listen address (e.g. 127.0.0.1:7171)
    --unix <PATH>           Unix-socket path
    --cache-bytes <N>       artifact-cache byte budget      [default: 268435456]
    --timeout-ms <N>        per-request timeout, 0 disables [default: 10000]
                            (also caps each request's own `deadline_ms`;
                            a bound deadline answers `deadline_exceeded`)
    --max-inflight <N>      cap concurrently executing analysis requests;
                            excess get `overloaded` + retry_after_ms
                            (0 = unlimited)                 [default: 0]
    --chaos-profile <P>     deterministic fault injection, P = NAME[:SEED]
                            with NAME in worker|io|cache|all (builds with
                            the `chaos` feature only)

FILES:
    *.bench parses as ISCAS-85 bench, *.v/*.verilog as structural Verilog,
    everything else as BLIF.

EXIT CODES:
    0 success    2 usage error    3 i/o error    4 netlist error
    5 analysis error    6 simulation error    7 store error/corruption
    8 estimator error (estimate / harden / critical-eps)
    9 deadline exceeded (--deadline-ms expired before completion)

EXAMPLES:
    relogic-cli gen b9 > b9.bench
    relogic-cli analyze b9.bench --eps 0.1
    relogic-cli sweep b9.bench --points 50 --threads 4 > curves.csv
    relogic-cli mc b9.bench --patterns 1000000 --threads 8
    relogic-cli rank b9.bench --top 5
    relogic-cli estimate b9.bench --eps 0.05 --bdd-node-budget 100000
    relogic-cli harden b9.bench --area-budget 2.5 --top 8
    relogic-cli critical-eps b9.bench --threshold 0.2 --metric mean
    relogic-cli convert b9.bench --to dot | dot -Tsvg > b9.svg
    relogic-cli analyze b9.bench --eps 0.1 --json
    relogic-cli serve --unix /tmp/relogic.sock --threads 8
    relogic-cli serve --unix /tmp/relogic.sock --cache-dir /var/cache/relogic
    relogic-cli cache warm b9.bench --cache-dir /var/cache/relogic
    relogic-cli cache verify --cache-dir /var/cache/relogic
";
