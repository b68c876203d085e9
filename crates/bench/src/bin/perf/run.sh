#!/usr/bin/env bash
# Builds relogic-cli and the benchmark from source, then runs one workload.
# Run from the repository root:
#
#   bash crates/bench/src/bin/perf/run.sh --workload cli --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the run's
# JSON result. Both builds share one target directory (CARGO_TARGET_DIR,
# default .bench_build), so the benchmark finds relogic-cli beside itself.
# The benchmark runs as a child rather than through `exec`: it reads its
# children's peak memory, and an exec'd process would inherit the
# compilers' peak from this shell.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p relogic-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
"$CARGO_TARGET_DIR/release/perf" "$@"
