#!/usr/bin/env bash
# Builds the `repro` server binary and the benchmark from source,
# then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own output goes to stderr, so the last
# line on stdout is always the benchmark's JSON result.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p hmdiv-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/hmdiv-perfbench" --repro "$target/release/repro" "$@"
