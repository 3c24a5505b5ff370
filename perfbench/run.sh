#!/usr/bin/env bash
# Builds the released `dvfs` binary and the benchmark from source, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout. CARGO_TARGET_DIR (default .bench_build) holds both builds.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "run.sh: run from the repository root" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin dvfs >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
PERFBENCH_DVFS="$CARGO_TARGET_DIR/release/dvfs" exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
