#!/usr/bin/env bash
# Builds the benchmark and the session server from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload elect-annulus --seed 7 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line on stdout is the result object.
set -euo pipefail
root="$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p pm-server --bin pm-scenarios >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/pm-scenarios" "$@"
