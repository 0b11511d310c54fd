#!/usr/bin/env bash
# Builds the benchmark crate and runs it. From anywhere:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--runs R]
#       every workload (or the one named): an untraced pass for the
#       end-to-end metrics, then a traced pass for the per-layer ones;
#       writes benchmark/out/results.json and benchmark/out/trace-<workload>.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of standard output is the
#       result object BENCHMARK.json describes
#
# The build goes to $CARGO_TARGET_DIR (relative paths are taken from the repo
# root), by default the repo's own target/ so the workspace crates are shared
# with a root build. Nothing is fetched: the crate has path dependencies only.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sparker-benchmark" "$@"
