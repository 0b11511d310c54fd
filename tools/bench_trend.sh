#!/usr/bin/env bash
# BENCH_10.json guard — CI tier 1 (wired into tools/ci.sh).
#
# Runs the in-tree `bench_trend` binary over the repo-root BENCH_10.json
# (the committed full-shape `paper_eval` run):
#   - it must parse with the in-tree JSON parser (crates/obs) and carry
#     the paper_eval family's required top-level keys,
#   - it must be a full-shape run with zero failed bounds, and — when a
#     committed previous version exists — its headline metrics must not
#     regress beyond the stated margin.
#
# The baseline for the trend check is the last committed BENCH_10.json
# (`git show HEAD:BENCH_10.json`), so a working-tree regeneration is
# always compared against what the previous PR shipped. Outside a git
# checkout (or before BENCH_10 was first committed) the trend check is
# skipped and only schema validation runs.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

if [ ! -e BENCH_10.json ]; then
  echo "bench_trend.sh: no BENCH_10.json at repo root" >&2
  exit 1
fi

cargo build -q --offline --release -p sparker-bench --bin bench_trend

baseline_args=()
tmp_baseline=""
if git rev-parse --verify -q HEAD >/dev/null 2>&1 \
   && git cat-file -e HEAD:BENCH_10.json 2>/dev/null; then
  tmp_baseline="$(mktemp)"
  trap 'rm -f "$tmp_baseline"' EXIT
  git show HEAD:BENCH_10.json > "$tmp_baseline"
  baseline_args=(--baseline "$tmp_baseline")
else
  echo "bench_trend.sh: no committed BENCH_10.json baseline; schema checks only"
fi

./target/release/bench_trend "${baseline_args[@]}" BENCH_10.json
