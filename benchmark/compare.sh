#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# Applies the bounds in BENCHMARK.json to two result files written by
# benchmark/run.sh (A is the base, B the candidate) and prints one row per
# (metric, workload): within / WORSE / better / unresolved, each ratio with
# its base. Exits 1 if any pair is worse.
set -euo pipefail
if [ "$#" -ne 2 ]; then
    echo "usage: benchmark/compare.sh A.json B.json" >&2
    exit 2
fi
a="$(realpath "$1")"
b="$(realpath "$2")"
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --compare "$a" "$b"
