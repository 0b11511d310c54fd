#!/usr/bin/env bash
# Tiered CI driver — one command from a clean checkout, fully offline.
#
#   tier 1  hermeticity + build + full test suite, warnings denied
#           (tools/check_hermetic.sh under RUSTFLAGS="-D warnings";
#           check_hermetic's own steps 4-9 cover the chaos gate, trace
#           export, the self-asserting `figures` id, the 3-process
#           launch_cluster smoke, the chaos_cluster kill-plan smoke and
#           the paper-parity eval smoke), the workspace rustdoc build with
#           warnings denied (broken intra-doc links fail it), clippy over all
#           targets with warnings denied, a check that no runtime crate
#           depends on the model crate (sparker-tuner), plus the BENCH_10.json
#           guard (tools/bench_trend.sh)
#   tier 2  chaos + property suites, each under an explicit wall-clock
#           bound (a timeout means a fault path regressed into a hang);
#           the paper_eval tests here include the full-scale sweep that
#           tier 1's debug-build workspace run leaves #[ignore]d
#   tier 3  the runners in --smoke shape as their own timed steps
#           (figures, launch_cluster, paper_eval), and one pair of the
#           A/B runner (tools/bench_ab.sh) on HEAD against itself
#
# Usage: tools/ci.sh [--tier N]
#   --tier N   run only tier N's steps (1, 2 or 3) — lets paper_eval and
#              friends be timed in isolation and future tooling diff CI
#              wall-clock per tier across PRs.
#
# Every step's wall-clock is recorded and printed as a summary at the end,
# and the same data is written machine-readably to results/ci_summary.json
# — ALWAYS, even when a step fails, so CI output is diagnosable without a
# rerun. Schema:
#
#   {
#     "ci": "tools/ci.sh",
#     "tier_filter": "all" | "1" | "2" | "3",
#     "steps": [
#       {"tier": N, "name": "...", "seconds": S, "status": "ok"}
#       // status: "ok" | "FAILED" | "skipped" (after the first failure);
#       // "seconds" is 0 for skipped steps.
#     ],
#     "failed_tier": "",   // first failing tier, "" when green
#     "failed_step": "",   // first failing step name, "" when green
#     "passed": true
#   }
#
# On failure the script exits non-zero naming the first failed tier/step.
set -uo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

tier_filter="all"
if [ "${1:-}" = "--tier" ]; then
  case "${2:-}" in
    1|2|3) tier_filter="$2" ;;
    *) echo "usage: tools/ci.sh [--tier N] (N in 1..3)" >&2; exit 2 ;;
  esac
fi

steps=()       # "tier<TAB>name<TAB>seconds<TAB>status"
failed_tier=""
failed_step=""

# run <tier> <name> <cmd...> — times the command; on failure records the
# first failing tier/step and skips every later step. With --tier N, steps
# of other tiers are silently omitted.
run() {
  local tier="$1" name="$2"
  shift 2
  if [ "$tier_filter" != "all" ] && [ "$tier" != "$tier_filter" ]; then
    return
  fi
  if [ -n "$failed_tier" ]; then
    steps+=("$tier	$name	0	skipped")
    return
  fi
  echo "==> [tier $tier] $name"
  local t0 t1 status
  t0=$(date +%s)
  if "$@"; then
    status=ok
  else
    status=FAILED
    failed_tier="$tier"
    failed_step="$name"
  fi
  t1=$(date +%s)
  steps+=("$tier	$name	$((t1 - t0))	$status")
}

# Prints the human summary and writes results/ci_summary.json. Runs on
# every exit path (trap), so a tier-1 failure still leaves the parsed
# summary and the JSON artifact behind.
emit_summary() {
  echo
  echo "tier  step                wall   status"
  echo "---------------------------------------"
  local s tier name secs status
  for s in "${steps[@]}"; do
    IFS='	' read -r tier name secs status <<<"$s"
    printf "%-5s %-19s %-6s %s\n" "$tier" "$name" "${secs}s" "$status"
  done

  mkdir -p results
  {
    printf '{\n  "ci": "tools/ci.sh",\n  "tier_filter": "%s",\n  "steps": [' "$tier_filter"
    local first=1
    for s in "${steps[@]}"; do
      IFS='	' read -r tier name secs status <<<"$s"
      [ "$first" = 1 ] || printf ','
      first=0
      printf '\n    {"tier": %s, "name": "%s", "seconds": %s, "status": "%s"}' \
        "$tier" "$name" "$secs" "$status"
    done
    printf '\n  ],\n  "failed_tier": "%s",\n  "failed_step": "%s",\n  "passed": %s\n}\n' \
      "$failed_tier" "$failed_step" "$([ -z "$failed_tier" ] && echo true || echo false)"
  } > results/ci_summary.json
  echo
  echo "wrote results/ci_summary.json"
}
trap emit_summary EXIT

# --- tier 1: hermetic build + tests, warnings denied ---------------------
RUSTFLAGS="-D warnings" run 1 "check_hermetic" tools/check_hermetic.sh
RUSTDOCFLAGS="-D warnings" run 1 "rustdoc" cargo doc --workspace --no-deps --offline
# Clippy over every target, warnings denied: a lint is fixed or allowed in
# place with a reason.
run 1 "clippy"             cargo clippy --workspace --all-targets --offline -- -D warnings
# The runtime never depends on the model crate: no runtime crate's normal
# dependency tree may contain sparker-tuner.
runtime_free_of_model() {
  local crate tree hits status=0
  for crate in sparker-net sparker-collectives sparker-sparse sparker-engine \
               sparker-sched sparker-ml sparker; do
    tree=$(cargo tree --offline -e normal --prefix none -p "$crate") || return 1
    hits=$(grep -c '^sparker-tuner ' <<<"$tree")
    if [ "$hits" != 0 ]; then
      echo "$crate depends on sparker-tuner ($hits hits)" >&2
      status=1
    fi
  done
  return $status
}
run 1 "runtime_deps"       runtime_free_of_model
run 1 "bench_trend"        tools/bench_trend.sh

# --- tier 2: chaos + property suites under timeouts ----------------------
run 2 "chaos_collectives"  timeout 180 cargo test -q --offline -p sparker-repro --test chaos_collectives
run 2 "fault_tolerance"    timeout 180 cargo test -q --offline -p sparker-repro --test fault_tolerance
run 2 "borrowed_aggregation" timeout 180 cargo test -q --offline -p sparker-repro --test borrowed_aggregation
run 2 "prop_payload"       timeout 180 cargo test -q --offline -p sparker-repro --test prop_payload
run 2 "prop_pool"          timeout 180 cargo test -q --offline -p sparker-repro --test prop_pool
run 2 "prop_collectives"   timeout 180 cargo test -q --offline -p sparker-repro --test prop_collectives
run 2 "prop_sparse"        timeout 180 cargo test -q --offline -p sparker-repro --test prop_sparse
run 2 "sparse_aggregation" timeout 180 cargo test -q --offline -p sparker-repro --test sparse_aggregation
run 2 "aggregation_equivalence" timeout 180 cargo test -q --offline -p sparker-repro --test aggregation_equivalence
run 2 "prop_ml"            timeout 180 cargo test -q --offline -p sparker-repro --test prop_ml
run 2 "prop_tcp_frames"    timeout 180 cargo test -q --offline -p sparker-repro --test prop_tcp_frames
run 2 "tcp_reconnect"      timeout 180 cargo test -q --offline -p sparker-repro --test tcp_reconnect
run 2 "prop_sched"         timeout 180 cargo test -q --offline -p sparker-repro --test prop_sched
run 2 "prop_tuner"         timeout 180 cargo test -q --offline -p sparker-repro --test prop_tuner
run 2 "chaos_cluster"      timeout 180 cargo run -q --offline --release -p sparker-bench --bin chaos_cluster -- --smoke
run 2 "paper_eval_tests"   timeout 180 cargo test -q --offline -p sparker-repro --test paper_eval -- --include-ignored

# --- tier 3: runner smokes, timed on their own ---------------------------
run 3 "figures"            timeout 180 cargo run -q --offline --release -p sparker-bench --bin figures -- --smoke sparse_density
run 3 "launch_cluster"     timeout 180 cargo run -q --offline --release -p sparker-bench --bin launch_cluster -- --smoke
run 3 "paper_eval"         timeout 180 cargo run -q --offline --release -p sparker-repro --bin paper_eval -- --smoke
# Two checkouts, two cold release builds of the benchmark crate: minutes, not seconds.
run 3 "bench_ab"           timeout 900 tools/bench_ab.sh HEAD HEAD --workload small_jobs --pairs 1 --seconds 2

# --- summary (also emitted by the EXIT trap as results/ci_summary.json) --
if [ -n "$failed_tier" ]; then
  echo
  echo "CI FAILED at tier $failed_tier (step: $failed_step)"
  exit 1
fi
echo
echo "CI passed: all selected tiers green, fully offline"
