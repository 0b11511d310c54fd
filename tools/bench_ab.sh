#!/usr/bin/env bash
# A/B runner for a performance claim: alternating pairs of parent and change
# over the repo's benchmark (ROADMAP item 1's `ab.sh`).
#
#   tools/bench_ab.sh PARENT_REF CHANGE_REF [--workload W] [--pairs N] [--seconds S]
#
# Each ref is exported (git archive) into a directory of its own with its own
# CARGO_TARGET_DIR, so both sides are built from committed files only and
# neither sees the other's build. Every pair runs the checkout's own,
# unmodified `benchmark/run.sh --workload W --trace 0` once per side with a
# seed not used by any other pair; odd pairs run the parent first, even pairs
# the change. For each of the six end-to-end metrics it prints each side's
# median and quartiles, the ratio of the medians (change / parent) and how
# many pairs the change won (ties count for neither).
#
# Two work rows follow the six: minflt_per_op and cpu_ms_per_op, the minor
# faults and user + system CPU time of everything the run reaped (this
# shell's own /proc/$$/stat fields 11, 16 and 17: cminflt, cutime, cstime,
# read around each run) over the run's "attempted" op count. They include
# the run's set-up and the no-op `cargo build` inside run.sh, which adds
# about 2.3k faults and 30-40 ms per run: under 1% of a 15 s dense_large
# run's CPU time and about 1% of its faults.
#
#   --workload W   one workload (default: every workload in BENCHMARK.json)
#   --pairs N      pairs per workload (default 10)
#   --seconds S    measuring time of one run (default: the benchmark's own)
#
# Checkouts and builds are kept under target/bench_ab/ (or $BENCH_AB_WORK)
# and reused when the same commit is measured again.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
  sed -n '2,29p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent_ref="$1"
change_ref="$2"
shift 2
only="" pairs=10 seconds=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) only="${2:-}" ;;
    --pairs) pairs="${2:-}" ;;
    --seconds) seconds="${2:-}" ;;
    *) usage ;;
  esac
  [ $# -ge 2 ] || usage
  shift 2
done
case "$pairs" in '' | *[!0-9]* | 0) echo "--pairs must be a positive integer" >&2; exit 2 ;; esac

work="${BENCH_AB_WORK:-$root/target/bench_ab}"
mkdir -p "$work"

# checkout SIDE REF -> prints the directory holding REF's committed files.
checkout() {
  local side="$1" sha dir
  sha="$(git rev-parse --verify --quiet "$2^{commit}")" || { echo "unknown ref: $2" >&2; exit 2; }
  dir="$work/$side-$sha"
  if [ ! -d "$dir" ]; then
    rm -rf "$work/$side"-*
    mkdir -p "$dir.partial"
    git archive "$sha" | tar -x -C "$dir.partial"
    mv "$dir.partial" "$dir"
  fi
  echo "$dir"
}
parent_dir="$(checkout parent "$parent_ref")"
change_dir="$(checkout change "$change_ref")"
# Build both sides up front, as run.sh would, so no run's work rows hold a
# compile.
for dir in "$parent_dir" "$change_dir"; do
  (cd "$dir" && CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

if [ -n "$only" ]; then
  workloads="$only"
else
  workloads="$(sed -n '/"workloads"/,/"end_to_end"/p' "$change_dir/BENCHMARK.json" |
    grep -o '"name": *"[^"]*"' | cut -d'"' -f4)"
fi
metrics="$(sed -n '/"end_to_end"/,/"per_layer"/p' "$change_dir/BENCHMARK.json" |
  grep -o '"name": *"[^"]*"' | cut -d'"' -f4)"
work_metrics="minflt_per_op cpu_ms_per_op"
ticks_per_s="$(getconf CLK_TCK)"

data="$work/data"
rm -rf "$data"
mkdir -p "$data"

# reaped VAR: sets VAR to "<minor faults> <CPU ticks>" of every child this
# shell has reaped so far (builtins only, so reading forks nothing).
reaped() {
  local line f
  read -r line </proc/$$/stat
  # Fields from 3 on; the command name before them may hold spaces.
  read -r -a f <<<"${line##*) }"
  printf -v "$1" '%s %s' "${f[8]}" "$((f[13] + f[14]))"
}

# one_run SIDE DIR WORKLOAD SEED: appends each end-to-end metric's value and
# the run's work per op to $data/WORKLOAD.METRIC.SIDE, and each metric's
# direction to $data/METRIC.better.
one_run() {
  local side="$1" dir="$2" w="$3" seed="$4" out before after attempted
  local args=(--workload "$w" --seed "$seed" --trace 0)
  [ -z "$seconds" ] || args+=(--seconds "$seconds")
  reaped before
  out="$(bash "$dir/benchmark/run.sh" "${args[@]}" 2>"$data/$side.stderr")" || {
    echo "$side ($dir): benchmark/run.sh ${args[*]} failed" >&2
    tail -20 "$data/$side.stderr" >&2
    exit 1
  }
  reaped after
  for m in $metrics; do
    # "<workload> <metric> <value> <unit> (<lower|higher> is better)"
    echo "$out" | awk -v w="$w" -v m="$m" '$1 == w && $2 == m { print $3 }' >>"$data/$w.$m.$side"
    echo "$out" | awk -v w="$w" -v m="$m" '$1 == w && $2 == m { print substr($5, 2) }' >"$data/$m.better"
  done
  attempted="$(echo "$out" | tail -1 | grep -o '"attempted": *[0-9]*' | grep -o '[0-9]*$')"
  [ "${attempted:-0}" -gt 0 ] || { echo "$side: no \"attempted\" count in the result" >&2; exit 1; }
  echo "$before $after" | awk -v n="$attempted" -v hz="$ticks_per_s" -v f="$data/$w" -v s="$side" '{
    printf "%.10g\n", ($3 - $1) / n >>(f ".minflt_per_op." s)
    printf "%.10g\n", ($4 - $2) * 1000 / hz / n >>(f ".cpu_ms_per_op." s)
  }'
  for m in $work_metrics; do echo lower >"$data/$m.better"; done
}

# Seeds start from the clock, so no two invocations share one either.
seed_base=$(($(date +%s) % 1000000 * 1000))
echo "parent $parent_ref -> $parent_dir"
echo "change $change_ref -> $change_dir"
echo "pairs $pairs, seeds from $((seed_base + 1)), $(nproc) cpus, load $(cut -d' ' -f1-3 /proc/loadavg)"
for w in $workloads; do
  for i in $(seq 1 "$pairs"); do
    seed=$((seed_base + i))
    if [ $((i % 2)) -eq 1 ]; then
      one_run parent "$parent_dir" "$w" "$seed"
      one_run change "$change_dir" "$w" "$seed"
    else
      one_run change "$change_dir" "$w" "$seed"
      one_run parent "$parent_dir" "$w" "$seed"
    fi
    echo "  $w: pair $i/$pairs done (seed $seed)" >&2
  done
  seed_base=$((seed_base + pairs))
done

# quartiles FILE -> "median q1 q3" (linear interpolation between ranks).
quartiles() {
  sort -g "$1" | awk '
    { v[NR] = $1 }
    function q(p,   pos, lo, frac) {
      pos = 1 + (NR - 1) * p; lo = int(pos); frac = pos - lo
      return lo >= NR ? v[NR] : v[lo] + frac * (v[lo + 1] - v[lo])
    }
    END { printf "%.10g %.10g %.10g", q(0.5), q(0.25), q(0.75) }'
}

printf '\n%-15s %-18s %-34s %-34s %-8s %s\n' workload metric \
  "parent median [q1, q3]" "change median [q1, q3]" ratio "change wins"
for w in $workloads; do
  for m in $metrics $work_metrics; do
    p="$data/$w.$m.parent" c="$data/$w.$m.change"
    [ -s "$p" ] && [ -s "$c" ] || { echo "$w $m: no samples" >&2; exit 1; }
    read -r pm p1 p3 <<<"$(quartiles "$p")"
    read -r cm c1 c3 <<<"$(quartiles "$c")"
    wins="$(paste "$p" "$c" | awk -v better="$(cat "$data/$m.better")" '
      { if (better == "lower" ? $2 < $1 : $2 > $1) w++ }
      END { printf "%d/%d", w, NR }')"
    ratio="$(awk -v p="$pm" -v c="$cm" 'BEGIN { if (p == 0) print "-"; else printf "%.3f", c / p }')"
    printf '%-15s %-18s %-34s %-34s %-8s %s\n' "$w" "$m" \
      "$pm [$p1, $p3]" "$cm [$c1, $c3]" "$ratio" "$wins"
  done
done
