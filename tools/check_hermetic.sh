#!/usr/bin/env bash
# Hermeticity gate: the workspace must build and test with zero network
# access and zero external crates. Run from anywhere; part of tier-1 verify
# (see README.md / DESIGN.md "Dependencies").
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# 1. Manifest audit — every dependency in every workspace manifest must be
#    an in-repo path dependency, either directly (`path = ...`) or through
#    `[workspace.dependencies]` (`workspace = true`, which the root maps to
#    paths). Anything else is a registry/git dep and breaks offline builds.
for manifest in Cargo.toml crates/*/Cargo.toml; do
  bad=$(awk '
    /^\[/ { in_deps = ($0 ~ /dependencies(\]|\.)/) ; next }
    in_deps && NF && $0 !~ /^[[:space:]]*#/ {
      if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/)
        print
    }
  ' "$manifest")
  if [ -n "$bad" ]; then
    echo "ERROR: non-path dependency in $manifest:"
    echo "$bad" | sed 's/^/    /'
    fail=1
  fi
done

# 2. Lockfile audit — no package may resolve to a registry or git source.
#    Name the offending packages (a bare source URL is useless for fixing).
if [ -f Cargo.lock ]; then
  offenders=$(awk '/^name = /{n=$3} /^source = /{print n " <- " $0}' Cargo.lock | sort -u)
  if [ -n "$offenders" ]; then
    echo "ERROR: Cargo.lock resolves these packages from a registry/git source:"
    echo "$offenders" | sed 's/^/    /'
    echo "    remediation: replace each with an in-repo path dependency" \
         "(path = \"crates/<name>\" or a [workspace.dependencies] entry)," \
         "then run 'cargo build --offline' to regenerate Cargo.lock."
    fail=1
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "hermeticity audit FAILED (fix the manifests before building)"
  exit 1
fi

# 3. The tier-1 commands themselves, forced offline. CARGO_NET_OFFLINE
#    belt-and-braces the --offline flags so nothing can reach a registry
#    even through a config override.
export CARGO_NET_OFFLINE=true
cargo build --release --offline
cargo test -q --offline --workspace
#    The benchmark crate (benchmark/, BENCHMARK.json) is a package of its own
#    that the workspace commands above never see; it measures every PR
#    through the workspace's public API, so an API change that breaks it must
#    fail here, not in the benchmark run. Same target dir as benchmark/run.sh.
(cd benchmark && export CARGO_TARGET_DIR=../target &&
  cargo build --release --offline && cargo test -q --offline)

# Deadline-bounded smoke runner for steps 4-9: all of them are "run this
# cargo invocation offline, fail the gate on non-zero or on a hang".
smoke() {
  local sub="$1"
  shift
  timeout 120 cargo "$sub" -q --offline "$@"
}

# 4. Chaos gate — the transport-fault-injection suite, run explicitly and
#    under a wall-clock bound. Its seeds are fixed (deterministic, offline);
#    every wait in the collectives is deadline-bounded, so a timeout here
#    means a fault path regressed into a hang.
smoke test -p sparker-repro --test chaos_collectives

# 5. Trace-export smoke — runs a traced training run, exports Chrome trace
#    JSON, re-parses it with the in-repo parser, and checks every span-layer
#    emitted (the example exits non-zero if any check fails). Still fully
#    offline: sparker-obs is std-only and the export lands under results/.
smoke run --release --example trace_run

# 6. Figures smoke — the one self-asserting `figures` id, the density
#    ablation in --smoke shape (small dim, densities 100% and 1%): all
#    segment representations numerically equal, sparse/adaptive >=5x fewer
#    wire bytes than dense at 1% density, and adaptive no worse than dense
#    (plus per-segment header) at 100%. Building it compiles every other
#    id. Wall-clock cost is benchmark/run.sh's question (built and
#    unit-tested in step 3), not this gate's.
smoke run --release -p sparker-bench --bin figures -- --smoke sparse_density

# 7. Multi-process smoke — launch_cluster spawns 3 real executor OS
#    processes over localhost TCP and runs the full splitAggregate matrix
#    (dense, sparse, injected-failure retry, executor kill → survivor
#    ring re-formation), asserting every answer bit-exact against the oracle. A
#    timeout here means the socket transport or the recovery path hangs.
smoke run --release -p sparker-bench --bin launch_cluster -- --smoke

# 8. OS-level chaos smoke — chaos_cluster spawns 4 executor processes and
#    SIGKILLs one mid-collective (--plan kill): the survivors must detect
#    the death by heartbeat/reset, the driver must publish a new membership
#    view, and the retry must re-form the ring over the survivors (never
#    the tree fallback) and still match the oracle bit-for-bit. Its own
#    watchdog exits 86 on a hang, under this step's timeout regardless.
smoke run --release -p sparker-bench --bin chaos_cluster -- --plan kill

# 9. Paper-parity eval smoke — paper_eval in --smoke shape (reduced
#    24-executor/96-core cluster, 3 workloads, shortened ladders): replays
#    the paper's headline experiments plus the elastic DES scenarios and
#    checks every named bound at smoke thresholds, writing
#    results/paper_eval.json (the full-shape BENCH_10.json is only written
#    by the full run). Deterministic and DES-only, so it adds seconds, not
#    minutes; a timeout means the sweep or a bound check regressed.
smoke run --release -p sparker-repro --bin paper_eval -- --smoke

echo "hermetic check passed: built and tested fully offline, path-only deps"
