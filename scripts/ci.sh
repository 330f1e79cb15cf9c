#!/usr/bin/env bash
# CI lanes.
#
#   scripts/ci.sh          tier-1: the full pytest suite (unit +
#                          property + golden + figure benches)
#                          including the perf smoke
#   scripts/ci.sh --fast   fast lane: everything not marked `slow`
#                          (unit/integration/scenario/orchestration
#                          tests, including the fast subset of the
#                          golden decode suite — tests/decode_oracle.py
#                          cases run by tests/test_serving_fusion.py
#                          and tests/test_serving_vectorize.py — and
#                          the cluster goldens checked at every shard
#                          count, transport and intake by
#                          tests/test_serving_sharding.py), plus a
#                          2-worker `repro matrix` smoke cell;
#                          targets < 60 s
#
# Each lane's pytest runs under `timeout` (15 min fast, 60 min full):
# a wedged shard gather fails the lane instead of holding the runner
# for the gather's own 600 s ceiling in every test that hits it.
#
# Running the suite must not change a tracked file: the state of the
# tracked tree (`git status --porcelain --untracked-files=no` plus a
# checksum of `git diff HEAD`) is snapshotted before each pytest lane
# and the lane fails if it differs afterwards.  Benchmark harnesses
# write their artifacts to the git-ignored benchmarks/out/.
#
# The perf wall-clock gate is relaxed in both lanes so slow/loaded
# runners cannot fail a bit-identical build (the deterministic
# call-count gate still protects perf regressions).
#
# Run directly or via `repro selftest [--fast]`.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_PERF_NO_WALL_GATE=1
FAST_TIMEOUT=15m
FULL_TIMEOUT=60m

tracked_state() {
  # Empty outside a git checkout (e.g. an unpacked archive): nothing
  # to compare, so the check passes vacuously.
  git status --porcelain --untracked-files=no 2>/dev/null || true
  git diff --no-ext-diff HEAD 2>/dev/null | cksum || true
}

# Run one pytest lane under its timeout; fail it if it changed the
# tracked tree.
run_pytest_lane() {
  local limit="$1"
  shift
  local before after lane_rc=0
  before="$(tracked_state)"
  timeout --kill-after=30s "$limit" python -m pytest "$@" || lane_rc=$?
  after="$(tracked_state)"
  if [[ "$before" != "$after" ]]; then
    echo "== pytest changed tracked files (git status before/after): ==" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    [[ "$lane_rc" -ne 0 ]] || lane_rc=1
  fi
  return "$lane_rc"
}

# Capture pytest's status explicitly and exit with it: `set -e` must
# not be able to swallow or reinterpret the suite's result, no matter
# what trailing steps are added after this block.
rc=0
if [[ "$FAST" -eq 1 ]]; then
  echo "== fast lane: pytest -m 'not slow' (incl. golden decode and cluster suites) =="
  run_pytest_lane "$FAST_TIMEOUT" -x -q -m "not slow" || rc=$?
  if [[ "$rc" -eq 0 ]]; then
    # Orchestrator smoke: one tiny scenario cell across 2 worker
    # processes, uncached, so a broken pool/pickling path fails fast.
    echo "== fast lane: repro matrix --jobs 2 smoke cell =="
    python -m repro.cli matrix table1-rtx4090-a \
      --jobs 2 --scale 0.1 --seeds 0 --no-cache || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Sharded-cluster smoke: one cluster scenario split across 2 shard
    # worker processes, so a broken shard transport/protocol fails fast.
    echo "== fast lane: repro run --shards 2 smoke =="
    python -m repro.cli run cluster-burst-4x --shards 2 --scale 0.1 || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Catalogue smoke: the long listing renders every ScenarioSpec.doc,
    # so a scenario registered without docs (or a rendering bug) fails
    # fast; the link checker keeps README/docs cross-references honest.
    echo "== fast lane: repro list-scenarios --long + markdown links =="
    python -m repro.cli list-scenarios --long > /dev/null || rc=$?
    if [[ "$rc" -eq 0 ]]; then
      python scripts/check_markdown_links.py || rc=$?
    fi
  fi
else
  echo "== tier-1: full suite (tests/ + benchmarks/, incl. perf smoke) =="
  run_pytest_lane "$FULL_TIMEOUT" -x -q || rc=$?
fi

if [[ "$rc" -ne 0 ]]; then
  # 124: the lane's timeout fired (137 if it had to kill).
  echo "== CI lane FAILED (exit $rc) =="
  exit "$rc"
fi
echo "== CI lane OK =="
