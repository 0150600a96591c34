#!/usr/bin/env bash
# Tier-1 gate: plain build + tests, a perf-regression gate over the
# compiled kernel, then the same suite under AddressSanitizer +
# UndefinedBehaviorSanitizer (catches the OOB/UB class of bugs the
# compiled kernel streams could introduce).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== plain build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure

# Every bench gate below tees through this log; the ratchet summary at
# the end greps it to report which bars ran hard vs soft on this machine.
gate_log=build/bench_gate_summary.log
: > "$gate_log"

echo "=== bench gate (compiled kernel ns/delta ratchet) ==="
# Smoke-sized head-to-head: full 100k-variable graph (cache behavior must
# match the committed baseline) but few sweeps, google-benchmarks skipped.
# The fresh JSON lands in build/ and is compared against the committed
# baseline; >15% regression fails. DD_BENCH_GATE_SKIP=1 overrides.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gate skipped (DD_BENCH_GATE_SKIP=1)"
else
  (cd build && DD_BENCH_SWEEPS="${DD_BENCH_SWEEPS:-4}" \
      ./bench/bench_kernels --benchmark_filter='^$')
  python3 ci/bench_gate.py BENCH_kernels.json build/BENCH_kernels.json | tee -a "$gate_log"
fi

echo "=== bench gate (parallel grounding: graph identity + speedup ratchet) ==="
# Serial-vs-parallel grounding over the synthetic + spouse workloads.
# Graph CRC identity across thread counts is enforced unconditionally;
# the speedup ratchet only engages on machines with >= 2 cores (see
# ci/bench_gate.py). Same DD_BENCH_GATE_SKIP / tolerance overrides.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gate skipped (DD_BENCH_GATE_SKIP=1)"
else
  (cd build && ./bench/bench_parallel_grounding)
  python3 ci/bench_gate.py BENCH_grounding.json build/BENCH_grounding.json | tee -a "$gate_log"
fi

echo "=== bench gate (scheduler: recursive strata + phase overlap) ==="
# Recursive-strata grounding CRC identity and overlapped-vs-sequential
# pipeline marginal identity are enforced unconditionally; the speedup
# and overlap-ratio ratchets engage on machines with >= 2 cores (see
# ci/bench_gate.py). Same DD_BENCH_GATE_SKIP / tolerance overrides.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gate skipped (DD_BENCH_GATE_SKIP=1)"
else
  (cd build && ./bench/bench_scheduler)
  python3 ci/bench_gate.py BENCH_scheduler.json build/BENCH_scheduler.json | tee -a "$gate_log"
fi

echo "=== bench gate (storage: scan/load identity + floor ratchets) ==="
# Columnar-vs-row scan agreement and mmap-vs-text graph identity are
# enforced unconditionally; the DESIGN.md §12 performance floors (2x
# scan, 10x load, memory below the row store) gate on any machine since
# they are single-threaded ratios. Same DD_BENCH_GATE_SKIP override.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gate skipped (DD_BENCH_GATE_SKIP=1)"
else
  (cd build && ./bench/bench_storage)
  python3 ci/bench_gate.py BENCH_storage.json build/BENCH_storage.json | tee -a "$gate_log"
fi

echo "=== bench gate (serving: resilience identities + QPS/p99 floors) ==="
# Epoch-swapped snapshot serving under closed-loop load, with and without
# mid-run swaps. The DESIGN.md §13 resilience identities (bitwise
# response consistency, full request accounting, monotone epochs, zero
# drops across swaps) are enforced unconditionally; QPS/p99 have wide
# absolute floors and a warn-only baseline ratchet. Same overrides.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gate skipped (DD_BENCH_GATE_SKIP=1)"
else
  (cd build && ./bench/bench_serving)
  python3 ci/bench_gate.py BENCH_serving.json build/BENCH_serving.json | tee -a "$gate_log"
fi

echo "=== bench gate (streaming: table identity + byte budget + MB/s floor) ==="
# The streaming front end ingesting the logs corpus at 1/2/4/8 workers.
# Table CRC identity against the sequential batch oracle and the
# in-flight byte budget are enforced unconditionally; single-worker MB/s
# has a wide absolute floor, and the multi-worker scaling ratchet
# engages on machines with >= 2 cores (see ci/bench_gate.py). Same
# DD_BENCH_GATE_SKIP / tolerance overrides.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gate skipped (DD_BENCH_GATE_SKIP=1)"
else
  (cd build && ./bench/bench_streaming)
  python3 ci/bench_gate.py BENCH_streaming.json build/BENCH_streaming.json | tee -a "$gate_log"
fi

echo "=== bench gate (distributed: 1-shard identity + inference fidelity) ==="
# Sharded learning + inference across coordinator/worker loopback. The
# DESIGN.md §15 identities are enforced unconditionally: a 1-shard run
# bitwise-matches the single-node sampler, and 2-/4-shard inference over
# a fixed model stays within the 0.05 deviation ceiling (deterministic
# per seed, machine-independent). The shard-speedup ratchet engages on
# machines with >= 2 cores (see ci/bench_gate.py). Same overrides.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gate skipped (DD_BENCH_GATE_SKIP=1)"
else
  (cd build && ./bench/bench_distributed)
  python3 ci/bench_gate.py BENCH_distributed.json build/BENCH_distributed.json | tee -a "$gate_log"
fi

echo "=== bench ratchet summary ==="
if [ -s "$gate_log" ]; then
  echo "bench ratchets:" $(sed -n 's/^bench-gate: ratchet-summary: //p' "$gate_log" | tr '\n' ' ')
else
  echo "bench ratchets: none ran (DD_BENCH_GATE_SKIP=1)"
fi

echo "=== perfbench zero-failure smoke (both workloads, traced) ==="
# Short traced end-to-end runs: exit 0 alone does not pass; the result
# must say "correct": true and "failed": 0 (see the script).
./ci/perfbench_smoke.sh

echo "=== tsan build + concurrency-focused ctest (thread) ==="
# ThreadSanitizer over every test carrying the `concurrency` ctest label
# (declared next to the test in tests/CMakeLists.txt, so a new
# multi-threaded suite is picked up here the moment it is labeled — no
# hand-maintained binary regex to forget).
cmake -B build-tsan -S . -DDD_SANITIZE="thread" >/dev/null
cmake --build build-tsan -j
# ci/tsan.supp masks only the intentionally-racy Hogwild/NUMA samplers.
TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
  ctest --test-dir build-tsan --output-on-failure -L concurrency

echo "=== sanitized build + ctest (address;undefined) ==="
cmake -B build-san -S . -DDD_SANITIZE="address;undefined" >/dev/null
cmake --build build-san -j
# The full sanitized ctest includes the seeded mutation fuzzers (the
# `fuzz` ctest label); an empty label would mean they silently dropped out.
if [ -z "$(ctest --test-dir build-san -N -L fuzz | sed -n 's/^ *Test #[0-9]*: //p')" ]; then
  echo "FAIL: no tests carry the 'fuzz' ctest label"
  exit 1
fi
ctest --test-dir build-san --output-on-failure

echo "=== fault-injection pass ==="
# Enable every registered failpoint at p=1.0 for one hit and run every
# sanitized binary carrying the `failpoints` ctest label. Sites live in
# two places: the named constants in src/util/failpoint.h, and literal
# names registered directly at DD_FAILPOINT(...) call sites in .cc
# files — grep both, so a new site (e.g. the stream.* family) joins the
# sweep the moment it is registered. Injected faults may fail individual
# test expectations (that's the point); what must NOT happen is a crash
# (rc >= 128 means a signal) or a sanitizer report — errors have to
# propagate as clean Status values.
failpoints=$(
  {
    grep -oE '"[a-z_]+\.[a-z_]+"' src/util/failpoint.h
    grep -rhoE 'DD_FAILPOINT(_WRITE)?\("[a-z_]+\.[a-z_]+"' src --include='*.cc' |
      grep -oE '"[a-z_]+\.[a-z_]+"'
  } | tr -d '"' | sort -u
)
if [ -z "$failpoints" ]; then
  echo "FAIL: failpoint discovery grep found no sites"
  exit 1
fi
echo "discovered failpoint sites:" $failpoints
failpoint_tests=$(ctest --test-dir build-san -N -L failpoints |
  sed -n 's/^ *Test #[0-9]*: //p')
if [ -z "$failpoint_tests" ]; then
  echo "FAIL: no tests carry the 'failpoints' ctest label"
  exit 1
fi
echo "failpoint-labeled binaries:" $failpoint_tests
for fp in $failpoints; do
  for test_name in $failpoint_tests; do
    bin="build-san/tests/$test_name"
    echo "--- $fp via $(basename "$bin")"
    set +e
    out=$(DD_FAILPOINTS="$fp=error(p=1,hits=1)" "$bin" 2>&1)
    rc=$?
    set -e
    if [ "$rc" -ge 128 ]; then
      echo "$out" | tail -40
      echo "FAIL: $(basename "$bin") died of a signal (rc=$rc) with failpoint $fp"
      exit 1
    fi
    if echo "$out" | grep -qE "AddressSanitizer|runtime error:"; then
      echo "$out" | grep -E "AddressSanitizer|runtime error:" | head
      echo "FAIL: sanitizer report with failpoint $fp in $(basename "$bin")"
      exit 1
    fi
  done
done
echo "fault-injection pass: no crashes, no sanitizer reports"

echo "ci/check.sh: all green"
