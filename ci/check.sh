#!/usr/bin/env bash
# Tier-1 gate: plain build + tests, the bench gates, the perfbench smoke,
# then the concurrency tests under ThreadSanitizer and the whole suite
# under AddressSanitizer + UndefinedBehaviorSanitizer (catches the OOB/UB
# class of bugs the compiled kernel streams could introduce).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== plain build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure

echo "=== bench gates (every committed BENCH_*.json) ==="
# Each committed baseline names the binary that writes it ("bench"); the
# fresh file lands in build/ and ci/bench_gate.py compares the two, so
# adding a bench means committing its baseline. The google-benchmark
# binaries skip their microbenchmarks under the filter; the others take
# no arguments. DD_BENCH_GATE_SKIP=1 skips the section on a loaded machine.
if [ "${DD_BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench gates skipped (DD_BENCH_GATE_SKIP=1)"
else
  for baseline in BENCH_*.json; do
    bench=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["bench"])' "$baseline")
    (cd build && "./bench/$bench" --benchmark_filter='^$')
    python3 ci/bench_gate.py "$baseline" "build/$baseline"
  done
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
