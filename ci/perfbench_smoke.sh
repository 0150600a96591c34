#!/usr/bin/env bash
# Zero-failure smoke over the end-to-end benchmark: one short traced run
# per workload. A run passes only when perfbench exits 0 and its JSON
# result (the last stdout line) reports "correct": true — epochs
# byte-identical across the pipeline and the per-layer runners, counts
# repeated, served answers equal to their epoch — and "failed": 0, and
# when its serving p99 at the nominal open-loop rate (`serve.p99_ms`) is
# within a 100 ms ceiling. The pipeline learns and samples on its pool
# while the traced runners pass none, so "correct" also says that pooled
# and poolless learning and inference publish the same bytes.
# The first run builds perfbench into .bench_build/ (about a minute).
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in spouse_full logs_stream; do
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 \
             --trace 1 | tail -n 1)
  python3 - "$workload" "$result" <<'PY'
import json
import sys

workload, line = sys.argv[1], sys.argv[2]
try:
    result = json.loads(line)
except ValueError:
    sys.exit(f"FAIL: perfbench {workload} printed no JSON result")
p99_ms = result["metrics"]["serve.p99_ms"]["value"]
print(f"perfbench {workload}: correct={result['correct']} "
      f"attempted={result['attempted']} failed={result['failed']} "
      f"serve.p99_ms={p99_ms:.3f}")
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"FAIL: perfbench {workload} is not correct or failed operations")
if not 0 <= p99_ms <= 100:
    sys.exit(f"FAIL: perfbench {workload} serve.p99_ms {p99_ms:.3f} is past 100 ms")
PY
done
