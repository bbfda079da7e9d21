#!/usr/bin/env python3
"""Harness self-check for the tgcover benchmark.

Runs every workload named in BENCHMARK.json at its tiny size (<= 200 nodes),
untraced and traced. Asserts that the result line has exactly the keys
correct, attempted, failed and metrics, that every check passed, and that
every end-to-end (untraced) or per-layer (traced) metric is printed with the
unit BENCHMARK.json declares. Finishes in about a minute.

    python3 perfbench/selfcheck.py
"""

import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Null only where the benchmark refuses a number: a speedup from a
# single-core run or from a run with more threads than the hardware has.
NULLABLE = {"util.pool_speedup"}


def check_result(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("a correctness check failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted < 1")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        errors.append("metric names differ: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if value is None and m["name"] in NULLABLE:
            continue
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r}")
    if not trace:
        for m in expected:
            value = metrics.get(m["name"], {}).get("value")
            if isinstance(value, (int, float)) and value <= 0:
                errors.append(f"{m['name']}: end-to-end metric is {value}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_result(spec, workload, trace)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
