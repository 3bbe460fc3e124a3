#!/usr/bin/env python3
"""Smoke self-test of the perf ledger.

Runs every workload in `--smoke` mode (a few thousand vertices, a few
passes, a short serve phase), untraced and traced, through the same entry
point the benchmark uses, and asserts that each run:

* exits 0 and ends its stdout with the result object
  (`correct`, `attempted`, `failed`, `metrics` and nothing else);
* attempted at least one operation and failed none;
* emits exactly the metrics BENCHMARK.json names for its mode
  (`end_to_end` untraced, `per_layer` traced), each with its unit and a
  finite value.

Run from the repository root: `python3 perfbench/smoke_test.py`.
"""

import json
import math
import subprocess
import sys

WORKLOADS = ("count-skew", "count-uniform", "serve-open")


def expected(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(workload, trace, spec):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr[-3000:]}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: not correct\n{out.stderr[-3000:]}"
    assert result["failed"] == 0, f"{where}: {result['failed']} failed operations"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    want = expected(spec, trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
    assert not missing and not extra, f"{where}: missing {missing}, unexpected {extra}"
    for name, m in result["metrics"].items():
        assert m["unit"] == want[name], f"{where}: {name} unit {m['unit']!r} != {want[name]!r}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name}"
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} operations, 0 failed")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
