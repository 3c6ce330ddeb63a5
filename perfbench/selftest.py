#!/usr/bin/env python3
"""Tiny-scale self-test of the REVERE benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and for union_165k, which is run
by hand, runs the benchmark at tiny scale
(small inputs, one-second windows) untraced and traced, and asserts that
the result line has exactly the contract's keys and every metric
BENCHMARK.json names, with its unit. Then runs each workload with one
answer deliberately corrupted and asserts the answer checks catch it:
"correct" is false, "failed" is at least 1, and the exit code is not 0.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Workloads revere_perfbench runs that BENCHMARK.json leaves out.
BY_HAND = ["union_165k"]


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name in [w["name"] for w in spec["workloads"]] + BY_HAND:
        for trace in (0, 1):
            code, result = run(name, trace)
            label = f"{name} trace={trace}"
            check(code == 0 and result is not None, f"{label}: exits 0 with a result")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result has exactly the contract's keys")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: answers correct, nothing failed")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{label}: attempted is a whole number >= 1")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{label}: every named metric emitted with its unit")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()),
                  f"{label}: every metric value is a number")
        code, result = run(name, 0, "--corrupt")
        check(code != 0 and result is not None and result["correct"] is False
              and result["failed"] >= 1,
              f"{name}: a corrupted answer is caught")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
