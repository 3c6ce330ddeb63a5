#!/usr/bin/env python3
"""REVERE benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library from this checkout's src/) into $CARGO_TARGET_DIR or .bench_build,
then runs one workload. The driver's stdout is passed through; its last line
is the JSON result. Build output goes to stderr. Exits non-zero, printing no
result, when the build fails; a run whose answers are wrong prints its
result ("correct": false) and exits 1.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "revere_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.exit(f"perfbench: cannot run {step[0]}: {err}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out / "revere_perfbench"


def main() -> int:
    binary = build()
    try:
        done = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    # A run whose answer checks failed still prints its result line
    # ("correct": false) and exits non-zero.
    sys.stdout.write(done.stdout)
    return done.returncode if done.stdout else 1


if __name__ == "__main__":
    sys.exit(main())
