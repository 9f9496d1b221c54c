#!/usr/bin/env python3
"""Smoke test for the censysim benchmark at a tiny scale (universe 2^12).

    python3 perfbench/tests/smoke_test.py

Builds the benchmark through perfbench/run.py and checks, for every
workload in BENCHMARK.json:
  * an untraced run prints exactly the end-to-end metrics and a traced run
    exactly the per-layer metrics, all finite, with correct=true and exit 0;
  * the same seed gives the same journal digest after set-up, and another
    seed a different one;
  * a deliberately corrupted answer (--corrupt) makes the correctness
    check fail: exit code non-zero and correct=false.
Exits non-zero on the first failure.
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(binary, workload, seed, trace, extra=()):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny",
               "--work-dir", os.path.join(ROOT, ".bench_build", "smoke")]
    command += list(extra)
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = re.search(r"setup: journal digest ([0-9a-f]+)", proc.stdout)
    return proc.returncode, result, digest.group(1) if digest else None


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    binary = load_runner().build()

    for workload in (w["name"] for w in spec["workloads"]):
        code, result, digest = run(binary, workload, 7, trace=0)
        check(code == 0 and result and result["correct"],
              f"{workload}: untraced run passes its checks")
        check(set(result["metrics"]) == end_to_end,
              f"{workload}: prints every end-to-end metric")
        check(all(math.isfinite(m["value"]) and m["value"] != 0
                  for m in result["metrics"].values()),
              f"{workload}: end-to-end values are finite and non-zero")

        code, result, again = run(binary, workload, 7, trace=1)
        check(code == 0 and result and result["correct"],
              f"{workload}: traced run passes its checks")
        check(set(result["metrics"]) == per_layer,
              f"{workload}: prints every per-layer metric")
        check(digest is not None and digest == again,
              f"{workload}: same seed, same journal digest ({digest})")

        _, _, other = run(binary, workload, 8, trace=0)
        check(other is not None and other != digest,
              f"{workload}: another seed, another journal digest")

        code, result, _ = run(binary, workload, 7, trace=0,
                              extra=("--corrupt",))
        check(code != 0 and result is not None and not result["correct"],
              f"{workload}: a corrupted answer fails the check")
    print("smoke test passed")


if __name__ == "__main__":
    main()
