#!/usr/bin/env python3
"""Builds the censysim benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest|serve|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a censysim checkout. The first run configures and
builds the repository's libraries plus the benchmark into .bench_build/
(or $CARGO_TARGET_DIR when set); later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when
every correctness check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "censysim_bench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "censysim_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "serve", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="universe 2^12 instead of 2^18 (smoke tests)")
    args = parser.parse_args()

    # The benchmark builds the program it measures from this checkout.
    for needed in ("CMakeLists.txt", os.path.join("src", "engines", "world.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: no censysim source tree at {ROOT} "
                  f"({needed} missing)", file=sys.stderr)
            return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(os.path.dirname(build_dir()),
                                          "work")]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
