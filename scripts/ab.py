#!/usr/bin/env python3
"""Same-session A/B of the working tree against a base rev on perfbench.

    scripts/ab.py BASE [WORKLOAD...]

Extracts BASE into .bench_base/ (kept while BASE resolves to the same
commit), builds the base and the working tree, then runs 10 pairs of every
workload (default: all of BENCHMARK.json's) with perfbench/run.py at the
benchmark's run length, untraced. Both sides of a pair share one seed;
which side runs first alternates.

For each end-to-end metric it prints each side's median and quartiles,
the base's spread (IQR / median: the A/A noise), the pairs the change
won, and one verdict:
  gain        the change won >= 9/10 of the pairs and its median is better
              by more than the base's IQR;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's spread exceeds the bound and the runs overlap
              (not every change run beats every base run);
  same        otherwise.
Exits 1 on any `worse` verdict and on any run that is incorrect, fails an
operation or prints no result.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_DIR = os.path.join(ROOT, ".bench_base")
PAIRS = 10
FIRST_SEED = 101


def quartiles(xs):
    """(q1, median, q3) of a sample."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def verdict(base, change, better, bound):
    """(verdict, wins, base spread) for paired runs: base[i] and change[i]
    ran as one pair. Ties count for neither side."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    gained = sign * (statistics.median(change) - base_median)
    spread = (q3 - q1) / abs(base_median) if base_median else 0.0
    separated = min(sign * c for c in change) > max(sign * b for b in base)
    if wins >= 0.9 * len(base) and gained > q3 - q1:
        return "gain", wins, spread
    if -gained > bound * abs(base_median):
        return "worse", wins, spread
    if spread > bound and not separated:
        return "unresolved", wins, spread
    return "same", wins, spread


def run_ok(result):
    return (result is not None and result["correct"]
            and result["failed"] == 0)


def exit_code(verdicts, runs):
    """1 on any `worse` verdict or any run that is not ok, else 0."""
    return int("worse" in verdicts or not all(map(run_ok, runs)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev):
    """Extracts `rev` into .bench_base/ unless it already holds it."""
    marker = os.path.join(BASE_DIR, ".ab_rev")
    if os.path.exists(marker) and open(marker).read() == rev:
        return
    shutil.rmtree(BASE_DIR, ignore_errors=True)
    os.makedirs(BASE_DIR)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", BASE_DIR], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"ab.py: git archive {rev} failed")
    with open(marker, "w") as f:
        f.write(rev)


def perfbench(command, side, args):
    """Runs perfbench in checkout `side`; returns its JSON result or None."""
    # Without CARGO_TARGET_DIR each checkout builds into its own
    # .bench_build/; with it both sides would share one build directory.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(command + args, cwd=side, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def fmt(value):
    return f"{value:.4g}"


def report(workload, spec, base_runs, change_runs):
    """Prints one workload's table; returns its verdicts."""
    print(f"\n== {workload}: {len(base_runs)} pairs ==")
    print(f"{'metric':<18} {'unit':<6} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'spread':>7} {'wins':>6}  verdict")
    verdicts = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base_runs, change_runs)
                 if run_ok(b) and run_ok(c)
                 and name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"{name:<18} (no complete pair)")
            continue
        base, change = [list(side) for side in zip(*pairs)]
        result, wins, spread = verdict(base, change, metric["better"],
                                       metric["bound"])
        verdicts.append(result)
        cells = []
        for sample in (base, change):
            q1, median, q3 = quartiles(sample)
            cells.append(f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]")
        print(f"{name:<18} {metric['unit']:<6} {cells[0]:<30} {cells[1]:<30} "
              f"{spread:>7.1%} {f'{wins}/{len(pairs)}':>6}  {result} "
              f"(bound {metric['bound']:.0%})")
    for label, runs in (("base", base_runs), ("change", change_runs)):
        done = [r for r in runs if r is not None]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        print(f"{label}: {sum(r['correct'] for r in done)}/{len(runs)} runs "
              f"correct, {len(runs) - len(done)} without a result, "
              f"failed/attempted {failed}/{attempted}")
    return verdicts


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    if not argv or argv[0].startswith("-") or any(
            w not in known for w in argv[1:]):
        sys.exit(f"usage: scripts/ab.py BASE [{'|'.join(known)} ...]")
    rev = git("rev-parse", "--verify", argv[0] + "^{commit}")
    workloads = argv[1:] or known
    checkout(rev)
    sides = {"base": BASE_DIR, "change": ROOT}
    command = spec["command"]
    for side, path in sides.items():
        print(f"ab.py: building {side} ({path})", file=sys.stderr)
        smoke = perfbench(command, path, ["--workload", workloads[0],
                                          "--seed", "1", "--seconds", "1",
                                          "--tiny"])
        if smoke is None:
            sys.exit(f"ab.py: the {side} side did not build or run")
    print(f"base {rev[:12]} vs working tree, {spec['run_seconds']} s runs, "
          f"seeds {FIRST_SEED}..{FIRST_SEED + PAIRS - 1}")
    verdicts, runs = [], []
    for workload in workloads:
        results = {"base": [], "change": []}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = perfbench(command, sides[side], [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"])
                results[side].append(result)
                print(f"ab.py: {workload} pair {i + 1}/{PAIRS} {side} "
                      f"{'ok' if run_ok(result) else 'NOT OK'}",
                      file=sys.stderr)
        verdicts += report(workload, spec, results["base"], results["change"])
        sys.stdout.flush()
        runs += results["base"] + results["change"]
    return exit_code(verdicts, runs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
