#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload as many times as a comparison of two commits does,
alternating two sets (A, B) with a fresh --seed per run, and prints each
end-to-end metric's median and quartiles per set. It then checks what a
comparison relies on:

* within each set, the spread (quartile distance over the median) of
  every metric except setup_s stays within the metric's bound;
* the two sets' medians agree within the bound, setup_s included;
* the share of failed operations is identical across every run.

Run from the repository root:

    python3 perfbench/steady.py                        # every workload
    python3 perfbench/steady.py --workloads map_churn  # one workload

Exit status 0 means every check held.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"
# A comparison of two commits runs each workload 22 times, 11 per commit.
RUNS_PER_SET = 11
FIRST_SEED = 1000


def run_once(command, workload, seed, seconds, trace=0):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="*", help="subset of workloads")
    args = ap.parse_args()

    with open(BENCH) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    ok = True
    seed = FIRST_SEED
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(RUNS_PER_SET):
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                result, wall = run_once(command, w, seed, seconds)
                seed += 1
                if not result["correct"]:
                    print(f"{w}: run with seed {seed - 1} reported incorrect output")
                    ok = False
                sets[s].append(result)
                print(f"  {w} set {s} seed {seed - 1}: {wall:.1f} s wall, "
                      f"{result['attempted']} attempted, {result['failed']} failed",
                      file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for s in sets.values() for r in s}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"\n{w}")
        print(f"  {'metric':22} {'set':3} {'q1':>14} {'median':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med = {}
            for s, runs in sets.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                med[s] = q2
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = "  SPREAD"
                    ok = False
                print(f"  {name:22} {s:3} {q1:14.6g} {q2:14.6g} {q3:14.6g} "
                      f"{spread:8.4f} {bound:6.3f}{flag}")
            shift = abs(med["B"] - med["A"]) / med["A"] if med["A"] else float("inf")
            if shift > bound:
                print(f"  {name}: set medians differ by {shift:.4f} > {bound}")
                ok = False
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
