#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command from BENCHMARK.json once per seed on every workload (or
the ones named) and prints, for each end-to-end metric, its median, first
and third quartiles (as statistics.quantiles(values, n=4) gives them), the
spread (q3 - q1) / median and the metric's bound. It also checks that every
run was correct and that the share of failed operations is the same in
every run.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]

Every run lasts BENCHMARK.json's run_seconds. Exits 1 when a run is
incorrect or prints no result, when the failed share differs between runs,
or when a spread reaches its metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    ok = True
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(bench["command"], w, seed, seconds)
            if r is None:
                print(f"{w} seed {seed}: no result")
                ok = False
                continue
            if not r["correct"]:
                print(f"{w} seed {seed}: incorrect")
                ok = False
            results.append(r)
        if len(results) < 2:
            ok = False
            continue
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        share_note = "same" if len(shares) == 1 else "DIFFERS"
        ok &= len(shares) == 1
        print(f"{w}: {len(results)} runs, failed/attempted {sorted(str(s) for s in shares)} ({share_note})")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < m["bound"] else "OVER"
            if spread < m["bound"] / 3:
                verdict += ", under a third"
            ok &= spread < m["bound"]
            print(f"  {m['name']:<16} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} bound {m['bound']} ({verdict})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
