#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and print the spread.

Usage, from the repository root:

    python3 framebench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Runs every workload --runs times through framebench/run.py, alternating the
workloads (round r runs each workload once, the order rotating by one each
round), with seeds 1 to --runs. For each end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread: the
inter-quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. It also prints the share of failed operations per run.
Exit status 1 when a run fails or a spread exceeds its metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("framebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            res = run_once(w, r + 1, args.seconds)
            results[w].append(res)
            summary = " ".join("%s=%.4g" % (m, v["value"]) for m, v in res["metrics"].items())
            print("run %2d %-14s seed %d: failed %d/%d %s" % (
                r, w, r + 1, res["failed"], res["attempted"], summary), flush=True)

    ok = True
    for w in workloads:
        runs = results[w]
        print("\n%s (%d runs)" % (w, len(runs)))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("  failed share per run: %s" % ", ".join("%.6g" % s for s in shares))
        if not all(r["correct"] for r in runs):
            print("  a run reported correct = false")
            ok = False
        for m in runs[0]["metrics"]:
            values = [r["metrics"][m]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            bound = bounds.get(m, float("nan"))
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                ok = False
            print("  %-18s median %11.5g  q1 %11.5g  q3 %11.5g  spread %.3f  bound %.2f%s" % (
                m, statistics.median(values), q1, q3, spread, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
