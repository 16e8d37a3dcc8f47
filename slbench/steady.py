#!/usr/bin/env python3
"""Steadiness runner: repeat one workload with N seeds, one process each,
and print each metric's median, quartiles and spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.

    python3 slbench/steady.py --workload stream_etl [--runs 10]
        [--first-seed 1] [--seconds 10] [--trace 0]

Run it from the root of a checkout. Exits non-zero when a run fails its
output checks, when the share of failed operations differs between runs,
or when a spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    ok = all(r["correct"] for r in results)
    shares = {(r["failed"], r["attempted"]) for r in results}
    share_values = {f / a for f, a in shares}
    if len(share_values) != 1:
        ok = False
    print(f"failed share: {sorted(share_values)}")
    print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  OVER BOUND"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print(f"{name:44s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
