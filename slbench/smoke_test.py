#!/usr/bin/env python3
"""The benchmark's own test: a smoke-size run of every workload (also
lakehouse_analytics, which BENCHMARK.json does not gate), untraced and
traced, with every output check on.

    python3 slbench/smoke_test.py

Run it from the root of a checkout. Checks that each run passes its output
checks, reports exactly the metrics (names and units) BENCHMARK.json
declares for its mode, and that the only failed operations are the
lagging-consumer polls of stream_etl: one per round of 15 operations.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FAILED_SHARE = {"stream_etl": 1 / 15, "lakehouse_analytics": 0.0,
                "table_churn": 0.0}


def main():
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in FAILED_SHARE:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "2", "--trace",
                 str(trace), "--size", "smoke"],
                stdout=subprocess.PIPE, text=True, timeout=900)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True:
                problems.append(f"{where}: output checks failed")
            if result["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            share = result["failed"] / max(result["attempted"], 1)
            if not math.isclose(share, FAILED_SHARE[workload], abs_tol=1e-12):
                problems.append(f"{where}: failed share {share}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{where}: {name} is not finite")
                if trace == 0 and metric["value"] == 0:
                    problems.append(f"{where}: end-to-end {name} reads 0")
            print(f"{where}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
