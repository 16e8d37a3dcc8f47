#!/usr/bin/env python3
"""Build (if needed) and run one workload of the StreamLake benchmark.

Usage, from the root of a checkout:

    python3 slbench/run.py --workload stream_etl --seed 1 --seconds 10 --trace 0

Builds slbench/ (which compiles ../src) with CMake into $CARGO_TARGET_DIR
or .bench_build, then runs the driver. Build output goes to stderr; the
driver's last stdout line is the result JSON. Traced runs also write their
spans to <build>/traces/<workload>-<seed>.jsonl. Exits non-zero, without a
result, when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build(out_dir):
    # The Makefile exists only after a configure that succeeded.
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "slbench",
                    "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out_dir, "slbench")


def value_of(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def main():
    args = sys.argv[1:]
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"slbench: build failed: {err}", file=sys.stderr)
        return 2
    command = [binary] + args
    if value_of(args, "--trace") == "1" and "--spans" not in args:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{value_of(args, '--workload')}-{value_of(args, '--seed')}.jsonl"
        command += ["--spans", os.path.join(traces, name)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
