#!/usr/bin/env python3
"""Builds bench_serve from source and runs one workload of the benchmark.

Usage (from the repository root):

    python3 bench/serve/run.py --workload bd-grr --seed 1 --seconds 30 --trace 0

The first call configures and builds bench/serve into .bench_build/ (a
CMake project that adds the repository's root project and links its
library); later calls reuse the build. The bench's own report goes to stderr. The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `attempted` / `failed` count the reports the reference accepted and
the ones a run lost (a failed run loses all of its reports), and `metrics`
holds the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) of BENCHMARK.json, each the median over the run's reps.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_serve; returns the binary path."""
    build_dir = os.path.join(BUILD, "serve")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_serve",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_serve")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {names}")
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    wanted = spec[group]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"{args.workload}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out_dir,
           "--json", result_path]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=sys.stderr)
    if not os.path.exists(result_path):
        log(f"bench_serve exited with status {proc.returncode} and no result")
        return 1
    with open(result_path) as f:
        result = json.load(f)["workloads"][args.workload]

    measured = result[group]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is not None and got["median"] is not None:
            metrics[m["name"]] = {"value": got["median"], "unit": m["unit"]}
    correct = bool(result["correct"]) and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
