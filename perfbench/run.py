#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mis-tri --seed 1 --seconds 20 --trace 0

Run from anywhere; the build goes to .bench_build at the repository root.
Workload parameters and seeds live in perfbench/workloads.json. The harness
output is passed through; its last line is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds both harness binaries; logs to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's default_seed)")
    parser.add_argument("--held-out", action="store_true",
                        help="use the workload's held_out_seed")
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    w = workloads[args.workload]
    seed = args.seed
    if seed is None:
        seed = w["held_out_seed"] if args.held_out else w["default_seed"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    binary = "pipeline_bench_traced" if args.trace else "pipeline_bench"
    cmd = [os.path.join(BUILD, binary),
           "--app", w["app"], "--graph", w["graph"],
           "--weights", str(w["weights"]), "--eps", str(w["eps"]),
           "--phi", str(w["phi"]), "--node-budget", str(w["node_budget"]),
           "--variants", str(w["variants"]), "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{seed}.jsonl")]
    # A fixed mmap threshold turns off glibc's dynamic adjustment, which
    # otherwise makes peak RSS jump between two levels from seed to seed.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: harness exited with {run.returncode}",
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("perfbench: the harness printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
