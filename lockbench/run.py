#!/usr/bin/env python3
"""Builds the lockbench driver from this checkout's sources and runs one
workload of the repository benchmark.

Usage, from the repository root:

    python3 lockbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is hotspot-inproc, cold-inproc or writers-tcp.  The build goes to
$CARGO_TARGET_DIR/lockbench (default .bench_build/lockbench); with
--trace 1 the traced phase's spans are written next to the binary as
trace-NAME-N.json (Chrome/Perfetto trace format).  The last line of
standard output is the result object; the exit code is non-zero when the
build fails, a correctness check or workload guard fails, or the run
overstays its time limit.  lockbench/README.md documents the workloads
and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hotspot-inproc", "cold-inproc", "writers-tcp")
# A run must end within 180 s; the driver binary bounds its own drain,
# this is the backstop.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"lockbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lockbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lockbench")


def git_revision():
    # The benchmark may run from an export that is not a git repository;
    # never let git walk up into an enclosing one.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "lockbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", git_revision()]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        log("the run printed no result object")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
