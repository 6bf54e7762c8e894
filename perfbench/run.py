#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload http_session --seed 1 --seconds 25 --trace 0

Run from the repository root. The driver is built with CMake into
.bench_build (or $CARGO_TARGET_DIR when set); the first run compiles the
ivr libraries, later runs find everything up to date. Build output goes to
stderr, so the last line of stdout is the result object. Extra flags after
the four standard ones (--rate, --inject-delay-us) are passed to the
driver unchanged; perfbench/selftest.py uses them.

An untraced run starts the driver PROCESSES times (fewer for runs under
20 s), each for an equal share of --seconds on the same seed, and reports
the median of each metric over them. Figures stay level within one driver
process but move by 10-25% between processes on a shared VM, with no CPU
stolen, so one process is a sample of one. A traced run uses a single process, so the
per-layer metrics keep their full sample counts.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PROCESSES = 4
MIN_PROCESS_SECONDS = 5


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return None
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("run.py: build step failed: " + " ".join(step))
            return None
    driver = os.path.join(build_dir, "perfbench_driver")
    return driver if os.path.exists(driver) else None


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_driver(command, deadline):
    """Runs one driver process; returns its result object or None. Its
    other stdout lines (metrics by name, host context) are passed on."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("run.py: driver exited with %d" % done.returncode)
        return None
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("run.py: driver printed no result")
        return None


def combine(results):
    """One result object from several: all correct, ops summed, and the
    median of each metric."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build(build_dir)
    if driver is None:
        return 1

    # Each process measures at least MIN_PROCESS_SECONDS.
    processes = 1 if args.trace == "1" else max(
        1, min(PROCESSES, args.seconds // MIN_PROCESS_SECONDS))
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "%g" % (args.seconds / processes),
               "--trace", args.trace, "--work-dir", work_dir,
               "--commit", git_commit()] + extra
    results = []
    try:
        for _ in range(processes):
            result = run_driver(command, deadline)
            if result is None:
                return 1
            results.append(result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(combine(results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
