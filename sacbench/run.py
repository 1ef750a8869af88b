#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see sacbench/README.md).

One workload, one mode -- the last stdout line is the run's JSON result:

    python3 sacbench/run.py --workload multiply --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, untraced then traced, with a
summary table at the end:

    python3 sacbench/run.py [--seed N] [--seconds S] [--out DIR]

The smoke check (every workload at real sizes, a few queries each):

    python3 sacbench/run.py --smoke

Run it from the repository root. It builds the engine library from src/
and the suite into $CARGO_TARGET_DIR (default .bench_build) and writes
results, traces and profiles to --out (default build/benchmark).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "sacbench")
WORKLOADS = ["multiply", "factorize", "multiply_wire", "service"]
# A first run (cold build, then the workload) must end within 900 s and
# every later one within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def in_root(path):
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the suite; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources (src/) not found next to "
                 "sacbench/; run from a full checkout of the repository")
    build_dir = os.path.join(
        in_root(os.environ.get("CARGO_TARGET_DIR", ".bench_build")), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bench_suite", "bench_compare"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return build_dir


def suite(build_dir, args, capture):
    cmd = [os.path.join(build_dir, "bench_suite")] + args
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True, timeout=RUN_TIMEOUT_S, check=False,
                          cwd=ROOT)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=os.path.join("build", "benchmark"))
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()

    build_dir = build()
    out = in_root(a.out)
    if a.smoke:
        return suite(build_dir, ["--smoke", "--out", out, "--benchmark-json",
                                 os.path.join(ROOT, "BENCHMARK.json")],
                     capture=False).returncode
    common = ["--seed", str(a.seed), "--seconds", repr(a.seconds),
              "--out", out]
    if a.workload:
        return suite(build_dir, ["--workload", a.workload, "--trace",
                                 str(a.trace)] + common,
                     capture=False).returncode

    status = 0
    rows = []
    for w in WORKLOADS:
        for trace in (0, 1):
            done = suite(build_dir, ["--workload", w, "--trace", str(trace)]
                         + common, capture=True)
            sys.stdout.write(done.stdout)
            status = status or done.returncode
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                continue
            for name, m in json.loads(lines[-1])["metrics"].items():
                rows.append((w, name, m["value"], m["unit"]))
    print("\n%-14s %-32s %16s  %s" % ("workload", "metric", "value", "unit"))
    for w, name, value, unit in rows:
        print("%-14s %-32s %16.6g  %s" % (w, name, value, unit))
    print("results in " + out)
    return status


if __name__ == "__main__":
    sys.exit(main())
