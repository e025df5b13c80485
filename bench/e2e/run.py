#!/usr/bin/env python3
"""Build and run the repository benchmark (see bench/e2e/README.md).

Run from the repository root:

    python3 bench/e2e/run.py --workload cache_churn --seed 1 --seconds 10 --trace 0

The first call configures and builds bench_e2e from source into
.bench_build/ (CMake, Release); later calls rebuild only what changed.  All
arguments are passed to bench_e2e, whose last line of standard output is
the run's JSON summary.  Build output goes to standard error.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build():
    """Configure (once) and build; returns the exit code of the first failing step."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "bench/e2e", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr).returncode
        if code != 0:
            return code
    return 0


def main():
    if not os.path.isdir(os.path.join("bench", "e2e")):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    code = build()
    if code != 0:
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return code
    return subprocess.run([os.path.join(BUILD_DIR, "bench_e2e")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
