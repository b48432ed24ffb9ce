#!/usr/bin/env python3
"""Builds the gmc end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload exact_wire --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/ (configured
once, then rebuilt incrementally); build output goes to stderr, so the last
line on stdout is the driver's JSON result. Exits non-zero, printing no
result, if the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j4", "--target", "perfbench", "gmc_serve"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    try:
        result = subprocess.run(
            [os.path.join(BUILD, "perfbench")] + sys.argv[1:],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
