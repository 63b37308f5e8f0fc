#!/usr/bin/env python3
"""Builds the end-to-end PLOS training benchmark from source and runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload sync-admm --seed 1 --seconds 10 --trace 0

The harness (e2ebench/harness.cpp) and the PLOS libraries under src/ are
configured with CMake into .bench_build/e2ebench and built in Release mode;
an up-to-date build costs a second or two. All arguments are passed to the
harness, whose last stdout line is the JSON result. Build output goes to
stderr. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "e2ebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
