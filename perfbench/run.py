#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload miss-dp --seed 1 --seconds 45 --trace 0

Run from the repository root. The first run configures and builds blitzd and
the generator into .bench_build/ (about a minute on 4 cores); later runs only
re-check the build. Every other argument is passed to the generator, whose
last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Configures and builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        sys.exit("perfbench: run from a checkout of the repository root")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    build()
    run_dir = os.path.join(BUILD_DIR, "run")
    os.makedirs(run_dir, exist_ok=True)
    binary = os.path.join(BUILD_DIR, "blitzbench")
    # exec, so that a signal to this process reaches the generator, whose
    # daemon dies with it.
    os.execv(binary, [binary,
                      "--blitzd", os.path.join(BUILD_DIR, "blitz", "tools", "blitzd"),
                      "--run-dir", run_dir] + sys.argv[1:])


if __name__ == "__main__":
    main()
