#!/usr/bin/env python3
"""Build the e2e_layers benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 e2e_layers/run.py --workload wire_small --seed 1 --seconds 20 --trace 0

The engine and the benchmark are built with CMake into
$CARGO_TARGET_DIR/e2e_layers (default .bench_build/e2e_layers); the first
run builds, later runs reuse the build. Build output goes to stderr, so the
last line of standard output is the benchmark's JSON result. Exits non-zero,
printing no result, when the build fails or the engine sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "support", "service.h")):
        print("e2e_layers: no engine sources in " + REPO, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_layers",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(REPO, target, "e2e_layers")
    if not build(build_dir):
        return 1
    command = [os.path.join(build_dir, "e2e_layers")] + sys.argv[1:]
    command += ["--out-dir", build_dir]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
