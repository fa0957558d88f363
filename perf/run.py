#!/usr/bin/env python3
"""Run one workload of the repo benchmark (perf/README.md).

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perf/ (and with it the simulator) from this checkout into
build-perf/ on first use, then runs mac3d_perf. Build output goes to
stderr; stdout is mac3d_perf's, whose last line is the JSON result.
"""
import argparse
import os
import subprocess
import sys

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
BUILD = os.path.join(ROOT, "build-perf")
BINARY = os.path.join(BUILD, "mac3d_perf")


def build():
    """Configure (once) and build mac3d_perf; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "mac3d_perf",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perf/run.py: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command.append("--trace")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
