#!/usr/bin/env python3
"""End-to-end AutoNCS flow benchmark (see perfbench/README.md).

Builds perfbench_flow from the repository's sources into .bench_build/ and
runs one workload:

    python3 perfbench/run.py --workload paper_autoncs --seed 2015 --seconds 55 --trace 0

Build output goes to standard error; the benchmark's report goes to
standard output, whose last line is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero without a result
when the sources are missing, the build fails or the benchmark fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_flow")


def build():
    """Configures and builds perfbench_flow; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "autoncs", "pipeline.hpp")):
        print("run.py: AutoNCS sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="paper_autoncs or fullcro_paper")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check reference costs and digest invariance instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        command = [BINARY, "--selftest"]
    else:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
