#!/usr/bin/env python3
"""Runs one rdfast benchmark workload and prints its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The script builds perfbench_driver
(Release) from this checkout's sources into .bench_build/perfbench, then
runs it; build output goes to stderr.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-cache")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("classify-heu1-t1", "classify-heu2-t4", "atpg-pla")


def build():
    """Configures once, then builds the driver (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no rdfast sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run_driver(arguments):
    command = [DRIVER, "--cache-dir", CACHE_DIR] + arguments
    return subprocess.run(command, timeout=900).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="check that a corrupted expected value and a "
                             "flipped detection class are caught")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 2
    if args.self_test:
        for workload, seed in (("classify-heu1-t1", 0), ("atpg-pla", 1)):
            code = run_driver(["--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", "0",
                               "--self-test"])
            if code != 0:
                return code
        return 0
    return run_driver(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", args.trace])


if __name__ == "__main__":
    sys.exit(main())
