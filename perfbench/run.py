#!/usr/bin/env python3
"""Build and run the perfbench solver benchmark from the repository root.

  python3 perfbench/run.py --workload approx-lp --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload exact-prove --seed 2 --heldout
  python3 perfbench/run.py reference --seconds 6 --threads 3

The first form configures and builds perfbench/ (with the library sources one
directory up) into .bench_build/perfbench, then runs one workload and passes
its report through; the last stdout line is the JSON result. With --trace 1
the benchmark's own spans are written to .bench_build/perfbench/. The
`reference` form rewrites perfbench/reference.tsv from long offline solves.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.tsv")
WORKLOADS = ["approx-lp", "exact-prove", "exact-midsize", "uniform-ptas"]


def build():
    """Configures on first use and rebuilds incrementally; output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no library sources next to perfbench/; "
                 "run from the root of a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["reference"]:
        parser = argparse.ArgumentParser(prog="run.py reference")
        parser.add_argument("--seconds", default="6")
        parser.add_argument("--threads", default="3")
        args = parser.parse_args(argv[1:])
        build()
        command = [BINARY, "reference", "--out",
                   os.path.relpath(REFERENCE, ROOT), "--seconds",
                   args.seconds, "--threads", args.threads]
    else:
        parser = argparse.ArgumentParser(prog="run.py")
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=20)
        parser.add_argument("--trace", choices=["0", "1"], default="0")
        parser.add_argument("--heldout", action="store_true")
        args = parser.parse_args(argv)
        build()
        command = [BINARY, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace, "--reference", REFERENCE]
        if args.heldout:
            command.append("--heldout")
        if args.trace == "1":
            command += ["--trace-out", os.path.join(
                BUILD, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
