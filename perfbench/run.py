#!/usr/bin/env python3
"""tgcover benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library modules it links from ../src) into .bench_build/ at the repository
root, then runs one workload and passes its output through. The last line of
stdout is the program's JSON result; the build's output goes to stderr, and
only when the build fails.

    python3 perfbench/run.py --workload oracle-udg1600 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload oracle-udg1600 --seed 1 --trace 1
    python3 perfbench/run.py --workload repair-udg800-tau6 --seed 1 --tiny

Exit status: the program's (non-zero on a failed correctness check), or 1 when
the build fails, in which case no result line is printed.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "tgc_perfbench"


def build():
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "tgc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout)
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def git_sha():
    """The checked-out commit, read at run time; `unknown` outside git."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="harness self-check sizes (<= 200 nodes)")
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
