#!/usr/bin/env python3
"""Build and run the xhybrid layered benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a CMake project that
compiles ../src itself, Release) into .bench_build/perfbench, then runs one
workload and passes its output through: human-readable lines, then one JSON
result line. With --trace 1 the span log is also written to
.bench_build/spans/<workload>-seed<N>.json. See perfbench/README.md.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
WORKLOADS = ("analyze-table1", "serve-xm", "simulate-response", "circuit-atpg")
# Either variable silently changes the workload; the binary refuses too.
FORBIDDEN_ENV = ("XH_ISA", "XH_XM_BACKEND")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build():
    """Configures (once) and builds the benchmark; logs go to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for var in FORBIDDEN_ENV:
        if var in os.environ:
            return fail(f"refusing to report with {var} set")
    if not (ROOT / "src" / "xh.hpp").is_file():
        return fail(f"no xhybrid sources under {ROOT / 'src'}")
    if not build():
        return fail("build failed")

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(BUILD / "xh_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    if args.trace:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        work.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
