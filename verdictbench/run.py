#!/usr/bin/env python3
"""Builds and runs the verdict-path benchmark for one workload.

Usage, from the root of a checkout:

    python3 verdictbench/run.py --workload paxos-deep|corpus-mix|serve-edits \
        --seed N [--seconds S] --trace 0|1 [--smoke]

The first run configures and builds verdictbench (a Release build of the
product library plus the benchmark driver) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only rebuild what changed.
Build output goes to standard error. The benchmark's report goes to
standard output, and its last line is the JSON result object. Traces and
full result records are written to <build dir>/results.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paxos-deep", "corpus-mix", "serve-edits")


def fail(message):
    print("verdictbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_seconds():
    """BENCHMARK.json's run_seconds, the one run length of record."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            return float(json.load(spec)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "verdictbench")


def build(out):
    """Configures on first use, then builds the benchmark binary."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "verdictbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "verdictbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], check=True, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="run length (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal workload size (the benchmark's tests)")
    parser.add_argument("--answers",
                        help="known-answers file (default: the pinned one)")
    args = parser.parse_args()
    if args.seconds is None:
        fail("--seconds is required when BENCHMARK.json gives no run_seconds")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no product sources next to verdictbench/ (expected src/); "
             "run from the root of a full checkout")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    results = os.path.join(os.path.dirname(out), "results")
    os.makedirs(results, exist_ok=True)

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT,
           "--out-dir", results, "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    if args.answers:
        cmd += ["--answers", args.answers]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
