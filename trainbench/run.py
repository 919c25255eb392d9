#!/usr/bin/env python3
"""Builds the steady-state training benchmark from source and runs it.

    python3 trainbench/run.py --workload deep-dear --seed 1 --seconds 10 --trace 0
    python3 trainbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under trainbench/; build output goes to stderr, so the last
stdout line is the benchmark's JSON result. With --trace 1 the Chrome trace
of the last traced window is written next to the build. Exits non-zero,
without a result, when the runtime sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("trainbench: runtime sources (src/) not found next to trainbench/")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "trainbench")
    steps = [["cmake", "--build", build_dir, "--target", target, "-j", "4"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("trainbench: build failed: " + " ".join(cmd))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one rank's params after training; "
                             "the output check must fail the run")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("trainbench_test")
        return subprocess.run([os.path.join(build_dir, "trainbench_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")

    build_dir = build("trainbench")
    cmd = [os.path.join(build_dir, "trainbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.json" % args.workload)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
