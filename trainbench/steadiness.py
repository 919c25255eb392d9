#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 trainbench/steadiness.py [--runs 10] [--first-seed 1]
                                     [--workload NAME ...] [--out FILE]

Run from the repository root. Exits 1 if a spread exceeds its bound, or a
run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat; (0, 0) where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", help="write the per-run values as JSON")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    report = {}
    for name in workloads:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            steal0, total0 = cpu_ticks()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            steal1, total1 = cpu_ticks()
            steal = (steal1 - steal0) / max(1, total1 - total0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d: exit %d, result %s" %
                      (name, seed, proc.returncode, result), file=sys.stderr)
                ok = False
                continue
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            # Steal: share of this machine's CPU time the hypervisor gave
            # to other guests during the run, the main source of noise.
            print("%s seed %d (%.1fs, steal %.2f): %s" % (
                name, seed, time.time() - start, steal,
                ", ".join("%s=%.6g" % (m, v[-1]) for m, v in values.items())),
                flush=True)
        report[name] = values
        for m, v in values.items():
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok" if spread <= bounds[m] / 3 else (
                "WIDE" if spread <= bounds[m] else "OVER")
            if verdict == "OVER":
                ok = False
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "bound %.2f  %s" % (m, med, q1, q3, spread, bounds[m],
                                      verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
