#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
its spread (interquartile range over the median), the figure the bounds in
BENCHMARK.json are checked against.

    python3 perfbench/spread.py --workload paper-rounds --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload all --seeds 1-10 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(values):
    out = []
    for v in values:
        if "-" in v:
            lo, hi = v.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(v))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", default="all")
    p.add_argument("--seeds", nargs="+", default=["1-5"])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--verbose", action="store_true", help="print every run's value")
    args = p.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(args.seeds):
            result = run(workload, seed, args.seconds, args.trace)
            ok = result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
            if not ok:
                raise SystemExit("run was not clean")
            for name in values:
                value = result["metrics"][name]["value"]
                values[name].append(float("nan") if value is None else value)
        print(f"== {workload}")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {m['name']:32s} median {med:12.5g} {m['unit']:6s} "
                  f"spread {spread:7.4f}" + (f" bound {bound}" if bound else "") + flag)
            if args.verbose:
                print("      " + " ".join(f"{x:.4g}" for x in v))


if __name__ == "__main__":
    main()
