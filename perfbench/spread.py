#!/usr/bin/env python3
"""Run the benchmark once per seed and report how much each metric spreads.

For every workload and end-to-end metric this prints the median of the
untraced runs, and the distance between the first and third quartile
(Python's statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound in BENCHMARK.json. A benchmark is steady when each
spread stays well below its bound.

Run from the repository root:

    python3 perfbench/spread.py --workload online_placement --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

--workload may be given several times and defaults to every workload of
BENCHMARK.json. With --baseline FILE the medians, quartiles, spreads and raw
values are written to FILE in the layout of perfbench/baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_seeds(bench, workload, seeds, seconds):
    """One untraced run per seed: (wall seconds, exit code, last-line JSON)."""
    runs = []
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        start = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.time() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        ok = proc.returncode == 0 and result is not None and result["correct"]
        print(f"{workload} seed {seed}: exit {proc.returncode} wall {wall:.1f}s correct {ok}",
              file=sys.stderr)
        runs.append((wall, proc.returncode, result))
    return runs


def summarize(bench, workload, runs):
    """Print the spread table of one workload; return its baseline entry and
    its worst spread relative to the bound, setup_s excluded."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = [r for _, _, r in runs if r is not None]
    if not results:
        sys.exit(f"{workload}: no results")
    print(f"{workload}")
    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    entry = {}
    worst = 0.0
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {shown:>6}")
        entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    walls = [w for w, _, _ in runs]
    entry["wall_s"] = {"median": statistics.median(walls), "max": max(walls)}
    print(f"runs {len(runs)}, wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s, "
          f"worst spread/bound {worst:.2f} (setup_s excluded)")
    return entry, worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    baseline = {"nproc": len(os.sched_getaffinity(0)), "seeds": seeds,
                "run_seconds": seconds, "workloads": {}}
    worst = 0.0
    failed = False
    for workload in workloads:
        runs = run_seeds(bench, workload, seeds, seconds)
        failed |= any(code != 0 for _, code, _ in runs)
        entry, w = summarize(bench, workload, runs)
        baseline["workloads"][workload] = entry
        worst = max(worst, w)
    baseline["worst_spread_over_bound_excluding_setup"] = worst

    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
