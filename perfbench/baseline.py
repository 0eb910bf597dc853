"""Measure ``baseline.json``: the benchmark's spread on this host.

Run from the repository root, with nothing else busy::

    python3 perfbench/baseline.py

It runs every workload untraced at seeds 1..10, twice over (two sets,
as a regression check compares a parent's runs with a change's), then
once traced at seed 1, each run as ``run.py`` in its own interpreter
for ``BENCHMARK.json``'s ``run_seconds``.
For each set and end-to-end metric it records the median, quartiles
and spread (q3 - q1) / median, and checks the spread and the drift
between the two sets' medians against the bound in ``BENCHMARK.json``.
It records the same for the unconverted wall-clock figures, which no
check uses, to show what the host clock removes.  Four workloads at
20 s take about 45 minutes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    began = time.perf_counter()
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = process.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    doc["wall_metrics"] = next(
        json.loads(line.split(" ", 1)[1]) for line in lines
        if line.startswith("wall_metrics "))
    doc["host_slowness"] = next(
        float(line.split()[1]) for line in lines
        if line.startswith("host_slowness "))
    doc["wall_s"] = time.perf_counter() - began
    print(workload, seed, trace, process.returncode,
          round(doc["wall_s"], 1), doc["correct"], flush=True)
    return doc


def summarize_set(runs: list[dict], names, wall: bool = False) -> dict:
    summary = {}
    for name in names:
        values = [run["wall_metrics"][name] if wall
                  else run["metrics"][name]["value"] for run in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median}
    return summary


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def summarize(bench: dict, sets: list[dict], traced: dict) -> dict:
    """``sets``: per set, workload -> its untraced run documents."""
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    seeds = len(next(iter(sets[0].values())))
    doc = {
        "about": ("End-to-end metrics of each workload over two sets of "
                  f"untraced runs at seeds 1-{seeds}, plus one traced run "
                  "per workload at seed 1. spread = (q3 - q1) / median of a "
                  "set (statistics.quantiles, n=4); worse_by = how much "
                  "the second set's median is worse than the first's, "
                  "as a share of the first. wall_sets: the same figures "
                  "in wall-clock seconds, before the host clock converts "
                  "them (peak_rss_mb is not a time)."),
        "host": f"{os.cpu_count()}-CPU {platform.system()}, Python "
                f"{platform.python_version()}",
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for workload in sets[0]:
        summaries = [summarize_set(s[workload], end_to_end)
                     for s in sets]
        checks = {}
        for name, metric in end_to_end.items():
            first, second = (s[name]["median"] for s in summaries)
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            spread = max(s[name]["spread"] for s in summaries)
            checks[name] = {
                "bound": metric["bound"], "max_spread": spread,
                "worse_by": worse,
                "spread_within_bound": spread <= metric["bound"],
                "median_within_bound": worse <= metric["bound"],
            }
        runs = [run for s in sets for run in s[workload]]
        timed = [name for name in end_to_end
                 if name in runs[0]["wall_metrics"]]
        doc["workloads"][workload] = {
            "sets": summaries,
            "checks": checks,
            "wall_sets": [summarize_set(s[workload], timed, wall=True)
                          for s in sets],
            "runs": {
                "count": len(runs),
                "all_correct": all(run["correct"] for run in runs),
                "max_wall_s": max(run["wall_s"] for run in runs),
                "total_wall_s": sum(run["wall_s"] for run in runs),
                "attempted_median": statistics.median(
                    run["attempted"] for run in runs),
                "host_slowness": [min(run["host_slowness"] for run in runs),
                                  max(run["host_slowness"] for run in runs)],
            },
            "traced_seed_1": {name: metric["value"] for name, metric
                              in traced[workload]["metrics"].items()},
            "traced_correct": traced[workload]["correct"],
            "traced_wall_s": traced[workload]["wall_s"],
        }
    return doc


def main() -> int:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    names = [workload["name"] for workload in bench["workloads"]]
    sets = []
    for _ in range(2):
        runs = {name: [] for name in names}
        for seed in SEEDS:  # workloads interleave, so host drift spreads
            for name in names:
                runs[name].append(run_once(name, seed, seconds, 0))
        sets.append(runs)
    traced = {name: run_once(name, 1, seconds, 1) for name in names}
    doc = summarize(bench, sets, traced)
    with open(os.path.join(HERE, "baseline.json"), "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    ok = all(check["spread_within_bound"] and check["median_within_bound"]
             for workload in doc["workloads"].values()
             for check in workload["checks"].values())
    print("within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
