#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report the spread.

    python3 flowbench/prove.py [--seeds 1,2,3 | --runs 10] [--trace 0|1]
                               [--out runs.json] [--compare earlier.json]

Reads the command, run length, workloads and bounds from BENCHMARK.json
at the repository root, runs the command once per workload and seed
(one process per run, run_seconds each), and prints, for every metric,
the median of the per-run values and their spread: the distance between
the first and third quartile (Python's statistics.quantiles, n=4) as a
share of the median. A spread is flagged when it exceeds a third of the
metric's bound; the rule is the same for every end-to-end metric. Every
run must also report correct=true.

With --out, every run's result line and manifest are written to a JSON
file: the record a bench trajectory point is made from. With --compare,
each end-to-end median is also set against the same workload's median
in an earlier --out file, and flagged when it is worse by more than the
metric's bound.

Exits 1 when anything was flagged.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cfg, workload, seed, trace):
    cmd = cfg["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(cfg["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    manifest = json.loads(lines[-2])["manifest"] if len(lines) > 1 else None
    return {"seed": seed, "wall_s": wall, "result": result, "manifest": manifest}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / abs(before)
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", help="comma-separated seeds")
    ap.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS when --seeds is absent")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every run to this JSON file")
    ap.add_argument("--compare", help="an earlier --out file to set the medians against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(1, args.runs + 1))
    e2e = {m["name"]: m for m in cfg["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    record = {"host": {"machine": platform.machine(), "nproc": os.cpu_count()},
              "run_seconds": cfg["run_seconds"], "trace": args.trace, "workloads": {}}
    flagged = False
    for w in (w["name"] for w in cfg["workloads"]):
        runs = [run_once(cfg, w, s, args.trace) for s in seeds]
        record["workloads"][w] = {"runs": runs, "summary": {}}
        bad = [r["seed"] for r in runs if not r["result"]["correct"]]
        if bad:
            flagged = True
            print(f"{w}: INCORRECT output on seeds {bad}")
        walls = [r["wall_s"] for r in runs]
        print(f"{w}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            med, sp = spread(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            summary = {"unit": unit, "median": med, "q1": q[0], "q3": q[2], "spread": sp,
                       "samples": len(values)}
            note = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                if sp > bound / 3:
                    flagged = True
                    note += f"  SPREAD > bound/3 ({bound / 3:.3f})"
                if earlier is not None:
                    before = earlier[w]["summary"][name]["median"]
                    worse = worse_by(before, med, e2e[name]["better"])
                    summary["worse_than_earlier"] = worse
                    note += f"  worse by {worse:+.4f} vs earlier"
                    if worse > bound:
                        flagged = True
                        note += f" > bound ({bound})"
            record["workloads"][w]["summary"][name] = summary
            print(f"  {name:34s} median {med:<22.6g} spread {sp:7.4f} {unit}{note}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
