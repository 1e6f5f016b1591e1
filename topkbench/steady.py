#!/usr/bin/env python3
"""Same-code steadiness check for topkbench.

Runs the benchmark command from BENCHMARK.json once per (seed, workload),
interleaving the workloads seed by seed, and prints for every end-to-end
metric the median, the quartiles and the spread (q3 - q1) / median as
Python's statistics.quantiles(n=4) gives them, next to the metric's bound.
Run it from the repository root:

    python3 topkbench/steady.py --seeds 101-110
    python3 topkbench/steady.py --seeds 101-105 --workloads whatif_eco

Each run's result line and wall time go to --log (JSON lines), so a set
can be re-tabulated with --table-only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--log", default=".bench_build/steady.jsonl")
    ap.add_argument("--table-only", action="store_true", help="tabulate --log without running")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    if not args.table_only:
        os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
        with open(args.log, "w") as log:
            for seed in seed_range(args.seeds):
                for w in names:
                    cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                    t0 = time.monotonic()
                    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                    wall = time.monotonic() - t0
                    lines = p.stdout.strip().splitlines()
                    res = json.loads(lines[-1]) if p.returncode == 0 and lines else None
                    log.write(json.dumps({"workload": w, "seed": seed, "exit": p.returncode,
                                          "wall_s": wall, "result": res,
                                          "stderr": p.stderr[-2000:]}) + "\n")
                    log.flush()
                    print(f"{w} seed {seed}: exit {p.returncode}, {wall:.1f} s", file=sys.stderr)

    runs = [json.loads(l) for l in open(args.log)]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"| workload | metric | median | q1 | q3 | spread | bound | runs |")
    print(f"|---|---|---|---|---|---|---|---|")
    for w in names:
        mine = [r for r in runs if r["workload"] == w]
        ok = [r for r in mine if r["result"] and r["result"]["correct"]]
        for m in bounds:
            vals = [r["result"]["metrics"][m]["value"] for r in ok]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {w} | {m} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} | {bounds[m]} | {len(vals)} |")
        walls = [r["wall_s"] for r in mine]
        print(f"{w}: {len(ok)} of {len(mine)} runs correct, wall {min(walls):.1f}-{max(walls):.1f} s",
              file=sys.stderr)


if __name__ == "__main__":
    main()
