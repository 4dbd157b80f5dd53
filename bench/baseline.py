"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 bench/baseline.py --runs 10 --workloads lap-ilrsi rksm-sweep \
        --out bench/out/summary.json

Runs bench/run.py once per seed (1..runs) for each workload, one run at a
time, and reports per metric the median, the quartiles and the spread
(interquartile distance over median) next to the metric's bound in
BENCHMARK.json. With --trace-seed it also makes one traced run per workload.
The result is written as JSON; bench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l[5:]) for l in lines if l.startswith("env: "))
    return json.loads(lines[-1]), env, time.monotonic() - start


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out, env, wall = run_once(workload, seed, args.seconds, 0)
            runs.append(out)
            walls.append(wall)
            print(workload, seed, f"{walls[-1]:.1f}s", json.dumps(out), flush=True)
        entry = {
            "env": env,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "run_wall_s": walls,
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()},
        }
        if args.trace_seed is not None:
            out, _, _ = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in out["metrics"].items()}
        result["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:14s} {name:16s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
