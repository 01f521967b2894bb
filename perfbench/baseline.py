#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --out perfbench/baseline.json

Run from the root of a source checkout.  For every workload in
BENCHMARK.json (or those given with --workload) it runs the benchmark
command once per seed, one run at a time, and records each metric's values,
median, quartiles and spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = run_once(spec, workload, seed, trace=0)
            runs.append(run)
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            ), file=sys.stderr, flush=True)
        metrics = {}
        for name, bound in bounds.items():
            entry = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            entry["bound"] = bound
            metrics[name] = entry
            print(f"{workload:16s} {name:12s} median {entry['median']:.4g} "
                  f"spread {entry['spread']:.3f} bound {bound}", file=sys.stderr)
        summary["workloads"][workload] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "meta": runs[0]["details"]["meta"],
            "metrics": metrics,
        }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
