#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload train-b4 --seeds 1-10 --seconds 30

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of their
median. For each end-to-end metric it must stay inside the metric's bound in
BENCHMARK.json; the ``!`` column marks one at a third of its bound or more.
``--json FILE`` also writes the values, medians and quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
            "values": values,
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the per-workload tables here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    # Seeds outer, workloads inner: a slow spell of the machine then lands on
    # every workload alike instead of on one workload's whole set.
    runs = {w: [] for w in args.workload}
    for seed in seeds:
        for workload in args.workload:
            runs[workload].append(run_once(workload, seed, seconds, args.trace))
    out = {}
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        table = summarise(results, bounds)
        out[workload] = {"seeds": seeds, "seconds": seconds, "failed": failed,
                         "correct": all(r["correct"] for r in results),
                         "metrics": table}
        print(f"{workload}: {len(seeds)} seeds, {failed} failed")
        for name, row in table.items():
            spread = row["spread"]
            flag = ("!" if spread is not None and row["bound"] is not None
                    and spread >= row["bound"] / 3 else " ")
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {name:40s} median {row['median']:>12.6g} {row['unit']:11s} "
                  f"spread {shown:>7s} {flag} bound {row['bound']}")
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
