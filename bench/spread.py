"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py face_ring,rees_split 1-10
    python3 bench/spread.py all 1-5 --trace 1

Runs the command in BENCHMARK.json once per seed, as separate processes,
and prints for each workload and metric the median of the values, and the
distance between their first and third quartiles (``statistics.quantiles``
with n=4) as a share of that median, next to the metric's bound.
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


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", help="comma-separated names, or all")
    parser.add_argument("seeds", help="a seed or a range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in workloads:
        values: dict = {}
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(
                f"{workload} seed={seed} {time.perf_counter() - start:.1f} s "
                f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
                + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                flush=True,
            )
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2 or not med:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            bound = bounds.get(name)
            limit = f"bound {bound}" if bound is not None else ""
            print(f"  {workload:<15} {name:<36} median {med:12.5g}  iqr/median {(q3 - q1) / med:7.4f}  {limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
