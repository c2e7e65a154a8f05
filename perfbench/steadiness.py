"""Run-to-run spread of the end-to-end metrics.

Runs every workload once per seed, each run in its own process, and
writes ``perfbench/steadiness.json``: per workload and end-to-end
metric, the ten values, their quartiles and the spread (distance
between the first and third quartile over the median) next to the
metric's bound from ``BENCHMARK.json``::

    python3 perfbench/steadiness.py --runs 10 --seconds 12

Takes about 20 minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarize(results: dict[str, list[dict]]) -> dict:
    """``results``: workload -> list of result-line metric dicts."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {}
    for workload, runs in results.items():
        out[workload] = {}
        for name, bound in bounds.items():
            values = [run[name]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            out[workload][name] = {
                "values": [round(v, 6) for v in values],
                "median": round(statistics.median(values), 6),
                "q1": round(q1, 6),
                "q3": round(q3, 6),
                "spread": round((q3 - q1) / statistics.median(values), 4),
                "bound": bound,
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results[workload] = []
        for seed in range(1, args.runs + 1):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True, timeout=600,
            )
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
                return 1
            results[workload].append(result["metrics"])
    summary = summarize(results)
    record = {
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "seeds": list(range(1, args.runs + 1)),
        "seconds": args.seconds,
        "workloads": summary,
    }
    (HERE / "steadiness.json").write_text(json.dumps(record, indent=2) + "\n")
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            print(f"{workload:14s} {name:16s} spread {row['spread']:.3f} "
                  f"(bound {row['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
