"""Record benchmark numbers: several seeds per workload, plus one traced run.

    python3 perfbench/record.py --label parent --out perfbench/baseline.json

Each run is a fresh ``run.py`` process with its own seed, 1 to RUNS.  For every
end-to-end metric the record keeps the median and quartiles over the
runs and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json; the traced run of each workload adds its per-layer
metrics.  The table printed at the end flags spreads above the bound.
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
ROOT = HERE.parent
RUNS = 10   # seeds per workload; enough for stable quartiles


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, 1 + RUNS)
    record: dict = {
        "python": platform.python_version(),
        "label": args.label,
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "run_seconds": seconds,
        "seeds": list(seeds),
        "workloads": {},
    }
    rows = []
    for workload in workloads:
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry: dict = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        entry["failed_ratio"] = entry["failed"] / entry["attempted"]
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][metric] = {
                "unit": units[metric], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[metric], "values": values,
            }
            rows.append((workload, metric, median, units[metric], spread, bounds[metric]))
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed_ratio={entry['failed_ratio']:.6f}",
              flush=True)

    for workload, metric, median, unit, spread, bound in rows:
        flag = "" if spread <= bound / 3 else (" over bound/3" if spread <= bound else " OVER BOUND")
        print(f"{workload:13} {metric:12} median {median:10.4f} {unit:4} "
              f"spread {spread:.3f} (bound {bound}){flag}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
