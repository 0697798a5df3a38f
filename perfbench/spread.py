"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. Run from the repository root, e.g.

    python3 perfbench/spread.py --workloads tune sweep --seeds 0 1 2 3 4

The raw results are appended, one JSON line per run, to
``.perfbench_out/spread.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = os.path.join(".perfbench_out", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            with open(log, "a") as f:
                f.write(json.dumps({"workload": wl, "seed": seed, **res}) + "\n")
            print(f"{wl} seed={seed} correct={res['correct']} failed={res['failed']}", flush=True)
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            print(f"{wl:6s} {name:36s} median={med:12.6g} spread={spread:7.4f} "
                  f"bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
