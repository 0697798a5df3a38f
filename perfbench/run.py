"""Benchmark entry point: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tune --seed 0 --seconds 10 --trace 0

Workloads (see NOTES.md): ``tune`` (black-box tuning sessions), ``sweep``
(RelM pipeline plus bulk simulation) and ``spark`` (the real PySpark
jobs). ``--trace 0`` measures with tracing off and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics. Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Raw spans
and host facts are written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tune", "sweep", "spark")
OUT_DIR = ".perfbench_out"
#: numpy's OpenBLAS build caps itself at MAX_THREADS=2. One thread is as
#: fast on the tuners' small matrices, and the second only spins; pin the
#: count so a stray environment setting cannot change the tuners' speed.
BLAS_THREADS = "1"
#: Fresh interpreters the import time is measured in; ``setup_s`` takes the median.
IMPORT_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_facts() -> dict:
    import duckdb
    import numpy as np
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pyspark": version("pyspark"),
        "duckdb": duckdb.__version__,
        "platform": platform.platform(),
    }


def import_seconds(workload: str, root: str) -> float:
    """Median time to import the workload's module in a fresh interpreter.

    Run after the workload, so the byte code is compiled and the
    interpreters do not count in ``peak_rss_mb``.
    """
    code = ("import importlib, sys, time; sys.path[:0] = sys.argv[1:3]; "
            "t0 = time.perf_counter(); importlib.import_module(sys.argv[3]); "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, HERE, os.path.join(root, "src"),
                               f"wl_{workload}"], capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child that has ended."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: no src/repro under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)

    t0 = time.perf_counter()
    workload = importlib.import_module(f"wl_{args.workload}")
    import_s = time.perf_counter() - t0

    out = os.path.join(root, OUT_DIR, f"{args.workload}-trace{args.trace}")
    res = workload.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), out_path=out)
    res.values["peak_rss_mb"] = peak_rss_mb()
    import_median = import_seconds(args.workload, root)
    res.values["setup_s"] += import_median
    res.info.insert(0, f"import_s first={import_s:.3f} median of {IMPORT_REPEATS} fresh={import_median:.3f}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in res.values:
            raise KeyError(f"workload {args.workload} did not report {m['name']}")
        metrics[m["name"]] = {"value": float(res.values[m["name"]]), "unit": m["unit"]}

    host = host_facts()
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out + "-result.json", "w") as f:
        json.dump({"host": host, "args": vars(args), "info": res.info,
                   "values": res.values, "failures": res.failures}, f, indent=1)

    print("host " + json.dumps(host))
    for line in res.info:
        print(line)
    for msg in res.failures:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not res.failures, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
