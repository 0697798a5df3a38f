"""Workload ``sweep``: the white-box path plus bulk simulation.

One pass covers the six workload models (the suite plus TPC-H) on
Clusters A and B. For each of the 12 pairs it runs the RelM pipeline
(``profile_with_full_gc`` -> ``generate_stats`` -> ``relm_recommend`` ->
``simulate`` the recommendation) once per profile seed, then
``exhaustive_search`` over the §6.1 grid, and ``simulate`` over a dense
grid: every containers-per-node n, every task concurrency p <= cores/n,
dominant pool fraction 0.05-0.90 in 0.05 steps and NewRatio 1-9 (47,628
configurations over all pairs).

``--seed`` is the simulator seed and picks the profiler seeds.
"""
from __future__ import annotations

import statistics
import time

import repro.profiler.stats
import repro.simcluster.profile_gen
import repro.tuners.base
from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import MINOR_POOL_CAPACITY, MemoryConfig
from repro.core import relm_recommend
from repro.experiments.common import default_config
from repro.profiler import generate_stats, profile_with_full_gc
from repro.simcluster import simulate
from repro.tuners.base import Objective
from repro.tuners.exhaustive import exhaustive_search
from repro.workloads import SUITE, dominant_pool, workload_model

from common import Result, median_setup, passes, per_layer, tail, timed
from spans import Calls, Tracer, patched

MODELS = SUITE + ("TPC-H",)
CLUSTERS = (CLUSTER_A, CLUSTER_B)
FRACTIONS = tuple(round(0.05 * k, 2) for k in range(1, 19))
NEW_RATIOS = tuple(range(1, 10))
DENSE_TOTAL = 47_628
#: RelM recommendations per pair, each from its own profile: one profile's
#: noise can flip a recommendation (PageRank on A: 10 % or 80 % from the
#: optimum), so the gap is averaged over several.
PROFILES = 8
#: profile_with_full_gc profiles with seed + attempt, so leave room for 3.
PROFILE_SEED_STEP = 10
PATCHES = (
    (repro.tuners.base, "simulate", "simcluster.simulate"),
    (repro.simcluster.profile_gen, "simulate", "simcluster.simulate"),
    (repro.profiler.stats, "profile_app", "simcluster.profile_app"),
)


def dense_grid(cluster, pool: str) -> list[MemoryConfig]:
    out = []
    for n in range(1, cluster.max_containers_per_node + 1):
        for p in range(1, cluster.max_task_concurrency(n) + 1):
            for frac in FRACTIONS:
                cache, shuffle = (frac, MINOR_POOL_CAPACITY) if pool == "cache" else (0.0, frac)
                for nr in NEW_RATIOS:
                    out.append(MemoryConfig(n, p, cache, shuffle, nr))
    return out


def dense_size(cluster) -> int:
    """The dense grid's size by formula: sum over n of cores//n, times 18 x 9."""
    pairs = sum(cluster.cores_per_node // n for n in range(1, cluster.max_containers_per_node + 1))
    return pairs * len(FRACTIONS) * len(NEW_RATIOS)


def setup() -> dict:
    return {(c.name, pool): dense_grid(c, pool) for c in CLUSTERS for pool in ("cache", "shuffle")}


def relm(model, name: str, cluster, profile_seed: int, seed: int, call: Calls):
    """One RelM recommendation from one profile: (config, its simulated run, runs)."""
    profile, runs = call("profiler.profile_with_full_gc", profile_with_full_gc,
                         model, default_config(name, cluster), cluster, seed=profile_seed)
    stats = call("profiler.generate_stats", generate_stats, profile)
    rec, _, candidates = call("core.relm_recommend", relm_recommend, stats, cluster)
    if call.tracer is not None:
        call.tracer.counts["profiler.profile_runs"] += runs
        call.tracer.counts["core.arbitrate.iters"] += sum(c.iterations for c in candidates)
    return rec, call("simcluster.simulate", simulate, model, rec, cluster, seed=seed), runs


def pipeline(name: str, cluster, grids: dict, seed: int, call: Calls) -> dict:
    model, pool = workload_model(name), dominant_pool(name)
    recs = [relm(model, name, cluster, PROFILE_SEED_STEP * (PROFILES * seed + k), seed, call)
            for k in range(PROFILES)]
    ex = call("tuners.exhaustive_search", exhaustive_search,
              Objective(model, cluster, seed=seed), dominant_pool=pool)
    grid = grids[cluster.name, pool]
    dense = [call("simcluster.simulate", simulate, model, c, cluster, seed=seed) for c in grid]
    best = min(r.runtime_sec for r in dense if not r.aborted and r.failed_containers == 0)
    ex_clean = [s.runtime_sec for s in ex.samples if not s.aborted and s.failed_containers == 0]
    if ex_clean and min(ex_clean) < best:
        raise AssertionError(f"the §6.1 grid beats the dense grid that contains it: "
                             f"{min(ex_clean)} < {best}")
    return {
        "recs": tuple(tuple(rec.as_row().values()) for rec, _, _ in recs),
        "rec_failed": sum(run.failed_containers + int(run.aborted) for _, run, _ in recs),
        "gap_pct": statistics.mean(100 * (run.runtime_sec / best - 1) for _, run, _ in recs),
        "profile_runs": statistics.mean(runs for _, _, runs in recs),
        "configs": sum(runs + 1 for _, _, runs in recs) + len(ex.samples) + len(dense),
    }


def run_pass(grids: dict, seed: int, call: Calls, result: Result) -> dict:
    """Every model on both clusters: (model, cluster) -> outputs, plus the
    seconds each model took on both clusters under ``"model_s"``."""
    out = {"model_s": []}
    for name in MODELS:
        start = time.perf_counter()
        for cluster in CLUSTERS:
            result.attempted += 1
            try:
                rec = pipeline(name, cluster, grids, seed, call)
            except Exception as e:  # a failed pipeline is counted, the pass goes on
                result.fail(f"{name} on {cluster.name}: {type(e).__name__}: {e}")
                continue
            if rec["rec_failed"]:
                result.fail(f"{name} on {cluster.name}: RelM's recommendations {rec['recs']} "
                            f"failed {rec['rec_failed']} containers or runs")
            out[name, cluster.name] = rec
        out["model_s"].append(time.perf_counter() - start)
    return out


def same_outputs(a: dict, b: dict, what: str, result: Result) -> None:
    for k in a.keys() & b.keys() - {"model_s"}:
        if a[k] != b[k]:
            result.fail(f"{k}: {what} differ: {a[k]} vs {b[k]}")


def run(*, seed: int, seconds: float, trace: bool, out_path: str) -> Result:
    result = Result()
    setup_s, grids = median_setup(setup)
    v = result.values
    v["setup_s"] = setup_s
    for c in CLUSTERS:
        for pool in ("cache", "shuffle"):
            if len(grids[c.name, pool]) != dense_size(c):
                result.fail(f"dense grid {c.name}/{pool}: {len(grids[c.name, pool])} configs, "
                            f"formula says {dense_size(c)}")
    if len(MODELS) * sum(dense_size(c) for c in CLUSTERS) != DENSE_TOTAL:
        result.fail(f"dense grid total is not {DENSE_TOTAL}")

    if not trace:
        walls, outs = passes(lambda: run_pass(grids, seed, Calls(), result), seconds)
        for other in outs[1:]:
            same_outputs(outs[0], other, "repeated passes", result)
    else:
        base_wall, base = timed(lambda: run_pass(grids, seed, Calls(), result))
        tracer = Tracer()
        with patched(tracer, PATCHES), tracer.span("bench.pass"):
            wall, traced = timed(lambda: run_pass(grids, seed, Calls(tracer), result))
        same_outputs(base, traced, "untraced and traced runs", result)
        walls, outs = [base_wall], [base]

    first = {k: r for k, r in outs[0].items() if k != "model_s"}
    if not first:
        result.fail("no pipeline completed")
        return result
    recs = list(first.values())
    model_ms = sorted(1e3 * s for out in outs for s in out["model_s"])
    v["wall_s"] = statistics.median(walls)
    v["op_p50_ms"] = statistics.median(model_ms)
    v["work_per_s"] = sum(r["configs"] for r in recs) / v["wall_s"]
    v["runs_per_op"] = statistics.mean(r["profile_runs"] for r in recs)
    v["overhead_pct"] = statistics.mean(r["gap_pct"] for r in recs)

    result.info.append(f"pass_s={[round(w, 3) for w in walls]} pipelines/pass={len(recs)} "
                       f"configs/pass={sum(r['configs'] for r in recs)} "
                       f"relm_failed={sum(r['rec_failed'] for r in recs)} "
                       f"model_ms p50={v['op_p50_ms']:.1f} {tail(model_ms)}")
    for (name, cl), r in sorted(first.items()):
        result.info.append(f"relm {name:9s} {cl} gap={r['gap_pct']:6.1f}% "
                           f"profile_runs={r['profile_runs']:.2f} recs={sorted(set(r['recs']))}")
    if trace:
        v.update(per_layer(tracer, {"trace.overhead_s": wall - base_wall}))
        tracer.dump(out_path, {"workload": "sweep", "seed": seed, "untraced_wall_s": base_wall,
                               "traced_wall_s": wall})
    return result
