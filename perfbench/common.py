"""Pieces shared by the three workloads."""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

#: Repeats of the repeatable part of set-up; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Passes every timed run makes at least, so that each median has two samples.
MIN_PASSES = 2


@dataclass
class Result:
    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0  # checks failed, operations raised; each entry in ``failures`` counts once
    failures: list[str] = field(default_factory=list)  # any entry makes the run incorrect
    info: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.failures.append(msg)


def timed(fn):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def median_setup(fn) -> tuple[float, object]:
    """Run ``fn`` SETUP_REPEATS times; (median seconds, last result)."""
    times, out = [], None
    for _ in range(SETUP_REPEATS):
        dt, out = timed(fn)
        times.append(dt)
    return statistics.median(times), out


def passes(run_pass, seconds: float) -> tuple[list[float], list]:
    """Repeat ``run_pass`` MIN_PASSES times, then again while one more pass
    as long as the last still ends within ``seconds``."""
    walls, outs = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + walls[-1] <= seconds:
        dt, out = timed(run_pass)
        walls.append(dt)
        outs.append(out)
    return walls, outs


def tail(sorted_ms: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(sorted_ms)
    if n < 20:
        return f"(n={n}, too few for a tail)"
    return f"p{100 * (n - 10) / n:.1f}={sorted_ms[n - 11]:.2f} (n={n})"


#: The Spark jobs of the ``spark`` workload, as named in its metrics.
SPARK_JOBS = ("WordCount", "SortByKey", "K-means", "SVM", "PageRank") + tuple(
    f"TPC-H.{q}" for q in ("q1", "q3", "q6", "q12", "q14", "q18")
)


def per_layer(tracer, extra: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a finished trace.

    Layers a workload does not exercise read 0; ``extra`` adds the
    workload's own figures (and must hold ``trace.overhead_s``).
    """
    summary = tracer.summary()
    spans, layers, counts = summary["spans"], summary["layers"], tracer.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def busy_prefix(prefix):
        return sum(s["busy_s"] for n, s in spans.items() if n.startswith(prefix))

    sim_calls = calls("simcluster.simulate")
    probes = calls("tuners.objective")
    v = {
        "simcluster.simulate.calls": sim_calls,
        "simcluster.simulate.busy_s": busy("simcluster.simulate"),
        "simcluster.simulate.us_per_call": 1e6 * busy("simcluster.simulate") / sim_calls if sim_calls else 0.0,
        "simcluster.profile_app.busy_s": busy("simcluster.profile_app"),
        "profiler.generate_stats.busy_s": busy("profiler.generate_stats"),
        "core.relm_recommend.calls": calls("core.relm_recommend"),
        "core.relm_recommend.busy_s": busy("core.relm_recommend"),
        "core.q_metrics.calls": calls("core.q_metrics"),
        "core.q_metrics.busy_s": busy("core.q_metrics"),
        "tuners.decode.calls": calls("tuners.decode"),
        "tuners.decode.busy_s": busy("tuners.decode"),
        "tuners.encode.calls": calls("tuners.encode"),
        "tuners.gp_fit.calls": calls("tuners.gp_fit"),
        "tuners.gp_fit.busy_s": busy("tuners.gp_fit"),
        "tuners.ei.busy_s": busy("tuners.ei"),
        "tuners.rf_fit.busy_s": busy("tuners.rf_fit"),
        "tuners.rf_predict.calls": calls("tuners.rf_predict"),
        "tuners.rf_predict.busy_s": busy("tuners.rf_predict"),
        "tuners.ddpg_train.calls": calls("tuners.ddpg_train"),
        "tuners.ddpg_train.busy_s": busy("tuners.ddpg_train"),
        "tuners.objective.calls": probes,
        "tuners.objective.aborted_ratio": counts["tuners.objective.aborted"] / probes if probes else 0.0,
        "profiler.profile_runs": counts["profiler.profile_runs"],
        "core.arbitrate.iters": counts["core.arbitrate.iters"],
        "tuners.fit_seconds": 0.0,
        "tuners.probe_seconds": 0.0,
        "tuners.target_miss": 0.0,
        "spark.cold_pass_s": 0.0,
        "synth_data.busy_s": busy_prefix("synth_data."),
        "oracle.busy_s": busy_prefix("oracle."),
        "trace.spans": sum(s["calls"] for s in spans.values()),
    }
    for job in SPARK_JOBS:
        v[f"workloads.{job}.s"] = busy(f"workloads.{job}")
    for layer in ("simcluster", "profiler", "core", "tuners", "workloads"):
        v[f"{layer}.self_s"] = layers.get(layer, 0.0)
    v.update(extra)
    return v
