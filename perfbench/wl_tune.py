"""Workload ``tune``: black-box tuning sessions under the §6.2 protocol.

One pass is 19 sessions on Cluster A: BO, GBO and DDPG on the five suite
apps (Figure 16) plus BO and GBO with the Random-Forest surrogate on
K-means and SVM (Figure 26). Each session trains until its first clean
run lands in the top 5 % of the §6.1 grid, capped at 60 adaptive BO/GBO
iterations and 80 DDPG steps, with the arguments
``fig16_overheads.train_to_top5`` and ``fig26_rf.iterations_to_target``
use.

The tuners' own seed is fixed (``TUNER_SEED``): the iterations a session
needs swing from 5 to the cap with that seed, so a per-run seed there
would make every figure of this workload measure the seed. ``--seed``
sets the order the sessions run in.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.tuners.base
import repro.tuners.bo
import repro.tuners.ddpg
import repro.tuners.gbo
from repro.cluster import CLUSTER_A
from repro.experiments.common import default_config, grid_runtimes, profiled_stats, top5_threshold
from repro.tuners.base import ConfigSpace, Objective
from repro.tuners.bo import bayesian_optimize
from repro.tuners.ddpg import DDPGAgent, ddpg_tune
from repro.tuners.exhaustive import exhaustive_search
from repro.tuners.gbo import guided_bayesian_optimize
from repro.tuners.gp import GaussianProcess
from repro.tuners.lhs import lhs_configs
from repro.tuners.rf import RandomForest
from repro.workloads import SUITE, dominant_pool, workload_model

from common import Result, median_setup, passes, per_layer, tail, timed
from spans import Calls, TracedSurrogate, Tracer, patched

TUNER_SEED = 0
MAX_ITERS = 60
DDPG_MAX_STEPS = 80
BOOTSTRAP = 4  # lhs_configs default
SESSIONS = tuple((app, p) for app in SUITE for p in ("BO", "GBO", "DDPG")) + tuple(
    (app, p) for app in ("K-means", "SVM") for p in ("BO-RF", "GBO-RF")
)
#: Module attributes the traced run patches, at the tuners' import sites.
PATCHES = (
    (repro.tuners.base, "simulate", "simcluster.simulate"),
    (repro.tuners.gbo, "q_metrics", "core.q_metrics"),
    (repro.tuners.ddpg, "q_metrics", "core.q_metrics"),
    (repro.tuners.bo, "expected_improvement", "tuners.ei"),
)


@dataclass(frozen=True)
class Outcome:
    iters: int
    observation_s: float  # simulated runtime summed over the session's probes
    best: tuple
    best_runtime_s: float
    hit: bool  # reached the top-5 % target before the cap
    fit_s: float
    probe_s: float
    wall_s: float
    probe_ms: tuple  # latency of each probe: time since the previous one ended

    def key(self) -> tuple:
        return (self.iters, self.best, self.best_runtime_s, self.hit)


class Hooks:
    """The tuners' own classes and functions, untouched."""

    call = Calls()

    def space(self, cluster, pool):
        return ConfigSpace(cluster, pool)

    def objective(self, model, cluster):
        return ClockedObjective(model, cluster, seed=TUNER_SEED)

    def agent(self, space):
        return DDPGAgent(space=space, seed=TUNER_SEED)

    def fit(self, kind):
        if kind == "rf":
            return lambda x, y: RandomForest.fit(x, y, seed=TUNER_SEED)
        return lambda x, y: GaussianProcess.fit(x, y)


@dataclass
class ClockedObjective(Objective):
    """Records when each probe completes."""

    stamps: list = field(default_factory=list)

    def __call__(self, cfg):
        sample = super().__call__(cfg)
        self.stamps.append(time.perf_counter())
        return sample


@dataclass
class TracedObjective(ClockedObjective):
    tracer: Tracer | None = None

    def __call__(self, cfg):
        with self.tracer.span("tuners.objective"):
            sample = super().__call__(cfg)
        if sample.aborted:
            self.tracer.counts["tuners.objective.aborted"] += 1
        return sample


class TracedHooks(Hooks):
    """The same hooks, each call recorded as a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.call = Calls(tracer)

    def space(self, cluster, pool):
        s = super().space(cluster, pool)
        s.decode = self.tracer.wrap("tuners.decode", s.decode)
        s.encode = self.tracer.wrap("tuners.encode", s.encode)
        return s

    def objective(self, model, cluster):
        return TracedObjective(model, cluster, seed=TUNER_SEED, tracer=self.tracer)

    def agent(self, space):
        a = super().agent(space)
        a.train_step = self.tracer.wrap("tuners.ddpg_train", a.train_step)
        return a

    def fit(self, kind):
        fit = self.tracer.wrap(f"tuners.{kind}_fit", super().fit(kind))
        return lambda x, y: TracedSurrogate(self.tracer, fit(x, y), f"tuners.{kind}_predict")


def setup() -> dict:
    """Per app: (profiled stats, top-5 % threshold, exhaustive observation s)."""
    profiled_stats.cache_clear()
    grid_runtimes.cache_clear()
    ctx = {}
    for app in SUITE:
        ex = exhaustive_search(Objective(workload_model(app), CLUSTER_A, seed=TUNER_SEED),
                               dominant_pool=dominant_pool(app))
        ctx[app] = (profiled_stats(app, "A", TUNER_SEED), top5_threshold(app, "A", TUNER_SEED),
                    ex.total_observation_sec)
    return ctx


def session(app: str, policy: str, ctx: dict, hooks: Hooks) -> Outcome:
    stats, thr, _ = ctx[app]
    space = hooks.space(CLUSTER_A, dominant_pool(app))
    objective = hooks.objective(workload_model(app), CLUSTER_A)
    rng = np.random.default_rng(TUNER_SEED)
    if policy == "DDPG":
        agent = hooks.agent(space)
        start = time.perf_counter()
        res, _ = hooks.call("tuners.ddpg_tune", ddpg_tune, objective, space, stats,
                            default_config(app), seed=TUNER_SEED, max_steps=DDPG_MAX_STEPS,
                            agent=agent, stop_runtime_sec=thr)
        cap = 1 + DDPG_MAX_STEPS
    else:
        kw = dict(seed=TUNER_SEED, bootstrap=lhs_configs(space, rng),
                  surrogate_fit=hooks.fit("rf" if policy.endswith("-RF") else "gp"),
                  max_iters=MAX_ITERS, target_runtime_sec=thr)
        start = time.perf_counter()
        if policy.startswith("GBO"):
            res = hooks.call("tuners.guided_bayesian_optimize", guided_bayesian_optimize,
                             objective, space, stats, **kw)
        else:
            res = hooks.call("tuners.bayesian_optimize", bayesian_optimize, objective, space, **kw)
        cap = BOOTSTRAP + MAX_ITERS
    wall = time.perf_counter() - start
    stamps = [start] + objective.stamps
    last = res.samples[-1]
    hit = not last.aborted and last.failed_containers == 0 and last.runtime_sec <= thr
    clean = [s.runtime_sec for s in res.samples if not s.aborted]
    if res.iterations > cap or (not hit and res.iterations != cap):
        raise AssertionError(f"{res.iterations} probes without reaching the target (cap {cap})")
    if clean and res.best_runtime_sec != min(clean):
        raise AssertionError(f"best {res.best_runtime_sec} is not the fastest clean probe {min(clean)}")
    return Outcome(res.iterations, res.total_observation_sec,
                   tuple(res.best_config.as_row().values()), res.best_runtime_sec, hit,
                   res.fit_seconds, res.probe_seconds, wall,
                   tuple(1e3 * (b - a) for a, b in zip(stamps, stamps[1:])))


def run_pass(order, ctx, hooks, result: Result) -> dict:
    out = {}
    for i in order:
        app, policy = SESSIONS[i]
        result.attempted += 1
        try:
            out[app, policy] = session(app, policy, ctx, hooks)
        except Exception as e:  # a failed session is counted, the pass goes on
            result.fail(f"{app} {policy}: {type(e).__name__}: {e}")
    return out


def same_search(a: dict, b: dict, what: str, result: Result) -> None:
    for k in a.keys() & b.keys():
        if a[k].key() != b[k].key():
            result.fail(f"{k[0]} {k[1]}: {what} differ: {a[k].key()} vs {b[k].key()}")


def run(*, seed: int, seconds: float, trace: bool, out_path: str) -> Result:
    result = Result()
    order = np.random.default_rng(seed).permutation(len(SESSIONS))
    setup_s, ctx = median_setup(setup)
    v = result.values
    v["setup_s"] = setup_s

    if not trace:
        walls, outs = passes(lambda: run_pass(order, ctx, Hooks(), result), seconds)
        for other in outs[1:]:
            same_search(outs[0], other, "repeated passes", result)
    else:
        base_wall, base = timed(lambda: run_pass(order, ctx, Hooks(), result))
        tracer = Tracer()
        with patched(tracer, PATCHES), tracer.span("bench.pass"):
            wall, traced = timed(lambda: run_pass(order, ctx, TracedHooks(tracer), result))
        same_search(base, traced, "untraced and traced runs", result)
        walls, outs = [base_wall], [base]

    first = outs[0]
    done = list(first.values())
    if not done:
        result.fail("no session completed")
        return result
    probes = sum(o.iters for o in done)
    v["wall_s"] = statistics.median(walls)
    # The op is one adaptive BO-family iteration (fit, acquisition search,
    # probe): bootstrap probes are bare simulator calls and DDPG steps a
    # different tuner, and mixing them in puts the median between clusters.
    iter_ms = sorted(ms for out in outs for (_, policy), o in out.items() if policy != "DDPG"
                     for ms in o.probe_ms[BOOTSTRAP:])
    v["op_p50_ms"] = statistics.median(iter_ms)
    v["work_per_s"] = probes / v["wall_s"]
    v["runs_per_op"] = probes / len(done)
    v["overhead_pct"] = statistics.mean(100 * o.observation_s / ctx[app][2] for (app, _), o in first.items())
    target_miss = sum(not o.hit for o in done) / len(done)

    session_ms = sorted(1e3 * o.wall_s for out in outs for o in out.values())
    result.info.append(
        f"pass_s={[round(w, 3) for w in walls]} sessions/pass={len(done)} probes/pass={probes} "
        f"target_miss={target_miss:.3f} session_ms p50={statistics.median(session_ms):.1f} "
        f"bo_iteration_ms p50={v['op_p50_ms']:.2f} {tail(iter_ms)}")
    for (app, policy), o in sorted(first.items()):
        result.info.append(
            f"session {app:9s} {policy:6s} iters={o.iters:3d} overhead={100 * o.observation_s / ctx[app][2]:6.2f}% "
            f"hit={int(o.hit)} ms={1e3 * o.wall_s:.1f}")

    if trace:
        v.update(per_layer(tracer, {
            "tuners.fit_seconds": sum(o.fit_s for o in traced.values()),
            "tuners.probe_seconds": sum(o.probe_s for o in traced.values()),
            "tuners.target_miss": target_miss,
            "trace.overhead_s": wall - base_wall,
        }))
        tracer.dump(out_path, {"workload": "tune", "seed": seed, "untraced_wall_s": base_wall,
                               "traced_wall_s": wall})
    return result
