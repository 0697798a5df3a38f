"""SimulatedRun behavior: determinism, structure, failure accounting."""
import hashlib

import numpy as np
import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import MemoryConfig, max_resource_allocation
from repro.simcluster import simulate
from repro.tuners.base import ConfigSpace
from repro.tuners.lhs import lhs_configs
from repro.workloads import SUITE, dominant_pool, workload_model
from repro.workloads.base import MODELS


class TestDeterminism:
    @pytest.mark.parametrize("name", SUITE)
    def test_same_seed_same_run(self, name):
        m = workload_model(name)
        cfg = max_resource_allocation(CLUSTER_A)
        a = simulate(m, cfg, CLUSTER_A, seed=7)
        b = simulate(m, cfg, CLUSTER_A, seed=7)
        assert a.runtime_sec == b.runtime_sec
        assert a.failed_containers == b.failed_containers

    def test_different_seeds_jitter_runtime(self):
        m = workload_model("WordCount")
        cfg = max_resource_allocation(CLUSTER_A)
        rts = {simulate(m, cfg, CLUSTER_A, seed=s).runtime_sec for s in range(5)}
        assert len(rts) == 5  # log-normal noise differs per seed

    def test_noise_is_small_for_clean_runs(self):
        m = workload_model("WordCount")
        cfg = max_resource_allocation(CLUSTER_A)
        rts = [simulate(m, cfg, CLUSTER_A, seed=s).runtime_sec for s in range(10)]
        assert max(rts) / min(rts) < 1.25


class TestStructure:
    @pytest.mark.parametrize("name", SUITE)
    def test_positive_runtime(self, name):
        r = simulate(workload_model(name), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        assert r.runtime_sec > 0
        assert r.runtime_min == pytest.approx(r.runtime_sec / 60)

    @pytest.mark.parametrize("name", SUITE)
    def test_utilizations_bounded(self, name):
        r = simulate(workload_model(name), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        assert 0 <= r.cpu_avg_pct <= 100
        assert 0 <= r.disk_avg_pct <= 100

    def test_gc_overhead_property(self):
        r = simulate(workload_model("K-means"), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        assert r.gc_overhead == r.gc.total


class TestScalingBehavior:
    def test_more_slots_fewer_waves_faster(self):
        m = workload_model("WordCount")
        few = simulate(m, MemoryConfig(1, 2, 0.0, 0.2, 1), CLUSTER_A)
        many = simulate(m, MemoryConfig(2, 4, 0.0, 0.2, 1), CLUSTER_A)
        assert many.runtime_sec < few.runtime_sec

    def test_cluster_b_faster_at_equal_slots(self):
        # B has half the nodes of A, so compare at the same total slot
        # count (64): B's bigger heaps and faster network win.
        m = workload_model("SVM")
        a = simulate(m, MemoryConfig(1, 8, 0.5, 0.1, 2), CLUSTER_A)
        b = simulate(m, MemoryConfig(1, 16, 0.5, 0.1, 2), CLUSTER_B)
        assert b.runtime_sec < a.runtime_sec

    def test_failures_inflate_runtime(self):
        m = workload_model("K-means")
        clean = simulate(m, MemoryConfig(1, 2, 0.6, 0.1, 5), CLUSTER_A)
        failing = simulate(m, MemoryConfig(4, 2, 0.4, 0.2, 2), CLUSTER_A)
        assert failing.failed_containers > 0
        assert clean.failed_containers == 0


class TestFullGcPresence:
    def test_low_pressure_run_has_no_full_gc(self):
        # SVM on a big heap: young GCs suffice (§6.4 setup of Figure 22).
        r = simulate(workload_model("SVM"), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        assert r.full_gc_events == 0

    def test_pressured_run_has_full_gc(self):
        r = simulate(workload_model("PageRank"), MemoryConfig(1, 2, 0.6, 0.0, 2), CLUSTER_A)
        assert r.full_gc_events > 0

    def test_small_heap_restores_full_gc_for_svm(self):
        # The §4.1 remedial heuristics (smaller heap, more concurrency).
        r = simulate(workload_model("SVM"), MemoryConfig(4, 2, 0.4, 0.1, 4), CLUSTER_A)
        assert r.full_gc_events > 0


def _run_line(r) -> str:
    """One run's fields to the bit: its runtime, failures, full GCs,
    utilisations, GC terms and the layout's float fields."""
    lay = [v.hex() for v in vars(r.layout).values() if isinstance(v, float)]
    return " ".join([
        r.runtime_sec.hex(), str(r.failed_containers), str(r.aborted),
        str(r.full_gc_events), r.cpu_avg_pct.hex(), r.disk_avg_pct.hex(),
        *(float(v).hex() for v in vars(r.gc).values()), *lay,
    ])


class TestGridFingerprint:
    def test_grid_runs_are_bit_identical(self):
        # Every §6.1 grid row of the six models on Clusters A and B at
        # seeds 0–1, hashed down to the bit: the golden tables see only
        # rounded values, so a one-ulp drift in the runtime model would
        # pass them but not this.
        lines = []
        for cluster in (CLUSTER_A, CLUSTER_B):
            for name in MODELS:
                model = workload_model(name)
                for cfg in ConfigSpace(cluster, dominant_pool(name)).grid():
                    for seed in (0, 1):
                        lines.append(_run_line(simulate(model, cfg, cluster, seed=seed)))
        assert len(lines) == 4800
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "044a74e57366039c206931235e3a06a0822eff486f435359e03cec942e83f244"
        )


class TestOffGridFingerprint:
    def test_off_grid_runs_are_bit_identical(self):
        # The configurations the tuners and the benchmark probe besides
        # the §6.1 grid: every 5th row of the dense grid (pool fractions
        # in 0.05 steps, NewRatio 1–9, every Task Concurrency under the
        # core cap), 200 decoded unit-cube points and the LHS bootstraps
        # of seeds 0–2, for the six models on Clusters A and B at seeds 0–1.
        lines = []
        for cluster in (CLUSTER_A, CLUSTER_B):
            for name in MODELS:
                model = workload_model(name)
                space = ConfigSpace(cluster, dominant_pool(name))
                dense = [space.config(n, p, round(0.05 * k, 2), nr)
                         for n in range(1, cluster.max_containers_per_node + 1)
                         for p in range(1, cluster.cores_per_node // n + 1)
                         for k in range(1, 19) for nr in range(1, 10)]
                cfgs = (dense[::5] + space.configs(space.decode(np.random.default_rng(0).random((200, 4))))
                        + [c for s in range(3) for c in lhs_configs(space, np.random.default_rng(s))])
                lines += [_run_line(simulate(model, cfg, cluster, seed=seed)) for cfg in cfgs for seed in (0, 1)]
        assert len(lines) == 24156
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "e6e23ec72505852ee4ee5c7247dbe4a82ae374939b307f9f69aa6af79da4c08f"
        )
