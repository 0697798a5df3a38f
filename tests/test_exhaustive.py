"""Exhaustive search: the sequential §6.1 grid baseline."""
from repro.cluster import CLUSTER_A
from repro.tuners.base import ConfigSpace, Objective
from repro.tuners.exhaustive import exhaustive_search
from repro.workloads import workload_model


class TestSequential:
    def test_covers_whole_grid(self):
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = exhaustive_search(obj, dominant_pool="cache")
        assert res.iterations == len(ConfigSpace(CLUSTER_A, "cache").grid())

    def test_best_is_clean_minimum(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        res = exhaustive_search(obj, dominant_pool="cache")
        clean = [s for s in res.samples if not s.aborted]
        assert res.best_runtime_sec <= min(s.runtime_sec for s in clean) + 1e-9
