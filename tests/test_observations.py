"""The paper's empirical findings (Section 3) as executable assertions.

One test per Observation 1–7 plus the figure-level claims the tables
depend on. These pin the simulator's calibration: if a future change
breaks a qualitative finding the paper established on real hardware,
these fail.
"""
from dataclasses import replace

import pytest

from repro.cluster import CLUSTER_A
from repro.config import MemoryConfig, max_resource_allocation
from repro.simcluster import simulate
from repro.workloads import workload_model


def sim(name, cfg, seed=0):
    return simulate(workload_model(name), cfg, CLUSTER_A, seed=seed)


class TestObservation1:
    """Containers should be sized to just meet cache + task memory."""

    def test_thin_containers_help_shuffle_apps(self):
        # Figure 4: WordCount and SortByKey run significantly faster on
        # 4 thin containers than on the default fat container.
        for name in ("WordCount", "SortByKey"):
            fat = sim(name, MemoryConfig(1, 2, 0.0, 0.2, 2))
            thin = sim(name, MemoryConfig(4, 2 if name == "WordCount" else 1, 0.0, 0.2, 2))
            assert thin.runtime_sec < fat.runtime_sec, name

    def test_thin_containers_hurt_ml_apps(self):
        # Figure 4: K-means fails outright with 4 containers per node.
        r = sim("K-means", MemoryConfig(4, 2, 0.4, 0.2, 2))
        assert r.failed_containers > 0


class TestObservation2:
    """Over-provisioning internal pools → unreliable performance."""

    def test_sortbykey_high_shuffle_fails(self):
        # Figure 5 setup (1): 70% of heap for shuffle.
        r = sim("SortByKey", MemoryConfig(1, 2, 0.0, 0.7, 2))
        assert r.failed_containers > 0 or r.gc_overhead > 0.5

    def test_pagerank_default_fails(self):
        # Figure 5 setup (3): PageRank aborts under the default setup.
        r = sim("PageRank", MemoryConfig(1, 2, 0.6, 0.0, 2))
        assert r.aborted

    def test_failure_seeds_vary_counts(self):
        # Figure 5 shows run-to-run variability in failure counts.
        counts = {sim("PageRank", MemoryConfig(1, 2, 0.6, 0.0, 2), seed=s).failed_containers
                  for s in range(5)}
        assert len(counts) > 1


class TestObservation3:
    """Resource bottlenecks bound useful Task Concurrency."""

    def test_concurrency_helps_then_plateaus(self):
        # Figure 6: performance improves with concurrency up to a point.
        r1 = sim("WordCount", MemoryConfig(1, 1, 0.0, 0.2, 2))
        r4 = sim("WordCount", MemoryConfig(1, 4, 0.0, 0.2, 2))
        r8 = sim("WordCount", MemoryConfig(1, 8, 0.0, 0.2, 2))
        assert r4.runtime_sec < r1.runtime_sec
        # Diminishing returns: the second doubling buys less than the first.
        gain1 = r1.runtime_sec - r4.runtime_sec
        gain2 = r4.runtime_sec - r8.runtime_sec
        assert gain2 < gain1

    def test_pagerank_ooms_at_higher_concurrency(self):
        # Figure 6: PageRank runs out of memory for Task Concurrency >= 2.
        safe = sim("PageRank", MemoryConfig(1, 1, 0.6, 0.0, 2))
        unsafe = sim("PageRank", MemoryConfig(1, 2, 0.6, 0.0, 2))
        assert not safe.aborted
        assert unsafe.aborted or unsafe.failed_containers > 0


class TestObservation4:
    """Leave sufficient task memory while optimizing cache storage."""

    def test_cache_helps_until_bottleneck(self):
        # Figure 7: K-means gains from cache capacity until memory runs out.
        low = sim("K-means", MemoryConfig(1, 2, 0.2, 0.1, 2))
        mid = sim("K-means", MemoryConfig(1, 2, 0.6, 0.1, 2))
        high = sim("K-means", MemoryConfig(1, 2, 0.8, 0.1, 2))
        assert mid.runtime_sec < low.runtime_sec
        assert high.failed_containers > 0  # containers fail at 0.8

    def test_sortbykey_more_shuffle_memory_hurts(self):
        # §3.3's counter-intuitive result: raising Shuffle Capacity
        # degrades SortByKey despite fewer spills.
        small = sim("SortByKey", MemoryConfig(1, 2, 0.0, 0.2, 2))
        large = sim("SortByKey", MemoryConfig(1, 2, 0.0, 0.6, 2))
        assert large.runtime_sec > small.runtime_sec
        assert large.layout.spill_fraction < small.layout.spill_fraction  # fewer spills, yet slower


class TestObservation5:
    """Old smaller than Cache Storage → huge GC overheads."""

    def test_gc_overhead_spike(self):
        r = sim("K-means", MemoryConfig(1, 2, 0.7, 0.1, 1))  # old = heap/2 < cache
        ok = sim("K-means", MemoryConfig(1, 2, 0.7, 0.1, 5))
        assert r.gc_overhead > ok.gc_overhead + 0.1

    def test_figure8_three_x_runtime_gap(self):
        # Figure 8: at high cache capacities, high NewRatio setups run
        # far faster than low ones (paper reports ~3x).
        bad = sim("K-means", MemoryConfig(1, 2, 0.7, 0.1, 1))
        good = sim("K-means", MemoryConfig(1, 2, 0.7, 0.1, 5))
        assert bad.runtime_sec / good.runtime_sec > 1.5


class TestObservation6:
    """Old larger than cache trades performance for reliability."""

    def test_new_ratio_sweet_spot(self):
        # Figure 9: NewRatio 2 "just fits" the 0.6 cache; much higher
        # values add young-GC overhead.
        gcs = {nr: sim("K-means", MemoryConfig(1, 2, 0.6, 0.1, nr)).gc_overhead
               for nr in (1, 2, 8)}
        assert gcs[2] < gcs[1]  # NR1: old too small → thrash
        assert gcs[2] < gcs[8]  # NR8: too many young GCs

    def test_high_new_ratio_prevents_rss_kills(self):
        # Figure 11: a workload with heavy off-heap network buffers gets
        # its physical memory collected under high NewRatio.
        hungry = replace(workload_model("PageRank"), net_task_mb=900.0)
        low = simulate(hungry, MemoryConfig(1, 2, 0.3, 0.0, 2), CLUSTER_A)
        high = simulate(hungry, MemoryConfig(1, 2, 0.3, 0.0, 8), CLUSTER_A)
        assert low.layout.rss_overrun_mb > 0
        assert high.layout.rss_overrun_mb < low.layout.rss_overrun_mb


class TestObservation7:
    """Shuffle Capacity beyond ½·Eden → huge GC overheads."""

    def test_gc_grows_with_shuffle_beyond_half_eden(self):
        # Figure 10: SortByKey GC overhead climbs with Shuffle Capacity
        # once the per-task grant exceeds half the Eden share.
        gcs = [sim("SortByKey", MemoryConfig(4, 1, 0.0, f, 1)).gc_overhead
               for f in (0.1, 0.3, 0.6)]
        assert gcs[0] < gcs[1] < gcs[2]

    def test_sixty_percent_gc_at_high_capacity(self):
        # §3.3: "tasks spend 60% time on average in GC for Shuffle
        # Capacity of 0.6" (order-of-magnitude check).
        r = sim("SortByKey", MemoryConfig(1, 2, 0.0, 0.6, 2))
        assert r.gc_overhead > 0.35


class TestDefaultsLeaveRoom:
    """§1/§6.2: defaults leave 50–70% improvements on the table."""

    @pytest.mark.parametrize(
        "name,best",
        [
            ("WordCount", MemoryConfig(4, 2, 0.0, 0.4, 1)),
            ("SortByKey", MemoryConfig(4, 1, 0.0, 0.2, 1)),
            ("SVM", MemoryConfig(4, 2, 0.8, 0.1, 3)),
        ],
    )
    def test_tuned_beats_default_substantially(self, name, best):
        dflt = sim(name, max_resource_allocation(CLUSTER_A))
        tuned = sim(name, best)
        assert tuned.runtime_sec < 0.65 * dflt.runtime_sec
