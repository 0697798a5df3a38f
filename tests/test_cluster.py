"""Cluster specs and per-container heap sizes (paper Table 3, §4 example)."""
import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B, ClusterSpec, cluster_by_name
from repro.core import relm_recommend
from repro.profiler.stats import ProfileStats


class TestClusterA:
    def test_table3_values(self):
        assert CLUSTER_A.nodes == 8
        assert CLUSTER_A.node_mem_mb == 6 * 1024
        assert CLUSTER_A.cores_per_node == 8
        assert CLUSTER_A.node_heap_mb == 4404

    def test_paper_container_example(self):
        # §4 Example: (1, 4404MB), (2, 2202MB), (3, 1468MB), (4, 1101MB).
        choices = [(n, int(CLUSTER_A.heap_mb(n))) for n in range(1, CLUSTER_A.max_containers_per_node + 1)]
        assert choices == [(1, 4404), (2, 2202), (3, 1468), (4, 1101)]

    @pytest.mark.parametrize("n,expected", [(1, 8), (2, 4), (3, 2), (4, 2)])
    def test_max_task_concurrency(self, n, expected):
        assert CLUSTER_A.max_task_concurrency(n) == expected

    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_concurrency_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            CLUSTER_A.max_task_concurrency(n)

    def test_phys_cap_above_heap(self):
        # The RM physical cap must leave headroom beyond heap for the
        # off-heap RSS failure mode (Figure 11) to be representable.
        assert CLUSTER_A.node_phys_mb > CLUSTER_A.node_heap_mb


class TestClusterB:
    def test_table3_values(self):
        assert CLUSTER_B.nodes == 4
        assert CLUSTER_B.node_heap_mb == 16 * 1024

    def test_heap_split_is_equal(self):
        for n in range(1, CLUSTER_B.max_containers_per_node + 1):
            assert CLUSTER_B.heap_mb(n) == pytest.approx(int(CLUSTER_B.node_heap_mb / n))

    def test_network_faster_than_a(self):
        assert CLUSTER_B.network_mbps > CLUSTER_A.network_mbps


class TestCustomSpec:
    def test_choices_respect_max_containers(self):
        spec = ClusterSpec(
            name="T", nodes=2, node_mem_mb=8192, node_heap_mb=6000,
            cores_per_node=4, network_mbps=100, disk_mbps=50,
            max_containers_per_node=2,
        )
        stats = ProfileStats(
            containers_per_node=1, heap_mb=6000.0, cpu_avg_pct=35.0, disk_avg_pct=2.0,
            code_mb=100.0, cache_mb=500.0, shuffle_task_mb=0.0, unmanaged_task_mb=200.0,
            task_concurrency=2, cache_hit_ratio=0.5, spill_fraction=0.0, from_full_gc=True,
        )
        _, _, candidates = relm_recommend(stats, spec)
        assert [c.containers_per_node for c in candidates] == [1, 2]

    def test_concurrency_at_least_one(self):
        spec = ClusterSpec(
            name="T", nodes=1, node_mem_mb=4096, node_heap_mb=3000,
            cores_per_node=2, network_mbps=100, disk_mbps=50,
        )
        assert spec.max_task_concurrency(4) == 1


class TestClusterResolver:
    @pytest.mark.parametrize("name", ["A", "B"])
    def test_known(self, name):
        assert cluster_by_name(name).name == name

    def test_unknown(self):
        with pytest.raises(KeyError):
            cluster_by_name("C")
