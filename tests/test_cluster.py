"""Cluster specs and container enumeration (paper Table 3, §4 example)."""
import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B, ClusterSpec, cluster_by_name


class TestClusterA:
    def test_table3_values(self):
        assert CLUSTER_A.nodes == 8
        assert CLUSTER_A.node_mem_mb == 6 * 1024
        assert CLUSTER_A.cores_per_node == 8
        assert CLUSTER_A.node_heap_mb == 4404

    def test_paper_container_example(self):
        # §4 Example: (1, 4404MB), (2, 2202MB), (3, 1468MB), (4, 1101MB).
        choices = [(c.containers_per_node, int(c.heap_mb)) for c in CLUSTER_A.container_choices()]
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
        for c in CLUSTER_B.container_choices():
            assert c.heap_mb == pytest.approx(
                int(CLUSTER_B.node_heap_mb / c.containers_per_node)
            )

    def test_network_faster_than_a(self):
        assert CLUSTER_B.network_mbps > CLUSTER_A.network_mbps


class TestCustomSpec:
    def test_choices_respect_max_containers(self):
        spec = ClusterSpec(
            name="T", nodes=2, node_mem_mb=8192, node_heap_mb=6000,
            cores_per_node=4, network_mbps=100, disk_mbps=50,
            max_containers_per_node=2,
        )
        assert len(spec.container_choices()) == 2

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
