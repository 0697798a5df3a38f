"""MemoryConfig validation, defaults (Table 4), and the §6.1 grid."""
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import (
    GRID_NEW_RATIOS,
    GRID_POOL_FRACTIONS,
    MINOR_POOL_CAPACITY,
    MemoryConfig,
    check_rows,
    config_rows,
    max_resource_allocation,
)
from repro.tuners.base import ConfigSpace


class TestMemoryConfigValidation:
    def test_valid(self):
        MemoryConfig(1, 2, 0.4, 0.2, 2)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(containers_per_node=0),
            dict(task_concurrency=0),
            dict(cache_capacity=-0.1),
            dict(cache_capacity=1.1),
            dict(shuffle_capacity=1.2),
            dict(new_ratio=0),
            dict(new_ratio=10),
        ],
    )
    def test_rejects_bad_values(self, kw):
        base = dict(
            containers_per_node=1, task_concurrency=2, cache_capacity=0.4,
            shuffle_capacity=0.2, new_ratio=2,
        )
        base.update(kw)
        with pytest.raises(ValueError):
            MemoryConfig(**base)

    def test_rejects_pool_overflow(self):
        with pytest.raises(ValueError):
            MemoryConfig(1, 2, 0.7, 0.5, 2)

    @pytest.mark.parametrize("n,heap", [(1, 4404), (2, 2202), (3, 1468), (4, 1101)])
    def test_heap_mb(self, n, heap):
        cfg = MemoryConfig(n, 1, 0.0, 0.1, 1)
        assert CLUSTER_A.heap_mb(cfg.containers_per_node) == heap

    def test_with_updates(self):
        cfg = MemoryConfig(1, 2, 0.4, 0.2, 2)
        assert replace(cfg, task_concurrency=4).task_concurrency == 4
        assert cfg.task_concurrency == 2  # frozen original

    def test_as_row_keys(self):
        row = MemoryConfig(1, 2, 0.4, 0.2, 2).as_row()
        assert set(row) == {
            "containers_per_node", "task_concurrency", "cache_capacity",
            "shuffle_capacity", "new_ratio",
        }


class TestRowValidation:
    """:func:`check_rows` holds a batch of rows to MemoryConfig's rules."""

    VALID = (1, 2, 0.4, 0.2, 2)

    @pytest.mark.parametrize(
        "row,rule",
        [
            pytest.param((0, 2, 0.4, 0.2, 2), "containers_per_node", id="containers"),
            pytest.param((1, 0, 0.4, 0.2, 2), "task_concurrency", id="concurrency"),
            pytest.param((1, 2, 1.1, 0.0, 2), "cache_capacity", id="pool-range"),
            pytest.param((1, 2, 0.7, 0.5, 2), "unified pool", id="pool-overflow"),
            pytest.param((1, 2, 0.4, 0.2, 10), "new_ratio", id="new-ratio"),
        ],
    )
    def test_rejects_what_memory_config_rejects(self, row, rule):
        with pytest.raises(ValueError, match=rule):
            MemoryConfig(*row)
        with pytest.raises(ValueError, match=rule):
            check_rows(np.array([self.VALID, row, self.VALID], dtype=float))

    def test_accepts_the_grid(self):
        for pool in ("cache", "shuffle"):
            check_rows(ConfigSpace(CLUSTER_B, pool).grid_rows())

    def test_config_rows_in_field_order(self):
        cfgs = [MemoryConfig(*self.VALID), MemoryConfig(4, 8, 0.0, 0.6, 9)]
        assert config_rows(cfgs).tolist() == [list(self.VALID), [4, 8, 0.0, 0.6, 9]]
        assert config_rows([]).shape == (0, 5)


class TestDefaults:
    def test_table4(self):
        cfg = max_resource_allocation(CLUSTER_A)
        assert cfg.containers_per_node == 1
        assert cfg.task_concurrency == 2
        assert cfg.cache_capacity + cfg.shuffle_capacity == pytest.approx(0.6)
        assert cfg.new_ratio == 2
        assert CLUSTER_A.heap_mb(cfg.containers_per_node) == 4404


class TestGrid:
    @pytest.mark.parametrize(
        "cluster,pool,size",
        [
            pytest.param(CLUSTER_A, "cache", 176, id="cache"),
            pytest.param(CLUSTER_A, "shuffle", 176, id="shuffle"),
            pytest.param(CLUSTER_B, "shuffle", 224, id="B-shuffle"),
        ],
    )
    def test_grid_size_near_paper(self, cluster, pool, size):
        # Paper reports 192 configurations; with Task Concurrency capped
        # at cores/containers our grid has 176 on Cluster A (see
        # EXPERIMENTS.md). Cluster B's 16 cores drop only p=8 at n=3, 4.
        grid = ConfigSpace(cluster, pool).grid()
        assert len(grid) == size
        for c in grid:
            assert c.task_concurrency <= cluster.max_task_concurrency(c.containers_per_node)

    def test_grid_unique(self):
        grid = ConfigSpace(CLUSTER_A, "cache").grid()
        assert len({tuple(c.as_row().values()) for c in grid}) == len(grid)

    def test_cache_grid_pins_minor_shuffle(self):
        for c in ConfigSpace(CLUSTER_A, "cache").grid():
            assert c.shuffle_capacity == MINOR_POOL_CAPACITY
            assert c.cache_capacity in GRID_POOL_FRACTIONS

    def test_shuffle_grid_has_no_cache(self):
        for c in ConfigSpace(CLUSTER_A, "shuffle").grid():
            assert c.cache_capacity == 0.0
            assert c.shuffle_capacity in GRID_POOL_FRACTIONS

    def test_new_ratios_from_grid(self):
        nrs = {c.new_ratio for c in ConfigSpace(CLUSTER_A, "cache").grid()}
        assert nrs == set(GRID_NEW_RATIOS)

    def test_concurrency_capped_by_cores(self):
        for c in ConfigSpace(CLUSTER_A, "cache").grid():
            assert c.task_concurrency <= CLUSTER_A.max_task_concurrency(c.containers_per_node)

    def test_cluster_b_grid_larger_cores(self):
        grid = ConfigSpace(CLUSTER_B, "cache").grid()
        assert any(c.task_concurrency == 8 for c in grid)

    def test_rejects_unknown_pool(self):
        with pytest.raises(ValueError):
            ConfigSpace(CLUSTER_A, "heap")
