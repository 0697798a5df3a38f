"""ParallelGC heap geometry (paper §2.1, Eq 3 conventions)."""
import pytest
from hypothesis import given, strategies as st

from repro.simcluster.jvm import JVM_RESERVED_FRAC, SURVIVOR_RATIO, HeapGeometry


class TestGeometryValues:
    def test_paper_eq3_convention(self):
        # NR=2, SR=8 on a 4404MB heap: young = heap/3, old = 2·heap/3,
        # eden = young·6/8.
        g = HeapGeometry(4404, 2)
        assert g.young_mb == pytest.approx(4404 / 3)
        assert g.old_mb == pytest.approx(4404 * 2 / 3)
        assert g.eden_mb == pytest.approx((4404 / 3) * 6 / 8)
        assert g.survivor_mb == pytest.approx((4404 / 3) / 8)

    @pytest.mark.parametrize("nr", range(1, 10))
    def test_old_young_partition_heap(self, nr):
        g = HeapGeometry(1000, nr)
        assert g.old_mb + g.young_mb == pytest.approx(1000)

    @pytest.mark.parametrize("nr", range(1, 10))
    def test_old_ratio_matches_new_ratio(self, nr):
        g = HeapGeometry(2202, nr)
        assert g.old_mb / g.young_mb == pytest.approx(nr)

    @pytest.mark.parametrize("sr", [SURVIVOR_RATIO])
    def test_eden_plus_survivors_is_young(self, sr):
        g = HeapGeometry(1101, 2)
        assert g.survivor_mb == pytest.approx(g.young_mb / sr)
        assert g.eden_mb + 2 * g.survivor_mb == pytest.approx(g.young_mb)

    @pytest.mark.parametrize("sr", [SURVIVOR_RATIO])
    def test_survivor_ratio_definition(self, sr):
        # SurvivorRatio = Eden : one Survivor = (SR - 2) : 1 in the
        # paper's Eq 3 convention (young split into SR parts).
        g = HeapGeometry(1101, 2)
        assert g.eden_mb / g.survivor_mb == pytest.approx(sr - 2)

    @pytest.mark.parametrize("nr", range(1, 10))
    def test_higher_new_ratio_shrinks_eden(self, nr):
        if nr < 9:
            assert HeapGeometry(4404, nr + 1).eden_mb < HeapGeometry(4404, nr).eden_mb

    def test_usable_excludes_survivors_and_reserve(self):
        g = HeapGeometry(1000, 1)
        assert g.usable_mb == pytest.approx(1000 - 2 * g.survivor_mb - JVM_RESERVED_FRAC * 1000)

    @pytest.mark.parametrize("heap", [512, 1101, 1468, 2202, 4404, 16384])
    def test_usable_positive_and_below_heap(self, heap):
        for nr in (1, 5, 9):
            g = HeapGeometry(heap, nr)
            assert 0 < g.usable_mb < heap


class TestGeometryValidation:
    def test_rejects_nonpositive_heap(self):
        with pytest.raises(ValueError):
            HeapGeometry(0, 2)

    def test_rejects_bad_new_ratio(self):
        with pytest.raises(ValueError):
            HeapGeometry(1000, 0)


class TestGeometryProperties:
    @given(
        heap=st.floats(min_value=256, max_value=65536),
        nr=st.integers(min_value=1, max_value=9),
    )
    def test_pools_partition_heap(self, heap, nr):
        g = HeapGeometry(heap, nr)
        assert g.old_mb + g.eden_mb + 2 * g.survivor_mb == pytest.approx(heap)
        assert g.eden_mb > 0
        assert g.usable_mb > 0
