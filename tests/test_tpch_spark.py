"""TPC-H-lite suite: every query oracle-checked against DuckDB (§6.4)."""
import pytest

from repro.oracle import assert_equivalent
from repro.workloads import tpch, workload_model

SF = 0.002


@pytest.fixture(scope="module")
def tables(spark):
    return tpch.tables(spark, sf=SF)


class TestQueries:
    @pytest.mark.parametrize("name", sorted(tpch.QUERIES))
    def test_query_matches_duckdb(self, spark, tables, name):
        result = tpch.run_query(spark, name, tables)
        assert_equivalent(result, tpch.QUERIES[name], **tables)

    def test_unknown_query_raises(self, spark, tables):
        with pytest.raises(KeyError):
            tpch.run_query(spark, "q99", tables)

    def test_q1_has_flag_status_groups(self, spark, tables):
        rows = tpch.run_query(spark, "q1", tables).collect()
        assert 1 < len(rows) <= 6  # 3 flags x 2 statuses

    def test_q6_single_row(self, spark, tables):
        assert tpch.run_query(spark, "q6", tables).count() == 1

    def test_q18_filters_by_having(self, spark, tables):
        rows = tpch.run_query(spark, "q18", tables).collect()
        assert all(r.sum_qty > 150 for r in rows)


class TestModel:
    def test_model_is_cluster_b_scale(self):
        m = workload_model("TPC-H")
        assert m.input_mb == 50 * 1024  # dbgen SF-50
        assert m.iterations == 21  # 22 queries
        assert m.cache_mb == 0.0
