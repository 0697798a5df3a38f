"""TPC-H (paper Table 2: SQL, dbgen SF-50, 128MB partitions; Figure 21).

Real jobs: a TPC-H-lite suite of six queries over the provided
synthetic generators (lineitem/orders/customer/part), each expressed in
Spark SQL-compatible DataFrame code and oracle-checked against DuckDB
running the same SQL text. The paper uses TPC-H on Cluster B to show
RelM's robustness to workload variation (§6.4, Figure 21).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from .. import synth_data

#: Query name → (SQL over lineitem/orders/customer/part). The same text
#: runs on Spark (via temp views) and on DuckDB (via the oracle), so the
#: result diff exercises Catalyst's full optimizer path per query.
QUERIES: dict[str, str] = {
    # Q1-lite: pricing summary report.
    "q1": """
        SELECT l_returnflag, l_linestatus,
               sum(l_quantity) AS sum_qty,
               sum(l_extendedprice) AS sum_base_price,
               sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               avg(l_quantity) AS avg_qty,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
    """,
    # Q3-lite: shipping priority (customer ⋈ orders ⋈ lineitem).
    "q3": """
        SELECT o_orderkey,
               sum(l_extendedprice * (1 - l_discount)) AS revenue,
               o_orderdate
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < TIMESTAMP '1995-03-15'
          AND l_shipdate > TIMESTAMP '1995-03-15'
        GROUP BY o_orderkey, o_orderdate
    """,
    # Q6: forecasting revenue change.
    "q6": """
        SELECT sum(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1994-01-01'
          AND l_shipdate < TIMESTAMP '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
    # Q12-lite: priority shipping modes (orders ⋈ lineitem).
    "q12": """
        SELECT l_returnflag,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END) AS high_line_count,
               sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey
          AND l_shipdate >= TIMESTAMP '1994-01-01'
          AND l_shipdate < TIMESTAMP '1995-01-01'
        GROUP BY l_returnflag
    """,
    # Q14-lite: promotion effect (part ⋈ lineitem).
    "q14": """
        SELECT 100.00 * sum(CASE WHEN p_type = 'PROMO'
                                 THEN l_extendedprice * (1 - l_discount)
                                 ELSE 0.0 END)
               / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= TIMESTAMP '1995-09-01'
          AND l_shipdate < TIMESTAMP '1995-10-01'
    """,
    # Q18-lite: large-volume customers (HAVING over a join).
    "q18": """
        SELECT c_custkey, o_orderkey, o_totalprice,
               sum(l_quantity) AS sum_qty
        FROM customer, orders, lineitem
        WHERE c_custkey = o_custkey
          AND o_orderkey = l_orderkey
        GROUP BY c_custkey, o_orderkey, o_totalprice
        HAVING sum(l_quantity) > 150
    """,
}


def tables(spark: SparkSession, *, sf: float = 0.01) -> dict[str, DataFrame]:
    """Generate and return the four TPC-H-lite tables at ``sf``."""
    return {
        "lineitem": synth_data.lineitem(spark, sf=sf),
        "orders": synth_data.orders(spark, sf=sf),
        "customer": synth_data.customer(spark, sf=sf),
        "part": synth_data.part(spark, sf=sf),
    }


def run_query(spark: SparkSession, name: str, tbls: dict[str, DataFrame]) -> DataFrame:
    """Run one suite query on Spark over temp views of ``tbls``."""
    if name not in QUERIES:
        raise KeyError(f"unknown TPC-H-lite query {name!r}")
    for tname, df in tbls.items():
        df.createOrReplaceTempView(tname)
    return spark.sql(QUERIES[name])
