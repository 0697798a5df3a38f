"""Real PySpark workload jobs, oracle-checked against DuckDB.

Each Table 2 application's DataFrame implementation is verified for
result correctness — a wrong join, aggregation, or iteration shows up
as a row diff, not just "it ran".
"""
import inspect
from typing import Any, NamedTuple

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.workloads import SUITE, dominant_pool, workload_model
from repro.workloads import kmeans, pagerank, sortbykey, svm, wordcount

SF = 0.0008  # tiny but non-trivial (thousands of rows)


# Each job runs once per test session: ``localCheckpoint`` computes the
# result eagerly and keeps it, so the tests that read it share one run.
@pytest.fixture(scope="session")
def word_counts(spark):
    return wordcount.run(spark, sf=SF).localCheckpoint()


@pytest.fixture(scope="session")
def sorted_pairs(spark):
    return sortbykey.run(spark, sf=SF).localCheckpoint()


class Run(NamedTuple):
    """A job's result, with the RDDs Spark held persisted before and after it."""

    result: Any
    persisted_before: int
    persisted_after: int


def run_once(spark, job) -> Run:
    persisted = spark.sparkContext._jsc.getPersistentRDDs().size
    before = persisted()
    result = job()
    return Run(result, before, persisted())


@pytest.fixture(scope="session")
def kmeans_run(spark):
    return run_once(spark, lambda: kmeans.run(spark, sf=SF, iterations=2))


@pytest.fixture(scope="session")
def svm_run(spark):
    return run_once(spark, lambda: svm.run(spark, sf=SF, iterations=4))


@pytest.fixture(scope="session")
def pagerank_run(spark):
    return run_once(spark, lambda: pagerank.run(spark, sf=SF, iterations=2))


@pytest.fixture(scope="session")
def ranks_after_2(pagerank_run):
    return pagerank_run.result.localCheckpoint()


class TestRegistry:
    def test_suite_is_table2(self):
        assert SUITE == ("WordCount", "SortByKey", "K-means", "SVM", "PageRank")

    @pytest.mark.parametrize("name", SUITE + ("TPC-H",))
    def test_models_resolve(self, name):
        m = workload_model(name)
        assert m.name == name
        assert m.n_partitions > 0

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            workload_model("Sorting")

    @pytest.mark.parametrize(
        "name,pool",
        [("WordCount", "shuffle"), ("SortByKey", "shuffle"), ("K-means", "cache"),
         ("SVM", "cache"), ("PageRank", "cache")],
    )
    def test_dominant_pools(self, name, pool):
        # §6.1: cache-heavy vs shuffle-only split of the suite.
        assert dominant_pool(name) == pool

    @pytest.mark.parametrize("name", SUITE)
    def test_paper_scale_dimensions(self, name):
        m = workload_model(name)
        expectations = {
            "WordCount": (50 * 1024, 128), "SortByKey": (30 * 1024, 512),
            "K-means": (19.2 * 1024, 128), "SVM": (9.4 * 1024, 32),
            "PageRank": (4096, 128),
        }
        inp, part = expectations[name]
        assert m.input_mb == inp and m.partition_mb == part


class TestWordCount:
    def test_counts_match_duckdb(self, spark, word_counts):
        lines = wordcount.input_df(spark, sf=SF)
        result = word_counts
        assert_equivalent(result, wordcount.ORACLE_SQL, lines=lines)

    def test_total_words(self, spark, word_counts):
        lines = wordcount.input_df(spark, sf=SF)
        n_lines = lines.count()
        total = word_counts.agg({"cnt": "sum"}).collect()[0][0]
        assert total == n_lines * 10  # 10 words per line


class TestSortByKey:
    def test_content_matches_duckdb(self, spark, sorted_pairs):
        pairs = sortbykey.input_df(spark, sf=SF)
        result = sorted_pairs
        assert_equivalent(result, sortbykey.ORACLE_SQL, pairs=pairs)

    def test_output_is_sorted(self, sorted_pairs):
        rows = sorted_pairs.collect()
        keys = [(r.k, r.v) for r in rows]
        assert keys == sorted(keys)

    def test_preserves_cardinality(self, spark, sorted_pairs):
        assert sorted_pairs.count() == sortbykey.input_df(spark, sf=SF).count()


class TestKMeans:
    def test_assignment_step_matches_duckdb(self, spark):
        points = kmeans.input_df(spark, sf=SF)
        centers = kmeans.initial_centers()
        result = (
            kmeans.assign(points, centers)
            .groupBy("assigned")
            .agg(
                *[F.avg(f"x{i}").alias(f"x{i}") for i in range(kmeans.DIM)],
                F.count("*").alias("cnt"),
            )
        )
        assert_equivalent(result, kmeans.oracle_sql(centers), points=points.drop("c"))

    def test_step_moves_centers_toward_truth(self, spark):
        points = kmeans.input_df(spark, sf=SF)
        centers = kmeans.initial_centers()
        moved = kmeans.step(points, centers)
        assert not np.allclose(moved, centers)

    def test_initial_centers_are_fixed(self):
        # The job, its tests and the benchmark's oracle start from one
        # set of centers.
        assert not inspect.signature(kmeans.initial_centers).parameters
        assert np.array_equal(kmeans.initial_centers(), kmeans.initial_centers())

    def test_full_run_covers_all_points(self, spark, kmeans_run):
        result = kmeans_run.result
        total = result.agg({"cnt": "sum"}).collect()[0][0]
        assert total == kmeans.input_df(spark, sf=SF).count()


class TestSVM:
    def test_gradient_matches_duckdb(self, spark):
        import duckdb

        examples = kmeans_free = svm.input_df(spark, sf=SF)
        w = np.array([0.3, -0.2, 0.1, 0.5])
        got = svm.gradient(examples, w) - svm.REG * w  # data term only
        con = duckdb.connect()
        try:
            con.register("examples", examples.toPandas())
            expected = con.execute(svm.gradient_oracle_sql(w)).fetchdf().iloc[0].to_numpy()
        finally:
            con.close()
        assert np.allclose(got, expected, atol=1e-9)

    def test_training_improves_accuracy(self, svm_run):
        w, acc_df = svm_run.result
        accs = acc_df.collect()
        correct = sum(r.n_correct for r in accs)
        total = sum(r.n for r in accs)
        assert correct / total > 0.8  # separable data with noise 0.3

    def test_zero_weights_give_full_violation_gradient(self, spark):
        examples = svm.input_df(spark, sf=SF)
        g = svm.gradient(examples, np.zeros(svm.DIM))
        assert np.linalg.norm(g) > 0


class TestPageRank:
    def _expected(self, edges_pdf: pd.DataFrame, iterations: int) -> pd.DataFrame:
        """Reference PageRank via the same update rule in pandas."""
        nodes = pd.unique(pd.concat([edges_pdf.src, edges_pdf.dst]))
        ranks = pd.Series(1.0, index=nodes)
        deg = edges_pdf.groupby("src").size()
        for _ in range(iterations):
            contrib = edges_pdf.assign(c=ranks[edges_pdf.src].values / deg[edges_pdf.src].values)
            s = contrib.groupby("dst").c.sum()
            new = pd.Series(1.0 - pagerank.DAMPING, index=nodes)
            new = new.add(pagerank.DAMPING * s, fill_value=0.0)
            ranks = new[nodes]
        return pd.DataFrame({"node": nodes, "rank": ranks.values})

    def test_ranks_match_reference(self, spark, ranks_after_2):
        edges = pagerank.input_df(spark, sf=SF)
        expected = self._expected(edges.toPandas(), iterations=2)
        result = ranks_after_2
        assert_equivalent(result, "SELECT node, rank FROM expected", expected=expected)

    def test_rank_mass_reasonable(self, ranks_after_2):
        ranks = ranks_after_2.toPandas()
        assert (ranks["rank"] >= 1.0 - pagerank.DAMPING - 1e-9).all()

    def test_skewed_nodes_rank_higher(self, ranks_after_2):
        # Power-law in-degrees → popular nodes collect more rank mass.
        ranks = ranks_after_2.toPandas()
        assert ranks["rank"].max() > 3 * ranks["rank"].median()


class TestCacheLifetimes:
    """An iterative job holds a cache only while it reads it (§3.3)."""

    @pytest.mark.parametrize("job", ["kmeans_run", "svm_run", "pagerank_run"])
    def test_run_releases_its_cache(self, request, job):
        run = request.getfixturevalue(job)
        assert run.persisted_after == run.persisted_before

    @pytest.mark.parametrize("job", ["kmeans_run", "svm_run"])
    def test_result_is_computed_before_the_input_is_released(self, request, job):
        # A lazy result would re-read the input after ``unpersist``; a
        # computed one is a local relation that reads no input at all.
        result = request.getfixturevalue(job).result
        df = result[1] if job == "svm_run" else result
        plan = df._jdf.queryExecution().optimizedPlan()
        assert plan.getClass().getSimpleName() == "LocalRelation"
