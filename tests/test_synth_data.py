"""Synthetic data generators (provided + RelM-suite extensions)."""
import inspect

import numpy as np
import pytest

from repro import synth_data


class TestProvidedGenerators:
    def test_lineitem_schema(self, spark):
        df = synth_data.lineitem(spark, sf=0.001)
        assert {"l_orderkey", "l_quantity", "l_shipdate"} <= set(df.columns)
        assert df.count() == 6000

    def test_orders_keys_sequential(self, spark):
        pdf = synth_data.orders(spark, sf=0.001).toPandas()
        assert pdf.o_orderkey.min() == 1
        assert pdf.o_orderkey.is_unique

    def test_deterministic_in_seed(self, spark):
        a = synth_data.uniform_keys(spark, n=500, n_keys=50, seed=9).toPandas()
        b = synth_data.uniform_keys(spark, n=500, n_keys=50, seed=9).toPandas()
        assert a.equals(b)

    def test_zipf_is_skewed(self, spark):
        pdf = synth_data.zipf_keys(spark, n=5000, n_keys=100, seed=0).toPandas()
        counts = pdf.k.value_counts()
        assert counts.iloc[0] > 5 * counts.median()


class TestRandomText:
    def test_line_structure(self, spark):
        pdf = synth_data.random_text(spark, n_lines=100, words_per_line=7).toPandas()
        assert len(pdf) == 100
        assert (pdf.line.str.split(" ").str.len() == 7).all()

    def test_vocabulary_bounded(self, spark):
        pdf = synth_data.random_text(spark, n_lines=200).toPandas()
        words = set(w for line in pdf.line for w in line.split(" "))
        assert len(words) <= 200  # RandomTextWriter-style fixed dictionary


class TestClusteredPoints:
    def test_columns_and_count(self, spark):
        df = synth_data.clustered_points(spark, n=300, k=3, dim=2)
        assert set(df.columns) == {"x0", "x1", "c"}
        assert df.count() == 300

    def test_clusters_are_separated(self, spark):
        pdf = synth_data.clustered_points(spark, n=2000, k=2, dim=2, spread=0.1, seed=3).toPandas()
        centers = pdf.groupby("c")[["x0", "x1"]].mean()
        within = pdf.groupby("c")[["x0", "x1"]].std().mean().mean()
        between = np.linalg.norm(centers.iloc[0] - centers.iloc[1])
        assert between > 3 * within


class TestLabeledExamples:
    def test_labels_are_pm_one(self, spark):
        pdf = synth_data.labeled_examples(spark, n=500).toPandas()
        assert set(pdf.y.unique()) <= {-1.0, 1.0}

    def test_roughly_balanced(self, spark):
        pdf = synth_data.labeled_examples(spark, n=4000, seed=1).toPandas()
        frac = (pdf.y == 1.0).mean()
        assert 0.25 < frac < 0.75

    def test_linearly_separable_mostly(self, spark):
        # A perceptron-style fit must beat chance comfortably.
        pdf = synth_data.labeled_examples(spark, n=2000, seed=2).toPandas()
        x = pdf[[f"x{i}" for i in range(4)]].to_numpy()
        y = pdf.y.to_numpy()
        w = np.linalg.lstsq(x, y, rcond=None)[0]
        acc = (np.sign(x @ w) == y).mean()
        assert acc > 0.8


class TestGraphEdges:
    def test_no_self_loops(self, spark):
        pdf = synth_data.graph_edges(spark, n_edges=2000, n_nodes=200).toPandas()
        assert (pdf.src != pdf.dst).all()

    def test_power_law_out_degree(self, spark):
        pdf = synth_data.graph_edges(spark, n_edges=20000, n_nodes=1000, seed=4).toPandas()
        deg = pdf.src.value_counts()
        assert deg.iloc[0] > 10 * deg.median()

    def test_nodes_in_range(self, spark):
        pdf = synth_data.graph_edges(spark, n_edges=1000, n_nodes=50).toPandas()
        assert pdf.src.between(1, 50).all() and pdf.dst.between(1, 50).all()

    def test_skew_is_fixed(self):
        # PageRank's graph has one degree skew, Zipf(1.3); no caller varies it.
        assert "alpha" not in inspect.signature(synth_data.graph_edges).parameters
