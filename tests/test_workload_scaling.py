"""Measurement → paper-scale model pipeline (workloads.base).

Runs the real Spark jobs at a tiny scale factor, extrapolates via
``scale_measurement``, and asserts the frozen ``MODEL`` constants sit
within a generous band of the live measurement — keeping the simulator
models tied to genuinely executed Spark jobs without making the
experiment tables depend on wall-clock noise.
"""
from dataclasses import replace

import pytest

from repro.workloads import workload_module
from repro.workloads.base import MeasuredProfile, WorkloadModel, scale_measurement

SF = 0.0008


class TestScaleMeasurement:
    def test_scales_input_linearly(self):
        m = MeasuredProfile(
            name="X", sf=0.01, rows=1000, input_mb=10.0, wall_sec=2.0,
            mem_expansion=1.5, shuffle_frac=0.5,
        )
        out = scale_measurement(m, target_input_mb=1000.0, partition_mb=100)
        assert out["input_mb"] == 1000.0
        assert out["unmanaged_task_mb"] == pytest.approx(100 * 1.5)
        assert out["shuffle_task_mb"] == pytest.approx(100 * 0.5 * 1.5)

    def test_cpu_cost_scales_with_volume(self):
        m = MeasuredProfile(
            name="X", sf=0.01, rows=1000, input_mb=10.0, wall_sec=2.0,
            mem_expansion=1.5, shuffle_frac=0.0,
        )
        small = scale_measurement(m, target_input_mb=100.0, partition_mb=10)
        big = scale_measurement(m, target_input_mb=1000.0, partition_mb=100)
        # 10x the data in 10x-larger partitions → same task count, 10x
        # the per-task CPU.
        assert big["cpu_sec_per_task"] == pytest.approx(10 * small["cpu_sec_per_task"])

    def test_rejects_empty_measurement(self):
        m = MeasuredProfile(
            name="X", sf=0.01, rows=0, input_mb=0.0, wall_sec=0.0,
            mem_expansion=1.0, shuffle_frac=0.0,
        )
        with pytest.raises(ValueError):
            scale_measurement(m, target_input_mb=100.0, partition_mb=10)


class TestModelValidation:
    def test_rejects_bad_fields(self):
        good = workload_module("WordCount").MODEL
        with pytest.raises(ValueError):
            replace(good, input_mb=0)
        with pytest.raises(ValueError):
            replace(good, tenured_frac=1.5)
        with pytest.raises(ValueError):
            replace(good, iterations=-1)

    def test_partition_count(self):
        assert workload_module("WordCount").MODEL.n_partitions == 400
        assert workload_module("SortByKey").MODEL.n_partitions == 60
        assert workload_module("PageRank").MODEL.n_partitions == 32


@pytest.fixture(scope="module", params=["WordCount", "SortByKey", "K-means", "SVM", "PageRank", "TPC-H"])
def measured(request, spark):
    """(workload name, its live tiny-SF measurement), measured once for
    both tests of :class:`TestLiveMeasurementBands`."""
    name = request.param
    return name, workload_module(name).measure(spark, sf=SF if name != "TPC-H" else 0.002)


class TestLiveMeasurementBands:
    """The frozen MODEL constants vs a live tiny-SF measurement."""

    def test_measure_runs_and_is_consistent(self, measured):
        _, m = measured
        assert m.rows > 0 and m.input_mb > 0 and m.wall_sec > 0

    def test_frozen_model_within_band(self, measured):
        # Extrapolate the live measurement to paper scale and require
        # the frozen constants to agree within a factor of 8 — wide
        # enough for host variance, tight enough to catch a model
        # decoupled from the real job (e.g. 100x off).
        name, m = measured
        model: WorkloadModel = workload_module(name).MODEL
        derived = scale_measurement(
            m, target_input_mb=model.input_mb, partition_mb=model.partition_mb
        )
        assert derived["unmanaged_task_mb"] == pytest.approx(
            model.unmanaged_task_mb, rel=7.0
        )
        if model.shuffle_task_mb > 0:
            assert derived["shuffle_task_mb"] == pytest.approx(
                model.shuffle_task_mb, rel=7.0
            )
