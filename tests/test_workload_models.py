"""The paper-scale WorkloadModel parameterizations (workloads.base)."""
from dataclasses import replace

import pytest

from repro.workloads import workload_model


class TestModelValidation:
    def test_rejects_bad_fields(self):
        good = workload_model("WordCount")
        with pytest.raises(ValueError):
            replace(good, input_mb=0)
        with pytest.raises(ValueError):
            replace(good, tenured_frac=1.5)
        with pytest.raises(ValueError):
            replace(good, iterations=-1)

    def test_partition_count(self):
        assert workload_model("WordCount").n_partitions == 400
        assert workload_model("SortByKey").n_partitions == 60
        assert workload_model("PageRank").n_partitions == 32
