"""Workload parameterization consumed by the cluster simulator.

A :class:`WorkloadModel` captures the resource-consumption pattern of one
benchmark application at the paper's dataset scale: data volumes, memory
footprints of the four application pools of Figure 3 (code overhead,
cache storage, task shuffle, task unmanaged), CPU/disk/network demand,
and the iterative structure. The simulator (:mod:`repro.simcluster`)
turns a (WorkloadModel, MemoryConfig, ClusterSpec) triple into the
observables the tuning policies see: runtime, failures, GC overheads,
cache hit ratio, and spill fraction. :data:`MODELS` holds the six
paper-scale models, keyed by Table 2 name.

Models are **set by hand**: the constants in :data:`MODELS` are chosen
to match the paper's dataset sizes and published profiles (see the
per-model comments) and are frozen, so the experiment tables stay
deterministic. No real run feeds them: the Statistics Generator's
profiles come from the simulator (:mod:`repro.simcluster.profile_gen`),
and the real PySpark jobs in ``wordcount.py`` … ``tpch.py`` are checked
for correctness against DuckDB only.

This module imports no Spark, so the simulator, profiler, tuners and
experiments read :data:`MODELS` without loading the Spark stack.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..units import ceil_div


@dataclass(frozen=True)
class WorkloadModel:
    """Simulator-facing description of one application at paper scale.

    Memory quantities are MB; rates are MB/s; times are seconds. The
    per-task quantities describe one concurrently-running task slot.
    """

    name: str
    #: Total input volume and physical partition size (Table 2).
    input_mb: float
    partition_mb: float
    #: Total bytes the application *asks* to cache across the cluster
    #: (0 for WordCount/SortByKey, which use no cache).
    cache_mb: float
    #: Per-task shuffle working set were nothing spilled (sort buffers,
    #: aggregation hash maps).
    shuffle_task_mb: float
    #: Per-task unmanaged footprint M_u: deserialized partition objects,
    #: (de)serialization buffers — not tracked by Spark's memory manager.
    unmanaged_task_mb: float
    #: Fraction of M_u that survives young collections and tenures to Old.
    tenured_frac: float
    #: Code overhead M_i per container (broadcast vars, classes, app code).
    code_mb: float
    #: Single-slot CPU seconds to process one partition in the base stage.
    cpu_sec_per_task: float
    #: Fraction of one physical core a running task keeps busy.
    cpu_cores_per_task: float
    #: Disk bandwidth demand of a running task (input scan + shuffle IO).
    disk_mbps_per_task: float
    #: Network bytes a task fetches through off-heap NIO buffers
    #: (shuffle fetches, coalesce/broadcast traffic) — drives the RSS
    #: failure mode of Figure 11.
    net_task_mb: float
    #: Transient allocation rate per running task (young-gen churn).
    alloc_mbps_per_task: float
    #: Iterative super-steps over the cached data (0 for batch jobs).
    iterations: int
    #: Per-iteration task CPU as a fraction of ``cpu_sec_per_task``.
    iter_cpu_frac: float
    #: Extra CPU factor paid per cache miss (lineage recomputation).
    recompute_frac: float
    #: Fixed per-stage overhead (scheduling, driver sync, stragglers).
    stage_overhead_sec: float

    def __post_init__(self) -> None:
        if self.input_mb <= 0 or self.partition_mb <= 0:
            raise ValueError("input_mb and partition_mb must be positive")
        if not 0.0 <= self.tenured_frac <= 1.0:
            raise ValueError("tenured_frac must be in [0, 1]")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")

    @property
    def n_partitions(self) -> int:
        """Number of input partitions (= tasks per stage)."""
        return ceil_div(int(self.input_mb), int(self.partition_mb))

    @property
    def uses_cache(self) -> bool:
        return self.cache_mb > 0


#: Paper-scale models keyed by Table 2 name, each with its derivation.
MODELS: dict[str, WorkloadModel] = {
    m.name: m
    for m in (
        # WordCount: 50GB input, 128MB partitions → 400 tasks. CPU cost
        # and footprints are set by hand; shuffle per task is the
        # per-partition word-count map (~8% of a deserialized 128MB
        # partition), M_u the deserialized partition at ~1.8x string
        # expansion (java.lang.String's ~2 bytes per char plus object
        # headers).
        WorkloadModel(
            name="WordCount",
            input_mb=50 * 1024,
            partition_mb=128,
            cache_mb=0.0,
            shuffle_task_mb=40.0,
            unmanaged_task_mb=230.0,
            tenured_frac=0.15,
            code_mb=110.0,
            cpu_sec_per_task=30.0,
            cpu_cores_per_task=0.9,
            disk_mbps_per_task=14.0,
            net_task_mb=10.0,
            alloc_mbps_per_task=90.0,
            iterations=0,
            iter_cpu_frac=0.0,
            recompute_frac=0.0,
            stage_overhead_sec=15.0,
        ),
        # SortByKey: 30GB, 512MB partitions → 60 fat tasks. The per-task
        # sort working set is the whole partition in sort-record form
        # (1.5x expansion); M_u is the streamed deserialization window of
        # a 512MB partition. The deliberately large partitions (Table 2
        # footnote) give SortByKey the biggest per-task footprint in the
        # suite.
        WorkloadModel(
            name="SortByKey",
            input_mb=30 * 1024,
            partition_mb=512,
            cache_mb=0.0,
            shuffle_task_mb=768.0,
            unmanaged_task_mb=420.0,
            tenured_frac=0.2,
            code_mb=110.0,
            cpu_sec_per_task=50.0,
            cpu_cores_per_task=0.85,
            disk_mbps_per_task=25.0,
            net_task_mb=60.0,
            alloc_mbps_per_task=110.0,
            iterations=0,
            iter_cpu_frac=0.0,
            recompute_frac=0.0,
            stage_overhead_sec=15.0,
        ),
        # K-means: 100M HiBench samples ≈ 19.2GB input in 150 × 128MB
        # partitions; the cached RDD of boxed vectors inflates to
        # ~28.8GB, which cannot fully fit on Cluster A (Figure 7d:
        # K-means never reaches hit ratio 1 before the memory
        # bottleneck). 8 Lloyd iterations.
        WorkloadModel(
            name="K-means",
            input_mb=19.2 * 1024,
            partition_mb=128,
            cache_mb=28.8 * 1024,
            shuffle_task_mb=60.0,
            unmanaged_task_mb=185.0,
            tenured_frac=0.6,
            code_mb=120.0,
            cpu_sec_per_task=10.0,
            cpu_cores_per_task=0.95,
            disk_mbps_per_task=12.0,
            net_task_mb=15.0,
            alloc_mbps_per_task=70.0,
            iterations=8,
            iter_cpu_frac=0.5,
            recompute_frac=3.5,  # a miss re-reads, re-parses and re-vectorizes the partition
            stage_overhead_sec=12.0,
        ),
        # SVM: 100M examples ≈ 9.4GB input in 300 × 32MB partitions;
        # cached examples inflate to ~15.6GB, which fits fully at Cache
        # Capacity >= 0.5 on the default containers (Figure 7d: SVM hits
        # ratio 1.0 at 0.5). Tiny M_u keeps heap pressure low → no full
        # GCs on big-heap profiles (the Figure 22 sensitivity study).
        WorkloadModel(
            name="SVM",
            input_mb=9.4 * 1024,
            partition_mb=32,
            cache_mb=15.6 * 1024,
            shuffle_task_mb=30.0,
            unmanaged_task_mb=60.0,
            tenured_frac=0.1,
            code_mb=110.0,
            cpu_sec_per_task=6.0,
            cpu_cores_per_task=1.0,
            disk_mbps_per_task=8.0,
            net_task_mb=8.0,
            alloc_mbps_per_task=50.0,
            iterations=5,
            iter_cpu_frac=0.6,
            recompute_frac=0.8,
            stage_overhead_sec=12.0,
        ),
        # PageRank: LiveJournal's 69M edges are ~1.1GB on disk but the
        # coalesced GraphX representation processed per task is far
        # larger: the paper measures M_u = 770MB and M_c = 2300MB at hit
        # ratio 0.3 (Table 6), implying a cache demand near 60GB across 8
        # containers — we use 60GB so the simulated Statistics Generator
        # reproduces the Table 6 column. 32 coalesced edge partitions, 10
        # rank iterations, 550MB of off-heap network fetch per coalesce
        # task (Figure 11's RSS mechanism). M_s = 0 matching Table 6.
        WorkloadModel(
            name="PageRank",
            input_mb=4096,
            partition_mb=128,
            cache_mb=60.0 * 1024,
            shuffle_task_mb=0.0,
            unmanaged_task_mb=770.0,
            tenured_frac=0.5,
            code_mb=115.0,
            cpu_sec_per_task=38.0,
            cpu_cores_per_task=1.4,  # Table 6: CPU_avg 35% at P=2 on 8 cores
            disk_mbps_per_task=1.0,  # Table 6: Disk_avg 2%
            net_task_mb=550.0,
            alloc_mbps_per_task=90.0,
            iterations=10,
            iter_cpu_frac=0.35,
            recompute_frac=1.0,
            stage_overhead_sec=20.0,
        ),
        # TPC-H, for Cluster B (Figure 21): dbgen SF-50 ≈ 50GB in
        # 50 × 1GB-class scan units; the 22-query workload is modeled as
        # 22 stages (iterations=21 at full per-stage cost) with per-query
        # driver and setup overhead. Scans are memory-bandwidth heavy
        # (high core demand), joins shuffle ~25% of scanned bytes.
        WorkloadModel(
            name="TPC-H",
            input_mb=50 * 1024,
            partition_mb=1024,
            cache_mb=0.0,
            shuffle_task_mb=420.0,
            unmanaged_task_mb=600.0,
            tenured_frac=0.15,
            code_mb=130.0,
            cpu_sec_per_task=30.0,
            cpu_cores_per_task=1.8,
            disk_mbps_per_task=15.0,
            net_task_mb=80.0,
            alloc_mbps_per_task=100.0,
            iterations=21,
            iter_cpu_frac=1.0,
            recompute_frac=0.0,
            stage_overhead_sec=90.0,
        ),
    )
}
