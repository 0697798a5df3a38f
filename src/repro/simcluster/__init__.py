"""Analytical cluster / JVM memory simulator.

This package is the substrate substituting for the paper's physical
YARN clusters (Table 3). It models the mechanisms the paper establishes
empirically in Section 3 — container sizing, task-concurrency
contention, cache/shuffle pool pressure, generational GC interactions,
and the three failure modes (heap OOM, GC-overhead-limit, resource
manager RSS kill) — and produces the observables every tuning policy
consumes: runtime, container failures, GC overhead, cache hit ratio and
spill fraction.
"""
from .jvm import HeapGeometry
from .memory import MemoryLayout, layout
from .gc_model import GcBreakdown, gc_overhead
from .runtime import SimulatedRun, simulate

__all__ = [
    "HeapGeometry",
    "MemoryLayout",
    "layout",
    "GcBreakdown",
    "gc_overhead",
    "SimulatedRun",
    "simulate",
]
