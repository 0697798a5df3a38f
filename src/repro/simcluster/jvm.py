"""ParallelGC heap-pool geometry (paper §2.1 and Eq 3 conventions).

The heap splits into Young and Old by ``NewRatio`` (Old:Young capacity
ratio); Young splits into Eden and two Survivor spaces by
``SurvivorRatio`` (Eden : one Survivor). The paper's Eq 3 treats Young
as ``SR`` parts of which 2 are survivors, i.e. ``eden = young·(SR−2)/SR``
— we follow that convention everywhere so RelM's analytical models and
the simulator agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

#: Heap fraction reserved for the JVM's own objects (paper Fig 3 shows a
#: reserved slice next to the survivor space).
JVM_RESERVED_FRAC = 0.02
#: SurvivorRatio, fixed at the ParallelGC default in every experiment
#: (§6.1, Table 4).
SURVIVOR_RATIO = 8


@dataclass(frozen=True)
class HeapGeometry:
    """Pool capacities of one container's heap, in MB."""

    heap_mb: float
    new_ratio: int

    def __post_init__(self) -> None:
        if self.heap_mb <= 0:
            raise ValueError("heap_mb must be positive")
        if self.new_ratio < 1:
            raise ValueError("new_ratio must be >= 1")

    @property
    def young_mb(self) -> float:
        """Young generation capacity: heap / (NR + 1)."""
        return self.heap_mb / (self.new_ratio + 1)

    @property
    def old_mb(self) -> float:
        """Old generation capacity: heap · NR / (NR + 1)."""
        return self.heap_mb * self.new_ratio / (self.new_ratio + 1)

    @property
    def eden_mb(self) -> float:
        """Eden capacity: young · (SR − 2) / SR (paper Eq 3)."""
        return self.young_mb * (SURVIVOR_RATIO - 2) / SURVIVOR_RATIO

    @property
    def survivor_mb(self) -> float:
        """One survivor space: young / SR."""
        return self.young_mb / SURVIVOR_RATIO

    @property
    def usable_mb(self) -> float:
        """Heap available to application objects.

        Everything except one survivor space (only one is occupied at a
        time but the other is dead capacity for the application) and the
        JVM-reserved slice — matches the Figure 3 layout.
        """
        return self.heap_mb - 2 * self.survivor_mb - JVM_RESERVED_FRAC * self.heap_mb

