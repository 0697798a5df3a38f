"""Cluster specifications (paper Table 3) and per-container heap sizes.

The paper evaluates on two Spark clusters: an 8-node physical cluster
("Cluster A", mimicking EC2 m4.large) and a 4-node virtual EC2 cluster
("Cluster B"). A resource manager carves each node's memory into 1..4
homogeneous containers (Figure 1); the JVM heap of each container is the
node's allocatable heap divided equally (Section 4, "Example").
"""
from __future__ import annotations

from dataclasses import dataclass

from .units import GB


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of an evaluation cluster (paper Table 3).

    ``node_heap_mb`` is the maximum heap available for allocation per node
    (4404MB on Cluster A, 16GB on Cluster B — §6.1). ``node_phys_mb`` is
    the physical memory the resource manager lets containers use before
    killing them; the gap between physical memory and heap is where the
    off-heap/RSS failure mode of Figure 11 lives.
    """

    name: str
    nodes: int
    node_mem_mb: float
    node_heap_mb: float
    cores_per_node: int
    network_mbps: float
    disk_mbps: float
    max_containers_per_node: int = 4

    @property
    def node_phys_mb(self) -> float:
        """Physical memory cap for all containers on a node (~92% of RAM)."""
        return self.node_mem_mb * 0.92

    def heap_mb(self, containers_per_node: int) -> float:
        """JVM heap of each of ``containers_per_node`` equal containers —
        the §4 Example: 4404MB, 2202MB, 1468MB and 1101MB on Cluster A
        for 1..4 containers per node."""
        return float(int(self.node_heap_mb / containers_per_node))

    def max_task_concurrency(self, containers_per_node: int) -> int:
        """Task Concurrency range cap: physical cores / containers (§6.1)."""
        if not 1 <= containers_per_node <= self.max_containers_per_node:
            raise ValueError(f"containers_per_node out of range: {containers_per_node}")
        return max(1, self.cores_per_node // containers_per_node)


#: Paper Table 3, Cluster A: 8 physical nodes, 6GB RAM, 8 cores, 1Gbps.
CLUSTER_A = ClusterSpec(
    name="A",
    nodes=8,
    node_mem_mb=6 * GB,
    node_heap_mb=4404.0,
    cores_per_node=8,
    network_mbps=1000.0 / 8.0 * 1.0,  # 1Gbps -> 125 MB/s
    disk_mbps=100.0,
)

#: Paper Table 3, Cluster B: 4 virtual EC2 nodes, 32GB RAM, 10Gbps.
CLUSTER_B = ClusterSpec(
    name="B",
    nodes=4,
    node_mem_mb=32 * GB,
    node_heap_mb=16 * GB,
    cores_per_node=16,  # "31 ECU" ~ 16 vCPU (m4.4xlarge class)
    network_mbps=10000.0 / 8.0,  # 10Gbps -> 1250 MB/s
    disk_mbps=250.0,
)


def cluster_by_name(name: str) -> ClusterSpec:
    """Resolve a cluster spec by its Table 3 name."""
    if name == "A":
        return CLUSTER_A
    if name == "B":
        return CLUSTER_B
    raise KeyError(f"unknown cluster {name!r}")
