"""Clusters: the set of heterogeneous nodes available to one query."""

from __future__ import annotations

import math

import numpy as np

from ..config import HardwareRanges, default_hardware_ranges
from .network import NetworkLink, link_between
from .node import HardwareNode, capability_bin, capability_score, sample_node

__all__ = ["Cluster", "sample_cluster"]


class Cluster:
    """An ordered collection of uniquely-named hardware nodes.

    Clusters are mutable under churn: :meth:`add_node`,
    :meth:`remove_node` and :meth:`degrade_node` change the node set in
    place and bump the monotonic :attr:`version` counter.  Any cache
    derived from the node set (enumerator capability tables, host
    feature matrices) must be keyed on ``(cluster, cluster.version)``
    — a bare ``id(cluster)`` key silently serves pre-mutation state.
    """

    def __init__(self, nodes: list[HardwareNode]):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self._nodes: dict[str, HardwareNode] = {}
        self._version = 0
        for node in nodes:
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            self._nodes[node.node_id] = node

    @property
    def version(self) -> int:
        """Monotonic mutation counter (0 for a freshly built cluster)."""
        return self._version

    @property
    def nodes(self) -> list[HardwareNode]:
        return list(self._nodes.values())

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    # -- churn mutations -----------------------------------------------
    def _mutated(self) -> None:
        self._version += 1
        # Derived tables cached directly on the cluster are stale now;
        # version-keyed readers would skip them anyway, but dropping
        # them keeps the memory bounded under long churn traces.
        self.__dict__.pop("_enumeration_tables", None)

    def add_node(self, node: HardwareNode) -> None:
        """Join: append ``node`` to the cluster (new id required)."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._mutated()

    def remove_node(self, node_id: str) -> HardwareNode:
        """Leave/fail: drop ``node_id``; the last node cannot leave."""
        if node_id not in self._nodes:
            raise KeyError(node_id)
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node of a cluster")
        node = self._nodes.pop(node_id)
        self._mutated()
        return node

    def degrade_node(self, node_id: str, *, cpu_factor: float = 1.0,
                     ram_factor: float = 1.0,
                     bandwidth_factor: float = 1.0,
                     latency_factor: float = 1.0) -> HardwareNode:
        """Scale a node's resources in place (factors multiply).

        Latency scales with ``latency_factor`` as a *penalty* — values
        above 1.0 slow the node down, matching the <1.0 convention of
        the resource factors.  Returns the new (frozen) node record.
        """
        for name, factor in (("cpu_factor", cpu_factor),
                             ("ram_factor", ram_factor),
                             ("bandwidth_factor", bandwidth_factor),
                             ("latency_factor", latency_factor)):
            if not (math.isfinite(factor) and factor > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {factor}")
        old = self._nodes[node_id]
        new = HardwareNode(
            node_id=node_id,
            cpu=old.cpu * cpu_factor,
            ram_mb=old.ram_mb * ram_factor,
            bandwidth_mbits=old.bandwidth_mbits * bandwidth_factor,
            latency_ms=old.latency_ms * latency_factor)
        self._nodes[node_id] = new
        self._mutated()
        return new

    def node(self, node_id: str) -> HardwareNode:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def link(self, sender_id: str, receiver_id: str) -> NetworkLink:
        return link_between(self._nodes[sender_id],
                            self._nodes[receiver_id])

    def by_capability(self,
                      ranges: HardwareRanges | None = None
                      ) -> list[HardwareNode]:
        """Nodes sorted from weakest to strongest."""
        return sorted(self.nodes,
                      key=lambda n: capability_score(n, ranges))

    def bins(self, ranges: HardwareRanges | None = None) -> dict[str, int]:
        """Edge/fog/cloud bin per node id (placement heuristics)."""
        return {n.node_id: capability_bin(n, ranges) for n in self.nodes}


def sample_cluster(rng: np.random.Generator, size: int,
                   ranges: HardwareRanges | None = None,
                   prefix: str = "host") -> Cluster:
    """Sample a heterogeneous cluster from the hardware grids."""
    ranges = ranges or default_hardware_ranges()
    nodes = [sample_node(rng, f"{prefix}{i + 1}", ranges)
             for i in range(size)]
    return Cluster(nodes)
