"""Heterogeneous compute nodes.

A :class:`HardwareNode` mirrors the paper's physically-virtualized
machines (bare metal + cgroups + netem): it is fully described by the
four transferable hardware features of Table I — relative CPU resources
(% of a reference core), RAM in MB, outgoing network bandwidth in
Mbit/s, and outgoing network latency in ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import HardwareRanges, default_hardware_ranges

__all__ = ["HardwareNode", "capability_score", "capability_bin",
           "score_bin", "sample_node"]


@dataclass(frozen=True)
class HardwareNode:
    """One (virtualized) compute node of the edge-cloud landscape."""

    node_id: str
    cpu: float               # % of a reference core (100 == one core)
    ram_mb: float            # available memory
    bandwidth_mbits: float   # outgoing network bandwidth
    latency_ms: float        # outgoing network latency

    def __post_init__(self):
        # NaN fails every comparison, so ``<= 0`` checks let it in.
        for name in ("cpu", "ram_mb", "bandwidth_mbits"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if not (math.isfinite(self.latency_ms) and self.latency_ms >= 0):
            raise ValueError(f"latency_ms must be non-negative and "
                             f"finite, got {self.latency_ms}")

    def features(self) -> dict[str, float]:
        return {"cpu": self.cpu, "ram_mb": self.ram_mb,
                "bandwidth_mbits": self.bandwidth_mbits,
                "latency_ms": self.latency_ms}


def capability_score(node: HardwareNode,
                     ranges: HardwareRanges | None = None) -> float:
    """Scalar capability used to bin nodes for placement heuristics.

    The score is a geometric-style mean of the node's normalized CPU,
    RAM and bandwidth, penalized by latency — stronger and
    better-connected nodes score higher.
    """
    ranges = ranges or default_hardware_ranges()
    cpu = node.cpu / max(ranges.cpu)
    ram = node.ram_mb / max(ranges.ram_mb)
    bandwidth = node.bandwidth_mbits / max(ranges.bandwidth_mbits)
    latency = node.latency_ms / max(ranges.latency_ms)
    return float(np.exp(np.mean(np.log(
        [max(cpu, 1e-9), max(ram, 1e-9), max(bandwidth, 1e-9),
         max(1.0 - 0.5 * latency, 1e-9)]))))


def capability_bin(node: HardwareNode,
                   ranges: HardwareRanges | None = None) -> int:
    """Classify a node as edge (0), fog (1) or cloud (2).

    The paper bins hardware into three intersecting categories to
    emulate realistic edge -> fog -> cloud data-flow transitions.
    """
    return score_bin(capability_score(node, ranges))


def score_bin(score: float) -> int:
    """The edge (0) / fog (1) / cloud (2) bin of a capability score —
    the thresholds of :func:`capability_bin`, for callers that already
    hold the score."""
    if score < 0.12:
        return 0
    if score < 0.35:
        return 1
    return 2


def sample_node(rng: np.random.Generator, node_id: str,
                ranges: HardwareRanges | None = None) -> HardwareNode:
    """Sample a node uniformly from the hardware feature grids."""
    ranges = ranges or default_hardware_ranges()

    def pick(grid):
        return float(grid[rng.integers(len(grid))])

    return HardwareNode(node_id, cpu=pick(ranges.cpu),
                        ram_mb=pick(ranges.ram_mb),
                        bandwidth_mbits=pick(ranges.bandwidth_mbits),
                        latency_ms=pick(ranges.latency_ms))
