"""Analytical steady-state simulator of a distributed stream query.

This is the workhorse that replaces the paper's CloudLab/Storm/Kafka
testbed when collecting cost labels.  Given a plan, a placement and a
cluster it computes the five cost metrics from first principles:

* **Utilization** — every operator burns CPU on its host according to
  the :mod:`repro.simulator.costs` model; co-located operators share
  the host; cross-host edges consume the sender's outgoing bandwidth.
* **Backpressure** — if any host or outgoing link is over-utilized at
  the nominal source rates, the broker queues up (``RO`` in the paper).
* **Effective throughput** — source rates are scaled down to the
  largest factor the bottleneck sustains (a fixed point found by
  bisection, since windowed-join load is super-linear in the rates).
  Everything that does not depend on the scale — operator hosts,
  parent lists, node footprints, RAM and base capacities, cross-host
  edges and their link bandwidths — is derived once per run; each
  bisection step only propagates the plan's annotations at its scale
  and re-evaluates loads, memory and utilizations from them.
* **Latencies** — the processing latency follows the slowest
  source-to-sink path: service times inflated by queueing (M/M/1-style
  waiting capped at a configurable factor), window emission waits, and
  network transfer times.  The end-to-end latency adds the broker
  waiting time, which grows with the backpressure deficit.
* **Memory** — windowed state plus fixed footprints; high occupancy
  steals capacity (GC churn) and overflow crashes the query.
* **Query success** — false on crash or when no tuple reaches the sink
  within the execution window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..hardware.cluster import Cluster
from ..hardware.placement import Placement
from ..query.operators import Operator, OperatorKind
from ..query.plan import QueryPlan, StreamAnnotation
from .config import SimulationConfig
from .costs import operator_load, operator_state_bytes
from .result import QueryMetrics

__all__ = ["AnalyticalSimulator", "ExecutionSnapshot"]

_BISECTION_STEPS = 30
_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class ExecutionSnapshot:
    """Steady-state quantities at one source-rate scale factor."""

    scale: float
    annotations: dict[str, StreamAnnotation]
    node_load: dict[str, float]          # cost units / second
    node_capacity: dict[str, float]      # after GC pressure
    node_utilization: dict[str, float]
    node_occupancy: dict[str, float]     # memory occupancy in [0, inf)
    link_utilization: dict[str, float]   # per sender node
    max_utilization: float


class _PlacedQuery(NamedTuple):
    """The scale-independent part of every snapshot of one placed query.

    Built once per :meth:`AnalyticalSimulator.run` (and per public
    :meth:`~AnalyticalSimulator.snapshot` call); the backpressure
    bisection evaluates all of its steps from it.
    """

    plan: QueryPlan
    #: ``(op_id, operator, parent op_ids, host)`` in topological order.
    operators: list[tuple[str, Operator, list[str], str]]
    #: ``(node_id, footprint bytes, RAM bytes, capacity before GC
    #: pressure, hosts an operator)`` in cluster order.
    nodes: list[tuple[str, float, float, float, bool]]
    #: Nodes the placement uses, in cluster order.
    used: list[str]
    #: ``(sender op_id, sender node, tuple bytes)`` per cross-host edge,
    #: in ``plan.edges`` order.
    links: list[tuple[str, str, int]]
    #: Outgoing bandwidth in bits/second per sending node.
    link_bits_per_s: dict[str, float]


class AnalyticalSimulator:
    """Computes :class:`QueryMetrics` for a placed query without running it."""

    def __init__(self, config: SimulationConfig | None = None):
        self.config = config or SimulationConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, plan: QueryPlan, placement: Placement, cluster: Cluster,
            seed: int = 0) -> QueryMetrics:
        """Simulate one execution and return its cost metrics."""
        placement.validate(plan, cluster)
        rng = np.random.default_rng(seed)
        efficiency = self._node_efficiency(cluster, rng)

        query = self._placed(plan, placement, cluster, efficiency)
        nominal = self._evaluate(query, 1.0)
        backpressure = nominal.max_utilization > 1.0
        scale = self._sustainable_scale(query, nominal)
        effective = (nominal if scale >= 1.0 else
                     self._evaluate(query, scale))

        throughput = effective.annotations[plan.sink].output_rate
        processing_ms = self._processing_latency_ms(plan, placement, cluster,
                                                    effective)
        e2e_ms = processing_ms + self._broker_wait_ms(scale)

        crashed = any(occ > self.config.oom_threshold
                      for occ in effective.node_occupancy.values())
        success = self._success(plan, effective, throughput, processing_ms,
                                crashed)

        throughput, processing_ms, e2e_ms = self._apply_noise(
            rng, throughput, processing_ms, e2e_ms)
        if not success:
            throughput = 0.0
        return QueryMetrics(throughput=throughput,
                            e2e_latency_ms=e2e_ms,
                            processing_latency_ms=processing_ms,
                            backpressure=backpressure,
                            success=success)

    # ------------------------------------------------------------------
    # Steady-state snapshot
    # ------------------------------------------------------------------
    def snapshot(self, plan: QueryPlan, placement: Placement,
                 cluster: Cluster, scale: float,
                 efficiency: dict[str, float] | None = None
                 ) -> ExecutionSnapshot:
        """Loads, occupancies and utilizations at one source-rate scale.

        The same evaluation that every bisection step of :meth:`run`
        uses, on invariants derived for this one call.
        """
        efficiency = efficiency or {n: 1.0 for n in cluster.node_ids}
        return self._evaluate(
            self._placed(plan, placement, cluster, efficiency), scale)

    def _placed(self, plan: QueryPlan, placement: Placement,
                cluster: Cluster, efficiency: dict[str, float]
                ) -> _PlacedQuery:
        """Everything a snapshot needs that no source-rate scale moves."""
        host = {op_id: placement.node_of(op_id)
                for op_id in plan.topological_order()}
        operators = [(op_id, plan.operator(op_id), plan.parents(op_id), node)
                     for op_id, node in host.items()]
        node_ids = cluster.node_ids
        node_ops = dict.fromkeys(node_ids, 0)
        for node_id in host.values():
            node_ops[node_id] += 1
        config = self.config
        nodes = []
        for node_id in node_ids:
            node = cluster.node(node_id)
            footprint_mb = (config.node_footprint_mb + node_ops[node_id]
                            * config.operator_footprint_mb)
            capacity = (node.cpu / 100.0) * config.reference_capacity \
                * efficiency[node_id]
            nodes.append((node_id, footprint_mb * _MB, node.ram_mb * _MB,
                          capacity, node_ops[node_id] > 0))
        used = set(placement.used_nodes())
        # A stream's schema, so its tuple size, does not depend on rates.
        schemas = plan.annotations()
        links = [(parent, host[parent], schemas[parent].output_schema.bytes)
                 for parent, child in plan.edges
                 if host[parent] != host[child]]
        link_bits_per_s = {
            sender: cluster.node(sender).bandwidth_mbits * 1e6
            for _, sender, _ in links}
        return _PlacedQuery(plan, operators, nodes,
                            [n for n in node_ids if n in used],
                            links, link_bits_per_s)

    def _evaluate(self, query: _PlacedQuery, scale: float
                  ) -> ExecutionSnapshot:
        """The snapshot of one placed query at one source-rate scale."""
        annotations = query.plan.annotations(scale)
        node_load = {node_id: 0.0 for node_id, *_ in query.nodes}
        node_state = dict(node_load)
        for op_id, operator, parents, node in query.operators:
            inputs = [annotations[p] for p in parents]
            annotation = annotations[op_id]
            node_load[node] += operator_load(operator, inputs, annotation)
            node_state[node] += operator_state_bytes(operator, inputs,
                                                     annotation)

        node_capacity: dict[str, float] = {}
        node_occupancy: dict[str, float] = {}
        node_utilization: dict[str, float] = {}
        for node_id, footprint, ram, base_capacity, hosts_ops in query.nodes:
            occupancy = (footprint + node_state[node_id]) / ram
            capacity = base_capacity * self._gc_factor(occupancy)
            utilization = node_load[node_id] / capacity if capacity > 0 \
                else float("inf")
            node_capacity[node_id] = capacity
            node_occupancy[node_id] = occupancy
            node_utilization[node_id] = utilization if hosts_ops else 0.0

        # Outgoing-bandwidth utilization per sender node.
        outgoing_bits: dict[str, float] = {}
        for parent, sender, size in query.links:
            bits = annotations[parent].output_rate * size * 8.0
            outgoing_bits[sender] = outgoing_bits.get(sender, 0.0) + bits
        link_utilization = {
            sender: bits / query.link_bits_per_s[sender]
            for sender, bits in outgoing_bits.items()}

        max_util = max([node_utilization[n] for n in query.used]
                       + list(link_utilization.values()) + [0.0])
        return ExecutionSnapshot(scale=scale, annotations=annotations,
                                 node_load=node_load,
                                 node_capacity=node_capacity,
                                 node_utilization=node_utilization,
                                 node_occupancy=node_occupancy,
                                 link_utilization=link_utilization,
                                 max_utilization=max_util)

    def _gc_factor(self, occupancy: float) -> float:
        threshold = self.config.gc_pressure_threshold
        if occupancy <= threshold:
            return 1.0
        pressure = (occupancy - threshold) / max(1e-9, 1.0 - threshold)
        return max(self.config.gc_capacity_floor, 1.0 - 0.75 * pressure)

    def _node_efficiency(self, cluster: Cluster,
                         rng: np.random.Generator) -> dict[str, float]:
        sigma = self.config.node_efficiency_noise
        if sigma <= 0:
            return {n: 1.0 for n in cluster.node_ids}
        return {n: float(rng.lognormal(0.0, sigma))
                for n in cluster.node_ids}

    # ------------------------------------------------------------------
    # Backpressure fixed point
    # ------------------------------------------------------------------
    def _sustainable_scale(self, query: _PlacedQuery,
                           nominal: ExecutionSnapshot) -> float:
        """Largest source-rate factor the bottleneck sustains (<= 1)."""
        if nominal.max_utilization <= 1.0:
            return 1.0
        low, high = 0.0, 1.0
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (low + high)
            if self._evaluate(query, mid).max_utilization > 1.0:
                high = mid
            else:
                low = mid
        return max(low, 1e-4)

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def _processing_latency_ms(self, plan: QueryPlan, placement: Placement,
                               cluster: Cluster,
                               snapshot: ExecutionSnapshot) -> float:
        """Latency of the slowest source-to-sink path, in ms."""
        worst = 0.0
        for path in _paths_to_sink(plan):
            total_ms = 0.0
            for index, op_id in enumerate(path):
                total_ms += self._operator_delay_ms(plan, placement, op_id,
                                                    snapshot)
                if index + 1 < len(path):
                    total_ms += self._edge_delay_ms(plan, placement, cluster,
                                                    op_id, snapshot)
            worst = max(worst, total_ms)
        return worst

    def _operator_delay_ms(self, plan: QueryPlan, placement: Placement,
                           op_id: str, snapshot: ExecutionSnapshot) -> float:
        operator = plan.operator(op_id)
        annotation = snapshot.annotations[op_id]
        node = placement.node_of(op_id)
        capacity = snapshot.node_capacity[node]
        in_rate = annotation.input_rate
        inputs = [snapshot.annotations[p] for p in plan.parents(op_id)]
        load = operator_load(operator, inputs, annotation)
        per_tuple_cost = load / in_rate if in_rate > 0 else 0.0
        service_s = per_tuple_cost / capacity if capacity > 0 else 0.0

        rho = min(snapshot.node_utilization[node], 0.995)
        wait_factor = min(self.config.max_queue_wait_factor,
                          rho / (1.0 - rho))
        delay_s = service_s * (1.0 + wait_factor)

        window = getattr(operator, "window", None)
        if window is not None:
            if window.policy == "time":
                delay_s += window.slide / 2.0
            elif in_rate > 0:
                delay_s += window.slide / (2.0 * in_rate)
        return delay_s * 1000.0

    def _edge_delay_ms(self, plan: QueryPlan, placement: Placement,
                       cluster: Cluster, parent: str,
                       snapshot: ExecutionSnapshot) -> float:
        children = plan.children(parent)
        if not children:
            return 0.0
        child = children[0]
        sender = placement.node_of(parent)
        receiver = placement.node_of(child)
        link = cluster.link(sender, receiver)
        if link.local:
            return 0.05  # in-process hand-off
        annotation = snapshot.annotations[parent]
        transmit_s = annotation.output_schema.bytes * 8.0 \
            / (link.bandwidth_mbits * 1e6)
        rho = min(snapshot.link_utilization.get(sender, 0.0), 0.995)
        wait_factor = min(self.config.max_queue_wait_factor,
                          rho / (1.0 - rho))
        return link.latency_ms + transmit_s * (1.0 + wait_factor) * 1000.0

    def _broker_wait_ms(self, scale: float) -> float:
        base = self.config.broker_base_latency_ms
        if scale >= 1.0:
            return base
        # Backpressured: the broker queue grows for the whole execution;
        # the average emitted tuple waited for roughly half the deficit.
        deficit = (1.0 - scale) / max(scale, 1e-3)
        wait_s = min(self.config.execution_seconds / 2.0,
                     deficit * self.config.execution_seconds / 2.0)
        return base + wait_s * 1000.0

    # ------------------------------------------------------------------
    # Success / noise
    # ------------------------------------------------------------------
    def _success(self, plan: QueryPlan, snapshot: ExecutionSnapshot,
                 throughput: float, processing_ms: float,
                 crashed: bool) -> bool:
        if crashed:
            return False
        if throughput * self.config.execution_seconds < 1.0:
            return False
        first_output_s = self._first_output_seconds(plan, snapshot)
        return first_output_s + processing_ms / 1000.0 \
            <= self.config.execution_seconds

    def _first_output_seconds(self, plan: QueryPlan,
                              snapshot: ExecutionSnapshot) -> float:
        """Time until the first result can leave the last windowed stage."""
        worst = 0.0
        for path in _paths_to_sink(plan):
            path_wait = 0.0
            for op_id in path:
                operator = plan.operator(op_id)
                window = getattr(operator, "window", None)
                if window is None:
                    continue
                in_rate = snapshot.annotations[op_id].input_rate
                if operator.kind is OperatorKind.JOIN:
                    in_rate /= 2.0  # per-stream window fill rate
                path_wait += window.first_fire_seconds(max(in_rate, 1e-9))
            worst = max(worst, path_wait)
        return worst

    def _apply_noise(self, rng: np.random.Generator, throughput: float,
                     processing_ms: float, e2e_ms: float
                     ) -> tuple[float, float, float]:
        t_noise = float(rng.lognormal(0.0, self.config.throughput_noise))
        l_noise = float(rng.lognormal(0.0, self.config.latency_noise))
        e_noise = float(rng.lognormal(0.0, self.config.latency_noise))
        return (throughput * t_noise, processing_ms * l_noise,
                e2e_ms * e_noise)


# ----------------------------------------------------------------------
# Plan helpers
# ----------------------------------------------------------------------
def _paths_to_sink(plan: QueryPlan) -> list[list[str]]:
    """All source-to-sink operator paths of the DAG."""
    paths: list[list[str]] = []

    def walk(op_id: str, trail: list[str]) -> None:
        trail = trail + [op_id]
        children = plan.children(op_id)
        if not children:
            paths.append(trail)
            return
        for child in children:
            walk(child, trail)

    for source in plan.sources:
        walk(source, [])
    return paths
