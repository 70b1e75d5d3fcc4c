"""The analytical simulator against its rebuild-per-step reference.

``AnalyticalSimulator.run`` derives everything that does not depend on
the source-rate scale once per run and evaluates each step of its
backpressure bisection from that, propagating the plan's annotations at
the step's scale.  The reference below is the implementation it
replaced: every step builds a scaled copy of the plan (``_scaled_plan``)
and a full snapshot from scratch.  The two must agree bit for bit —
compared through the ``repr`` of every float — on collected corpora and
on hand-built corner cases of the fixed point.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.data import BenchmarkCollector
from repro.hardware import Cluster, HardwareNode, Placement
from repro.query import (DataType, Filter, QueryPlan, Sink, Source,
                         TupleSchema, Window, WindowedAggregate,
                         WindowedJoin)
from repro.simulator import (AnalyticalSimulator, DSPSSimulator,
                             ExecutionSnapshot, QueryMetrics)
from repro.simulator.costs import operator_load, operator_state_bytes

_BISECTION_STEPS = 30
_MB = 1024.0 * 1024.0


# ----------------------------------------------------------------------
# Reference: a scaled plan and a full snapshot at every bisection step
# ----------------------------------------------------------------------
def _scaled_plan(plan: QueryPlan, scale: float) -> QueryPlan:
    """Copy of the plan with all source rates multiplied by ``scale``."""
    if scale == 1.0:
        return plan
    operators = []
    for operator in plan.operators.values():
        if isinstance(operator, Source):
            operators.append(replace(
                operator, event_rate=max(operator.event_rate * scale, 1e-6)))
        else:
            operators.append(operator)
    return QueryPlan(operators, plan.edges, name=plan.name)


def reference_snapshot(sim: AnalyticalSimulator, plan, placement, cluster,
                       scale, efficiency=None) -> ExecutionSnapshot:
    config = sim.config
    efficiency = efficiency or {n: 1.0 for n in cluster.node_ids}
    scaled = _scaled_plan(plan, scale)
    annotations = scaled.annotations()

    node_load = {n: 0.0 for n in cluster.node_ids}
    node_state = {n: 0.0 for n in cluster.node_ids}
    node_ops = {n: 0 for n in cluster.node_ids}
    for op_id in scaled.topological_order():
        operator = scaled.operator(op_id)
        inputs = [annotations[p] for p in scaled.parents(op_id)]
        annotation = annotations[op_id]
        node = placement.node_of(op_id)
        node_load[node] += operator_load(operator, inputs, annotation)
        node_state[node] += operator_state_bytes(operator, inputs,
                                                 annotation)
        node_ops[node] += 1

    node_capacity, node_occupancy, node_utilization = {}, {}, {}
    for node_id in cluster.node_ids:
        node = cluster.node(node_id)
        footprint_mb = (config.node_footprint_mb
                        + node_ops[node_id] * config.operator_footprint_mb)
        occupancy = (footprint_mb * _MB + node_state[node_id]) \
            / (node.ram_mb * _MB)
        capacity = (node.cpu / 100.0) * config.reference_capacity \
            * efficiency[node_id]
        capacity *= sim._gc_factor(occupancy)
        utilization = node_load[node_id] / capacity if capacity > 0 \
            else float("inf")
        node_capacity[node_id] = capacity
        node_occupancy[node_id] = occupancy
        node_utilization[node_id] = (utilization if node_ops[node_id]
                                     else 0.0)

    outgoing_bits: dict[str, float] = {}
    for parent, child in scaled.edges:
        sender = placement.node_of(parent)
        if sender == placement.node_of(child):
            continue
        annotation = annotations[parent]
        bits = annotation.output_rate * annotation.output_schema.bytes * 8.0
        outgoing_bits[sender] = outgoing_bits.get(sender, 0.0) + bits
    link_utilization = {
        node: bits / (cluster.node(node).bandwidth_mbits * 1e6)
        for node, bits in outgoing_bits.items()}

    used = set(placement.used_nodes())
    max_util = max([u for n, u in node_utilization.items() if n in used]
                   + list(link_utilization.values()) + [0.0])
    return ExecutionSnapshot(scale=scale, annotations=annotations,
                             node_load=node_load,
                             node_capacity=node_capacity,
                             node_utilization=node_utilization,
                             node_occupancy=node_occupancy,
                             link_utilization=link_utilization,
                             max_utilization=max_util)


def reference_scale(sim, plan, placement, cluster, nominal,
                    efficiency) -> float:
    if nominal.max_utilization <= 1.0:
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        snap = reference_snapshot(sim, plan, placement, cluster, mid,
                                  efficiency)
        if snap.max_utilization > 1.0:
            high = mid
        else:
            low = mid
    return max(low, 1e-4)


def reference_run(sim: AnalyticalSimulator, plan, placement, cluster,
                  seed=0) -> tuple[QueryMetrics, float, ExecutionSnapshot]:
    """The metrics, the sustainable scale and the effective snapshot."""
    placement.validate(plan, cluster)
    rng = np.random.default_rng(seed)
    efficiency = sim._node_efficiency(cluster, rng)
    nominal = reference_snapshot(sim, plan, placement, cluster, 1.0,
                                 efficiency)
    backpressure = nominal.max_utilization > 1.0
    scale = reference_scale(sim, plan, placement, cluster, nominal,
                            efficiency)
    effective = (nominal if scale >= 1.0 else
                 reference_snapshot(sim, plan, placement, cluster, scale,
                                    efficiency))
    throughput = effective.annotations[plan.sink].output_rate
    processing_ms = sim._processing_latency_ms(plan, placement, cluster,
                                               effective)
    e2e_ms = processing_ms + sim._broker_wait_ms(scale)
    crashed = any(occ > sim.config.oom_threshold
                  for occ in effective.node_occupancy.values())
    success = sim._success(plan, effective, throughput, processing_ms,
                           crashed)
    throughput, processing_ms, e2e_ms = sim._apply_noise(
        rng, throughput, processing_ms, e2e_ms)
    if not success:
        throughput = 0.0
    metrics = QueryMetrics(throughput=throughput, e2e_latency_ms=e2e_ms,
                           processing_latency_ms=processing_ms,
                           backpressure=backpressure, success=success)
    return metrics, scale, effective


def _reprs(metrics: QueryMetrics) -> list[str]:
    return [repr(getattr(metrics, f.name)) for f in fields(metrics)]


def _assert_run_matches(plan, placement, cluster, seed=0):
    """Run both implementations; return the reference's scale and
    effective snapshot for the caller's own checks."""
    sim = AnalyticalSimulator()
    expected, scale, effective = reference_run(sim, plan, placement,
                                               cluster, seed)
    got = DSPSSimulator().run(plan, placement, cluster, seed=seed)
    assert _reprs(got) == _reprs(expected)
    return expected, scale, effective


# ----------------------------------------------------------------------
# Collected corpora
# ----------------------------------------------------------------------
_CORPUS_SEEDS = (5, 17, 29)
_PER_SEED = 110


@pytest.fixture(scope="module")
def corpus():
    traces = []
    for seed in _CORPUS_SEEDS:
        traces.extend(BenchmarkCollector(seed=seed).collect(_PER_SEED))
    return traces


class TestCollectedCorpora:
    def test_every_label_matches_reference(self, corpus):
        sim = AnalyticalSimulator()
        simulator = DSPSSimulator()
        backpressured = 0
        for index, trace in enumerate(corpus):
            expected, _, _ = reference_run(sim, trace.plan, trace.placement,
                                           trace.cluster, seed=index)
            got = simulator.run(trace.plan, trace.placement, trace.cluster,
                                seed=index)
            assert _reprs(got) == _reprs(expected), index
            backpressured += expected.backpressure
        assert len(corpus) >= 300
        assert backpressured >= 50

    @pytest.mark.parametrize("scale", [0.5, 0.3, 0.5 ** 17, 1e-4, 1e-12])
    def test_snapshot_at_scale_matches_reference(self, corpus, scale):
        sim = AnalyticalSimulator()
        for trace in corpus[::4]:
            efficiency = {n: 1.0 + 0.01 * i
                          for i, n in enumerate(trace.cluster.node_ids)}
            got = sim.snapshot(trace.plan, trace.placement, trace.cluster,
                               scale, efficiency)
            expected = reference_snapshot(sim, trace.plan, trace.placement,
                                          trace.cluster, scale, efficiency)
            # The dataclass repr covers the annotations, every per-node
            # and per-link dict (keys in order) and max_utilization.
            assert repr(got) == repr(expected)

    def test_nominal_snapshot_reuses_memoized_annotations(self, corpus):
        trace = corpus[0]
        got = AnalyticalSimulator().snapshot(trace.plan, trace.placement,
                                             trace.cluster, 1.0)
        assert got.annotations is trace.plan.annotations()


# ----------------------------------------------------------------------
# Hand-built corners of the fixed point
# ----------------------------------------------------------------------
def _node(node_id, cpu=400, ram=16000, bw=1000, lat=5):
    return HardwareNode(node_id, cpu=cpu, ram_mb=ram, bandwidth_mbits=bw,
                        latency_ms=lat)


def _on(plan, node_id):
    return Placement({op: node_id for op in plan.topological_order()})


class TestHandBuiltCases:
    def test_super_linear_join_load(self):
        left = Source("s1", 4000.0, TupleSchema.of("int", "double"))
        right = Source("s2", 3000.0, TupleSchema.of("int", "string"))
        join = WindowedJoin("j", Window.sliding("time", 4.0, 1.0),
                            DataType.INT, 0.001)
        plan = QueryPlan([left, right, join, Sink("sink")],
                         [("s1", "j"), ("s2", "j"), ("j", "sink")])
        cluster = Cluster([_node("n", cpu=200)])
        metrics, scale, _ = _assert_run_matches(plan, _on(plan, "n"),
                                                cluster, seed=4)
        assert metrics.backpressure
        assert 1e-4 < scale < 1.0
        # Load grows faster than the rates: at half the rates the join
        # burns less than half the nominal load.
        sim = AnalyticalSimulator()
        full = sim.snapshot(plan, _on(plan, "n"), cluster, 1.0)
        half = sim.snapshot(plan, _on(plan, "n"), cluster, 0.5)
        assert half.node_load["n"] < 0.5 * full.node_load["n"]

    def test_gc_pressure_above_threshold(self):
        source = Source("s1", 6000.0, TupleSchema.of(*(["string"] * 4)))
        agg = WindowedAggregate("agg", Window.tumbling("time", 2.0), "sum",
                                DataType.DOUBLE, DataType.INT, 0.5)
        plan = QueryPlan([source, agg, Sink("sink")],
                         [("s1", "agg"), ("agg", "sink")])
        cluster = Cluster([_node("n", cpu=60, ram=1450)])
        metrics, scale, effective = _assert_run_matches(
            plan, _on(plan, "n"), cluster, seed=2)
        config = AnalyticalSimulator().config
        occupancy = effective.node_occupancy["n"]
        assert config.gc_pressure_threshold < occupancy \
            < config.oom_threshold
        assert metrics.backpressure and metrics.success
        assert scale < 1.0

    def test_oom_crash(self):
        source = Source("s1", 20000.0, TupleSchema.of(*(["string"] * 6)))
        agg = WindowedAggregate("agg", Window.tumbling("time", 16.0), "sum",
                                DataType.DOUBLE, DataType.INT, 0.5)
        plan = QueryPlan([source, agg, Sink("sink")],
                         [("s1", "agg"), ("agg", "sink")])
        cluster = Cluster([_node("n", cpu=800, ram=1000)])
        metrics, _, effective = _assert_run_matches(plan, _on(plan, "n"),
                                                    cluster, seed=3)
        assert effective.node_occupancy["n"] \
            > AnalyticalSimulator().config.oom_threshold
        assert not metrics.success and metrics.throughput == 0.0

    def test_link_bound_bottleneck(self):
        source = Source("s1", 20000.0, TupleSchema.of(*(["string"] * 8)))
        plan = QueryPlan([source, Sink("sink")], [("s1", "sink")])
        cluster = Cluster([_node("edge", cpu=800, bw=25),
                           _node("cloud", cpu=800, bw=10000)])
        placement = Placement({"s1": "edge", "sink": "cloud"})
        metrics, scale, effective = _assert_run_matches(plan, placement,
                                                        cluster, seed=5)
        assert metrics.backpressure and scale < 1.0
        # The uplink, not a host, bounds the sustainable scale.
        assert effective.link_utilization["edge"] \
            > max(effective.node_utilization.values())

    def test_scale_floor(self):
        source = Source("s1", 1e9, TupleSchema.of("int", "double"))
        predicate = Filter("f1", "<", DataType.DOUBLE, 1.0)
        plan = QueryPlan([source, predicate, Sink("sink")],
                         [("s1", "f1"), ("f1", "sink")])
        cluster = Cluster([_node("n", cpu=50)])
        metrics, scale, _ = _assert_run_matches(plan, _on(plan, "n"),
                                                cluster, seed=6)
        assert metrics.backpressure
        assert scale == 1e-4

    def test_scaled_source_rate_floor(self):
        source = Source("s1", 1e-3, TupleSchema.of("int"))
        plan = QueryPlan([source, Sink("sink")], [("s1", "sink")])
        cluster = Cluster([_node("n")])
        placement = _on(plan, "n")
        sim = AnalyticalSimulator()
        got = sim.snapshot(plan, placement, cluster, 1e-6)
        expected = reference_snapshot(sim, plan, placement, cluster, 1e-6)
        assert repr(got) == repr(expected)
        assert got.annotations["s1"].output_rate == 1e-6
