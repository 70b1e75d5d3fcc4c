"""Behavioural tests of the analytical execution simulator.

These check the causal structure the cost model is supposed to learn:
stronger hardware never hurts, saturation causes backpressure, memory
overflow kills the query, network hops add latency, and results are
reproducible per seed.
"""

from __future__ import annotations

import pytest

from repro.hardware import Cluster, HardwareNode, Placement
from repro.query import (DataType, Filter, QueryPlan, Sink, Source,
                         TupleSchema, Window, WindowedAggregate)
from repro.simulator import AnalyticalSimulator


def _node(node_id, cpu=400, ram=16000, bw=1000, lat=5):
    return HardwareNode(node_id, cpu=cpu, ram_mb=ram, bandwidth_mbits=bw,
                        latency_ms=lat)


def _linear(rate=1000.0, selectivity=0.5):
    source = Source("src1", rate, TupleSchema.of("int", "double"))
    predicate = Filter("f1", "<", DataType.DOUBLE, selectivity)
    return QueryPlan([source, predicate, Sink("sink")],
                     [("src1", "f1"), ("f1", "sink")])


def _colocate_all(plan, node_id):
    return Placement({op: node_id for op in plan.topological_order()})


@pytest.fixture
def simulator():
    return AnalyticalSimulator()


class TestThroughput:
    def test_healthy_query_meets_logical_rate(self, simulator):
        plan = _linear(rate=500.0, selectivity=0.5)
        cluster = Cluster([_node("big", cpu=800)])
        metrics = simulator.run(plan, _colocate_all(plan, "big"), cluster)
        assert metrics.success
        assert not metrics.backpressure
        assert metrics.throughput == pytest.approx(250.0, rel=0.3)

    def test_weak_cpu_throttles_throughput(self, simulator):
        plan = _linear(rate=20000.0, selectivity=1.0)
        weak = Cluster([_node("weak", cpu=50)])
        strong = Cluster([_node("strong", cpu=800)])
        weak_run = simulator.run(plan, _colocate_all(plan, "weak"), weak)
        strong_run = simulator.run(plan, _colocate_all(plan, "strong"),
                                   strong)
        assert weak_run.backpressure
        assert weak_run.throughput < strong_run.throughput

    def test_stronger_hardware_never_slower(self, simulator):
        plan = _linear(rate=5000.0)
        results = []
        for cpu in (50, 200, 800):
            cluster = Cluster([_node("n", cpu=cpu)])
            results.append(simulator.run(plan, _colocate_all(plan, "n"),
                                         cluster, seed=3).throughput)
        assert results[0] <= results[1] * 1.2
        assert results[1] <= results[2] * 1.2


class TestBackpressure:
    def test_overload_flags_backpressure(self, simulator):
        plan = _linear(rate=25600.0, selectivity=1.0)
        cluster = Cluster([_node("tiny", cpu=50)])
        metrics = simulator.run(plan, _colocate_all(plan, "tiny"), cluster)
        assert metrics.backpressure

    def test_backpressure_inflates_e2e_latency(self, simulator):
        plan = _linear(rate=25600.0, selectivity=1.0)
        cluster = Cluster([_node("tiny", cpu=50)])
        metrics = simulator.run(plan, _colocate_all(plan, "tiny"), cluster)
        assert metrics.e2e_latency_ms > 10 * metrics.processing_latency_ms

    def test_narrow_uplink_causes_backpressure(self, simulator):
        # Wide tuples at high rate over a 25 Mbit/s uplink.
        source = Source("src1", 20000.0,
                        TupleSchema.of(*(["string"] * 8)))
        plan = QueryPlan([source, Sink("sink")], [("src1", "sink")])
        cluster = Cluster([_node("edge", cpu=800, bw=25),
                           _node("cloud", cpu=800, bw=10000)])
        placement = Placement({"src1": "edge", "sink": "cloud"})
        metrics = simulator.run(plan, placement, cluster)
        assert metrics.backpressure


class TestMemory:
    def _big_state_plan(self, rate=20000.0, window_s=16.0):
        source = Source("src1", rate,
                        TupleSchema.of(*(["string"] * 6)))
        agg = WindowedAggregate(
            "agg1", Window.tumbling("time", window_s), "sum",
            DataType.DOUBLE, DataType.INT, 0.5)
        return QueryPlan([source, agg, Sink("sink")],
                         [("src1", "agg1"), ("agg1", "sink")])

    def test_oom_crashes_query(self, simulator):
        plan = self._big_state_plan()
        cluster = Cluster([_node("small_ram", cpu=800, ram=1000)])
        metrics = simulator.run(plan, _colocate_all(plan, "small_ram"),
                                cluster)
        assert not metrics.success

    def test_same_state_fits_large_ram(self, simulator):
        plan = self._big_state_plan()
        cluster = Cluster([_node("big_ram", cpu=800, ram=32000)])
        metrics = simulator.run(plan, _colocate_all(plan, "big_ram"),
                                cluster)
        assert metrics.success

    def test_gc_pressure_reduces_capacity(self):
        simulator = AnalyticalSimulator()
        assert simulator._gc_factor(0.5) == 1.0
        assert simulator._gc_factor(0.85) < 1.0
        assert simulator._gc_factor(0.99) >= \
            simulator.config.gc_capacity_floor


class TestLatency:
    def test_network_hops_add_latency(self, simulator):
        plan = _linear(rate=100.0)
        cluster = Cluster([_node("a", lat=80), _node("b", lat=80),
                           _node("c", lat=80)])
        spread = Placement({"src1": "a", "f1": "b", "sink": "c"})
        packed = _colocate_all(plan, "a")
        spread_run = simulator.run(plan, spread, cluster, seed=1)
        packed_run = simulator.run(plan, packed, cluster, seed=1)
        assert spread_run.processing_latency_ms > \
            packed_run.processing_latency_ms + 100

    def test_window_wait_dominates_for_long_windows(self, simulator):
        source = Source("src1", 100.0, TupleSchema.of("int"))
        agg = WindowedAggregate(
            "agg1", Window.tumbling("time", 16.0), "sum",
            DataType.DOUBLE, DataType.INT, 0.2)
        plan = QueryPlan([source, agg, Sink("sink")],
                         [("src1", "agg1"), ("agg1", "sink")])
        cluster = Cluster([_node("n", cpu=800)])
        metrics = simulator.run(plan, _colocate_all(plan, "n"), cluster)
        assert metrics.processing_latency_ms > 16.0 / 2 * 1000 * 0.5

    def test_e2e_at_least_processing(self, simulator, tiny_corpus):
        for trace in tiny_corpus[:30]:
            assert trace.metrics.e2e_latency_ms >= 0
            # Broker base latency separates the two in healthy runs.
            if not trace.metrics.backpressure:
                assert trace.metrics.e2e_latency_ms >= \
                    0.5 * trace.metrics.processing_latency_ms


class TestSuccessAndDeterminism:
    def test_no_output_means_failure(self, simulator):
        # Selectivity so low that fewer than one tuple arrives in 4 min.
        plan = _linear(rate=100.0, selectivity=1e-5)
        cluster = Cluster([_node("n")])
        metrics = simulator.run(plan, _colocate_all(plan, "n"), cluster)
        assert not metrics.success
        assert metrics.throughput == 0.0

    def test_window_longer_than_execution_fails(self, simulator):
        source = Source("src1", 5.0, TupleSchema.of("int"))
        agg = WindowedAggregate(
            "agg1", Window.tumbling("count", 10000), "sum",
            DataType.DOUBLE, DataType.INT, 0.2)
        plan = QueryPlan([source, agg, Sink("sink")],
                         [("src1", "agg1"), ("agg1", "sink")])
        cluster = Cluster([_node("n")])
        metrics = simulator.run(plan, _colocate_all(plan, "n"), cluster)
        assert not metrics.success

    def test_same_seed_reproducible(self, simulator):
        plan = _linear()
        cluster = Cluster([_node("n")])
        placement = _colocate_all(plan, "n")
        a = simulator.run(plan, placement, cluster, seed=42)
        b = simulator.run(plan, placement, cluster, seed=42)
        assert a == b

    def test_different_seeds_jitter_labels(self, simulator):
        plan = _linear()
        cluster = Cluster([_node("n")])
        placement = _colocate_all(plan, "n")
        a = simulator.run(plan, placement, cluster, seed=1)
        b = simulator.run(plan, placement, cluster, seed=2)
        assert a.throughput != b.throughput

    def test_unplaced_operator_rejected(self, simulator):
        plan = _linear()
        cluster = Cluster([_node("n")])
        with pytest.raises(Exception):
            simulator.run(plan, Placement({"src1": "n"}), cluster)


class TestSustainableScale:
    def test_scale_is_one_when_healthy(self, simulator):
        plan = _linear(rate=100.0)
        cluster = Cluster([_node("n", cpu=800)])
        placement = _colocate_all(plan, "n")
        snapshot = simulator.snapshot(plan, placement, cluster, 1.0)
        assert snapshot.max_utilization <= 1.0

    def test_bisection_lands_at_capacity(self, simulator):
        plan = _linear(rate=25600.0, selectivity=1.0)
        cluster = Cluster([_node("tiny", cpu=50)])
        placement = _colocate_all(plan, "tiny")
        nominal = simulator.snapshot(plan, placement, cluster, 1.0)
        assert nominal.max_utilization > 1.0
        efficiency = {n: 1.0 for n in cluster.node_ids}
        scale = simulator._sustainable_scale(
            simulator._placed(plan, placement, cluster, efficiency), nominal)
        at_scale = simulator.snapshot(plan, placement, cluster, scale,
                                      efficiency)
        assert at_scale.max_utilization == pytest.approx(1.0, abs=0.05)
