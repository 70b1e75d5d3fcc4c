"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Make the package importable even without an editable install.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data import BenchmarkCollector  # noqa: E402
from repro.hardware import Cluster, HardwareNode, Placement  # noqa: E402
from repro.query import (DataType, Filter, QueryPlan, Sink, Source,  # noqa: E402
                         TupleSchema, Window, WindowedAggregate,
                         WindowedJoin)


def pytest_configure(config):
    # pytest-timeout provides the enforcement and is installed in CI;
    # registering the marker here keeps local runs (where the plugin
    # is optional) warning-free — the marks are simply inert.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than "
        "``seconds`` (enforced by pytest-timeout where installed)")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster():
    return Cluster([
        HardwareNode("edge1", cpu=50, ram_mb=1000, bandwidth_mbits=25,
                     latency_ms=80),
        HardwareNode("edge2", cpu=100, ram_mb=2000, bandwidth_mbits=50,
                     latency_ms=40),
        HardwareNode("fog1", cpu=300, ram_mb=8000, bandwidth_mbits=400,
                     latency_ms=10),
        HardwareNode("cloud1", cpu=800, ram_mb=32000,
                     bandwidth_mbits=10000, latency_ms=1),
    ])


@pytest.fixture
def linear_plan():
    source = Source("src1", 1000.0,
                    TupleSchema.of("int", "double", "string"))
    predicate = Filter("filter1", "<", DataType.DOUBLE, 0.4)
    sink = Sink("sink")
    return QueryPlan([source, predicate, sink],
                     [("src1", "filter1"), ("filter1", "sink")],
                     name="linear")


@pytest.fixture
def agg_plan():
    source = Source("src1", 500.0, TupleSchema.of("int", "double"))
    aggregate = WindowedAggregate(
        "agg1", Window.sliding("time", 4.0, 2.0), "mean",
        DataType.DOUBLE, DataType.INT, 0.2)
    sink = Sink("sink")
    return QueryPlan([source, aggregate, sink],
                     [("src1", "agg1"), ("agg1", "sink")],
                     name="linear+agg")


@pytest.fixture
def join_plan():
    left = Source("src1", 200.0, TupleSchema.of("int", "string"))
    right = Source("src2", 300.0, TupleSchema.of("int", "double"))
    join = WindowedJoin("join1", Window.tumbling("count", 20.0),
                        DataType.INT, 0.01)
    sink = Sink("sink")
    return QueryPlan([left, right, join, sink],
                     [("src1", "join1"), ("src2", "join1"),
                      ("join1", "sink")],
                     name="two-way-join")


@pytest.fixture
def full_placement(small_cluster):
    def place(plan, node_ids=None):
        nodes = node_ids or small_cluster.node_ids
        order = plan.topological_order()
        return Placement({op: nodes[i % len(nodes)]
                          for i, op in enumerate(order)})
    return place


@pytest.fixture
def tape_predictions():
    """Per-member label-space predictions, ``(size, n_graphs)``, from
    each member's taped forward — the oracle the member stacks must
    match bit for bit."""
    def predict(ensemble, graphs):
        return np.stack([member.predict(graphs)
                         for member in ensemble.members])
    return predict


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small simulated trace corpus shared across tests."""
    collector = BenchmarkCollector(seed=99)
    return collector.collect(220)
