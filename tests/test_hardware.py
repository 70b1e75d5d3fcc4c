"""Tests for hardware nodes, clusters, network links and placements."""

from __future__ import annotations

import pytest

from repro.config import default_hardware_ranges
from repro.hardware import (Cluster, HardwareNode, Placement,
                            PlacementError, capability_bin,
                            capability_score, link_between, sample_cluster,
                            sample_node)
from repro.hardware.network import LOCAL_BANDWIDTH_MBITS


class TestHardwareNode:
    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareNode("n", cpu=0, ram_mb=1, bandwidth_mbits=1,
                         latency_ms=1)
        with pytest.raises(ValueError):
            HardwareNode("n", cpu=1, ram_mb=1, bandwidth_mbits=1,
                         latency_ms=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["cpu", "ram_mb", "bandwidth_mbits",
                                       "latency_ms"])
    def test_rejects_non_finite(self, field, value):
        features = {"cpu": 100.0, "ram_mb": 2000.0,
                    "bandwidth_mbits": 50.0, "latency_ms": 10.0}
        features[field] = value
        with pytest.raises(ValueError, match=field):
            HardwareNode("n", **features)

    def test_features_dict(self):
        node = HardwareNode("n", 100, 2000, 50, 10)
        assert node.features() == {"cpu": 100, "ram_mb": 2000,
                                   "bandwidth_mbits": 50,
                                   "latency_ms": 10}

    def test_capability_score_ordering(self):
        weak = HardwareNode("weak", 50, 1000, 25, 160)
        strong = HardwareNode("strong", 800, 32000, 10000, 1)
        assert capability_score(weak) < capability_score(strong)

    def test_capability_bins_span_edge_to_cloud(self):
        weak = HardwareNode("weak", 50, 1000, 25, 160)
        mid = HardwareNode("mid", 300, 8000, 800, 10)
        strong = HardwareNode("strong", 800, 32000, 10000, 1)
        assert capability_bin(weak) == 0
        assert capability_bin(strong) == 2
        assert capability_bin(weak) <= capability_bin(mid) \
            <= capability_bin(strong)

    def test_sample_node_from_grids(self, rng):
        ranges = default_hardware_ranges()
        node = sample_node(rng, "n1")
        assert node.cpu in ranges.cpu
        assert node.ram_mb in ranges.ram_mb


class TestNetwork:
    def test_local_link(self):
        node = HardwareNode("a", 100, 1000, 50, 10)
        link = link_between(node, node)
        assert link.local
        assert link.latency_ms == 0.0
        assert link.bandwidth_mbits == LOCAL_BANDWIDTH_MBITS

    def test_remote_link_uses_sender_egress(self):
        sender = HardwareNode("a", 100, 1000, 50, 10)
        receiver = HardwareNode("b", 100, 1000, 10000, 1)
        link = link_between(sender, receiver)
        assert link.latency_ms == 10
        assert link.bandwidth_mbits == 50

    def test_transfer_seconds(self):
        sender = HardwareNode("a", 100, 1000, 8, 100)  # 8 Mbit = 1 MB/s
        receiver = HardwareNode("b", 100, 1000, 8, 1)
        link = link_between(sender, receiver)
        assert link.transfer_seconds(1_000_000) == pytest.approx(1.1)


class TestCluster:
    def test_duplicate_node_rejected(self):
        node = HardwareNode("a", 100, 1000, 50, 10)
        with pytest.raises(ValueError):
            Cluster([node, node])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_by_capability_sorted(self, small_cluster):
        ordered = small_cluster.by_capability()
        scores = [capability_score(n) for n in ordered]
        assert scores == sorted(scores)

    def test_sample_cluster(self, rng):
        cluster = sample_cluster(rng, 5)
        assert len(cluster) == 5
        assert len(set(cluster.node_ids)) == 5


class TestPlacement:
    def test_round_trip_accessors(self, linear_plan, small_cluster):
        placement = Placement({"src1": "edge1", "filter1": "edge1",
                               "sink": "cloud1"})
        placement.validate(linear_plan, small_cluster)
        assert placement.node_of("src1") == "edge1"
        assert placement.colocated("src1", "filter1")
        assert not placement.colocated("src1", "sink")
        assert set(placement.operators_on("edge1")) == {"src1", "filter1"}
        assert placement.used_nodes() == ["edge1", "cloud1"]

    def test_missing_operator_detected(self, linear_plan, small_cluster):
        placement = Placement({"src1": "edge1"})
        with pytest.raises(PlacementError):
            placement.validate(linear_plan, small_cluster)

    def test_unknown_node_detected(self, linear_plan, small_cluster):
        placement = Placement({"src1": "mars", "filter1": "edge1",
                               "sink": "edge1"})
        with pytest.raises(PlacementError):
            placement.validate(linear_plan, small_cluster)

    def test_with_move(self):
        placement = Placement({"a": "n1", "b": "n1"})
        moved = placement.with_move("a", "n2")
        assert moved.node_of("a") == "n2"
        assert placement.node_of("a") == "n1"  # original untouched

    def test_with_move_unknown_operator(self):
        placement = Placement({"a": "n1"})
        with pytest.raises(PlacementError):
            placement.with_move("ghost", "n2")

    def test_node_of_unplaced_raises(self):
        with pytest.raises(PlacementError):
            Placement({}).node_of("a")
