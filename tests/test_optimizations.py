"""Tests for the outlook extensions: reordering and monetary costs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Costream, TrainingConfig, featurize_plan
from repro.hardware import Cluster, HardwareNode, Placement
from repro.optimizations import (BudgetedPlacementOptimizer,
                                 MonetaryCostEstimator, PriceModel,
                                 ReorderingOptimizer,
                                 enumerate_filter_orders)
from repro.query import (DataType, Filter, QueryGenerator, QueryPlan,
                         Sink, Source, TupleSchema)


def _chain_plan(selectivities=(0.9, 0.1)):
    operators = [Source("src1", 1000.0, TupleSchema.of("int", "double"))]
    edges = []
    previous = "src1"
    for index, selectivity in enumerate(selectivities):
        op_id = f"f{index + 1}"
        operators.append(Filter(op_id, "<", DataType.DOUBLE, selectivity))
        edges.append((previous, op_id))
        previous = op_id
    operators.append(Sink("sink"))
    edges.append((previous, "sink"))
    return QueryPlan(operators, edges)


class TestEnumerateFilterOrders:
    def test_two_filters_two_orders(self):
        rewrites = enumerate_filter_orders(_chain_plan((0.9, 0.1)))
        assert len(rewrites) == 2
        orders = {tuple(o for o in plan.topological_order()
                        if o.startswith("f")) for plan in rewrites}
        assert orders == {("f1", "f2"), ("f2", "f1")}

    def test_rewrites_preserve_output_rate(self):
        # Filter reordering is semantics-preserving: same final rate.
        plan = _chain_plan((0.5, 0.2, 0.8))
        base_rate = plan.output_rate()
        for rewrite in enumerate_filter_orders(plan):
            assert rewrite.output_rate() == pytest.approx(base_rate)

    def test_no_chain_returns_original(self, join_plan):
        rewrites = enumerate_filter_orders(join_plan)
        assert rewrites == [join_plan]

    def test_rewrite_cap(self):
        plan = _chain_plan((0.1, 0.2, 0.3, 0.4))
        rewrites = enumerate_filter_orders(plan, max_rewrites=5)
        assert len(rewrites) == 5

    def test_all_rewrites_validate(self):
        generator = QueryGenerator(seed=4)
        for _ in range(10):
            plan = generator.generate_linear(n_filters=3)
            for rewrite in enumerate_filter_orders(plan):
                assert len(rewrite) == len(plan)


class TestReorderingOptimizer:
    @pytest.fixture(scope="class")
    def model(self, tiny_corpus):
        config = TrainingConfig(hidden_dim=12, epochs=6)
        model = Costream(
            metrics=("processing_latency", "success", "backpressure"),
            ensemble_size=1, config=config, seed=0)
        return model.fit(tiny_corpus[:110])

    def test_returns_valid_decision(self, model, small_cluster):
        plan = _chain_plan((0.9, 0.1, 0.5))
        optimizer = ReorderingOptimizer(model)
        decision = optimizer.optimize(plan, small_cluster,
                                      n_candidates=6, seed=0)
        decision.placement.validate(decision.plan, small_cluster)
        assert decision.rewrites_evaluated == 6  # 3! permutations
        assert np.isfinite(decision.predicted_objective)

    def test_no_filters_means_no_reordering(self, model, small_cluster,
                                            join_plan):
        decision = ReorderingOptimizer(model).optimize(
            join_plan, small_cluster, n_candidates=5, seed=1)
        assert not decision.reordered
        assert decision.rewrites_evaluated == 1

    @pytest.mark.parametrize("method", ["optimize", "optimize_reference"])
    def test_feasible_rewrite_beats_cheaper_infeasible_one(
            self, method, small_cluster, monkeypatch):
        """The original order has a feasible candidate at 10 ms; the
        only rewrite has none (all predicted to fail) at 5 ms.  The
        rewrite's 5 ms is a fallback, so the original order wins."""
        plan = _chain_plan((0.9, 0.1))
        model = Costream(
            metrics=("processing_latency", "success", "backpressure"),
            config=TrainingConfig(hidden_dim=8), seed=0)
        plan_features = featurize_plan(plan, model.featurizer)
        f1_features = plan_features.features[plan_features.op_index["f1"]]

        def predict_metric(metric, batches):
            # A graph is in the original order when its first filter
            # (operators are numbered in flow order) is f1.
            original = []
            for batch in batches:
                rows = batch.type_rows["filter"]
                first = np.unique(batch.graph_id[rows],
                                  return_index=True)[1]
                original.append(np.all(
                    batch.type_features["filter"][first] == f1_features,
                    axis=1))
            original = np.concatenate(original)
            if metric == "processing_latency":
                return np.where(original, 10.0, 5.0)
            if metric == "success":
                return original.astype(np.float64)
            return np.zeros(original.size)

        monkeypatch.setattr(model, "predict_metric", predict_metric)
        decision = getattr(ReorderingOptimizer(model), method)(
            plan, small_cluster, n_candidates=4, seed=0)
        assert decision.rewrites_evaluated == 2
        assert not decision.reordered
        assert decision.predicted_objective == 10.0


class TestMonetaryCosts:
    @pytest.fixture
    def cluster(self):
        return Cluster([
            HardwareNode("cheap", cpu=100, ram_mb=2000,
                         bandwidth_mbits=100, latency_ms=20),
            HardwareNode("pricey", cpu=800, ram_mb=32000,
                         bandwidth_mbits=10000, latency_ms=1),
        ])

    def test_bigger_machines_cost_more(self):
        prices = PriceModel()
        assert prices.node_dollars_per_hour(800, 32000) > \
            prices.node_dollars_per_hour(100, 2000)

    def test_colocated_placement_has_no_egress(self, cluster):
        plan = _chain_plan((0.5,))
        estimator = MonetaryCostEstimator()
        packed = Placement({o: "cheap"
                            for o in plan.topological_order()})
        spread = Placement({"src1": "cheap", "f1": "pricey",
                            "sink": "cheap"})
        packed_cost = estimator.hourly_cost(plan, packed, cluster)
        machine_only = PriceModel().node_dollars_per_hour(100, 2000)
        assert packed_cost == pytest.approx(machine_only)
        # The spread placement pays for both machines plus egress.
        assert estimator.hourly_cost(plan, spread, cluster) > \
            packed_cost

    def test_egress_scales_with_rate(self, cluster):
        estimator = MonetaryCostEstimator()
        spread = {"src1": "cheap", "f1": "pricey", "sink": "pricey"}
        slow = _chain_plan((0.5,))
        operators = list(slow.operators.values())
        fast_source = Source("src1", 100000.0,
                             TupleSchema.of("int", "double"))
        fast = QueryPlan([fast_source] + operators[1:], slow.edges)
        cost_slow = estimator.hourly_cost(slow, Placement(spread), cluster)
        cost_fast = estimator.hourly_cost(fast, Placement(spread), cluster)
        assert cost_fast > cost_slow

    def test_cost_per_million_tuples(self, cluster):
        plan = _chain_plan((0.5,))
        placement = Placement({o: "pricey"
                               for o in plan.topological_order()})
        per_million = MonetaryCostEstimator().cost_per_million_tuples(
            plan, placement, cluster)
        assert per_million > 0

    def test_estimated_selectivities_change_cost(self, cluster):
        plan = _chain_plan((0.5,))
        spread = Placement({"src1": "cheap", "f1": "cheap",
                            "sink": "pricey"})
        estimator = MonetaryCostEstimator()
        optimistic = estimator.hourly_cost(plan, spread, cluster,
                                           {"f1": 0.01})
        pessimistic = estimator.hourly_cost(plan, spread, cluster,
                                            {"f1": 0.99})
        assert pessimistic > optimistic


class TestBudgetedOptimizer:
    @pytest.fixture(scope="class")
    def model(self, tiny_corpus):
        config = TrainingConfig(hidden_dim=12, epochs=6)
        model = Costream(
            metrics=("processing_latency", "success", "backpressure"),
            ensemble_size=1, config=config, seed=2)
        return model.fit(tiny_corpus[:110])

    def test_prefers_cheaper_feasible_candidates(self, model,
                                                 small_cluster):
        plan = _chain_plan((0.5, 0.4))
        optimizer = BudgetedPlacementOptimizer(model)
        decision = optimizer.optimize(plan, small_cluster,
                                      n_candidates=15, seed=0)
        decision.placement.validate(plan, small_cluster)
        assert decision.hourly_dollars > 0
        assert decision.feasible_candidates <= \
            decision.candidates_evaluated

    def test_latency_budget_tightens_feasibility(self, model,
                                                 small_cluster):
        plan = _chain_plan((0.5, 0.4))
        loose = BudgetedPlacementOptimizer(model).optimize(
            plan, small_cluster, n_candidates=15, seed=1)
        tight = BudgetedPlacementOptimizer(
            model, latency_budget_ms=1e-6).optimize(
            plan, small_cluster, n_candidates=15, seed=1)
        assert tight.feasible_candidates <= loose.feasible_candidates

    def test_empty_enumeration_raises_before_scoring(self, model,
                                                     small_cluster):
        optimizer = BudgetedPlacementOptimizer(model)
        with pytest.raises(ValueError, match="no candidates"):
            optimizer.optimize(_chain_plan((0.5, 0.4)), small_cluster,
                               n_candidates=0)
