"""Tests for plan validation and logical stream annotation."""

from __future__ import annotations

import pytest

from repro.query import (DataType, Filter, PlanValidationError, QueryPlan,
                         Sink, Source, TupleSchema, Window,
                         WindowedAggregate, WindowedJoin)


def _source(op_id="src1", rate=100.0, width=2):
    return Source(op_id, rate, TupleSchema.of(*(["int"] * width)))


class TestValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(PlanValidationError):
            QueryPlan([], [])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PlanValidationError):
            QueryPlan([_source(), _source()], [])

    def test_cycle_rejected(self):
        ops = [_source(), Filter("f1", "<", DataType.INT, 0.5),
               Filter("f2", "<", DataType.INT, 0.5), Sink("sink")]
        edges = [("src1", "f1"), ("f1", "f2"), ("f2", "f1"),
                 ("f1", "sink")]
        with pytest.raises(PlanValidationError):
            QueryPlan(ops, edges)

    def test_missing_sink_rejected(self):
        with pytest.raises(PlanValidationError):
            QueryPlan([_source()], [])

    def test_two_sinks_rejected(self):
        ops = [_source(), Sink("sink1"), Sink("sink2")]
        with pytest.raises(PlanValidationError):
            QueryPlan(ops, [("src1", "sink1")])

    def test_join_needs_two_inputs(self):
        ops = [_source(), WindowedJoin("j", Window.tumbling("count", 5),
                                       DataType.INT, 0.1), Sink("sink")]
        with pytest.raises(PlanValidationError):
            QueryPlan(ops, [("src1", "j"), ("j", "sink")])

    def test_unknown_edge_operator_rejected(self):
        ops = [_source(), Sink("sink")]
        with pytest.raises(PlanValidationError):
            QueryPlan(ops, [("src1", "ghost")])

    def test_source_with_input_rejected(self):
        ops = [_source("src1"), _source("src2"), Sink("sink")]
        with pytest.raises(PlanValidationError):
            QueryPlan(ops, [("src1", "src2"), ("src2", "sink")])


class TestStructure:
    def test_topological_order_respects_edges(self, join_plan):
        order = join_plan.topological_order()
        for parent, child in join_plan.edges:
            assert order.index(parent) < order.index(child)

    def test_sources_and_sink(self, join_plan):
        assert set(join_plan.sources) == {"src1", "src2"}
        assert join_plan.sink == "sink"

    def test_describe(self, join_plan, linear_plan):
        assert "2-way-join" in join_plan.describe()
        assert "linear" in linear_plan.describe()

    def test_contains_and_len(self, linear_plan):
        assert "filter1" in linear_plan
        assert len(linear_plan) == 3


class TestAnnotations:
    def test_filter_rate(self, linear_plan):
        ann = linear_plan.annotations()
        assert ann["filter1"].output_rate == pytest.approx(400.0)
        assert ann["sink"].output_rate == pytest.approx(400.0)

    def test_filter_preserves_schema(self, linear_plan):
        ann = linear_plan.annotations()
        assert ann["filter1"].input_width == ann["filter1"].output_width

    def test_aggregate_rate_tumbling_count(self):
        source = _source(rate=1000.0)
        agg = WindowedAggregate("agg", Window.tumbling("count", 100),
                                "sum", DataType.DOUBLE, DataType.INT, 0.1)
        plan = QueryPlan([source, agg, Sink("sink")],
                         [("src1", "agg"), ("agg", "sink")])
        ann = plan.annotations()
        # fires = 1000/100 = 10/s, each emits 0.1*100 = 10 groups.
        assert ann["agg"].output_rate == pytest.approx(100.0)

    def test_global_aggregate_emits_one_per_window(self):
        source = _source(rate=1000.0)
        agg = WindowedAggregate("agg", Window.tumbling("time", 2.0),
                                "sum", DataType.DOUBLE, None, 1e-4)
        plan = QueryPlan([source, agg, Sink("sink")],
                         [("src1", "agg"), ("agg", "sink")])
        ann = plan.annotations()
        assert ann["agg"].output_rate == pytest.approx(0.5)

    def test_join_probe_model(self, join_plan):
        ann = join_plan.annotations()
        # Tumbling count window of 20/side, sel 0.01, rates 200/300:
        # 0.5 * 0.01 * (200*20 + 300*20) = 50
        assert ann["join1"].output_rate == pytest.approx(50.0)
        assert ann["join1"].output_width == 4  # concat of both schemas

    def test_join_sliding_outputs_more_than_tumbling(self):
        def build(window_type):
            window = (Window.sliding("count", 20, 10)
                      if window_type == "sliding"
                      else Window.tumbling("count", 20))
            ops = [_source("src1", 100), _source("src2", 100),
                   WindowedJoin("j", window, DataType.INT, 0.05),
                   Sink("sink")]
            return QueryPlan(ops, [("src1", "j"), ("src2", "j"),
                                   ("j", "sink")])
        sliding = build("sliding").annotations()["j"].output_rate
        tumbling = build("tumbling").annotations()["j"].output_rate
        assert sliding > tumbling

    def test_output_rate_memoized(self, linear_plan):
        first = linear_plan.annotations()
        second = linear_plan.annotations()
        assert first is second

    def test_scale_throttles_sources_without_memoizing(self, linear_plan):
        half = linear_plan.annotations(0.5)
        assert half["src1"].output_rate == 500.0
        assert half["sink"].output_rate == pytest.approx(200.0)
        assert half["src1"].output_schema \
            == linear_plan.annotations()["src1"].output_schema
        assert linear_plan.annotations(0.5) is not half
        assert linear_plan.annotations(1.0) is linear_plan.annotations()
        # Scaled source rates are floored at 1e-6 tuples/second.
        assert linear_plan.annotations(1e-12)["src1"].output_rate == 1e-6

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, linear_plan, scale):
        with pytest.raises(ValueError, match="finite"):
            linear_plan.annotations(scale)

    def test_higher_selectivity_more_output(self):
        def rate(selectivity):
            ops = [_source(), Filter("f", "<", DataType.INT, selectivity),
                   Sink("sink")]
            plan = QueryPlan(ops, [("src1", "f"), ("f", "sink")])
            return plan.output_rate()
        assert rate(0.9) > rate(0.1)
