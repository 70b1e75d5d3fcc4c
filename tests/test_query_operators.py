"""Tests for data types, windows and operator definitions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (DataType, Filter, Source, TupleSchema, Window,
                         WindowedAggregate, WindowedJoin)
from repro.query.datatypes import TYPE_BYTES, TYPE_COMPARE_COST
from repro.query.operators import with_selectivity


class TestDataTypes:
    def test_from_name(self):
        assert DataType.from_name("int") is DataType.INT
        with pytest.raises(ValueError):
            DataType.from_name("blob")

    def test_schema_width_and_bytes(self):
        schema = TupleSchema.of("int", "string", "double")
        assert schema.width == 3
        expected = (TYPE_BYTES[DataType.INT] + TYPE_BYTES[DataType.STRING]
                    + TYPE_BYTES[DataType.DOUBLE] + 16)
        assert schema.bytes == expected

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            TupleSchema(())

    def test_random_schema_has_requested_width(self, rng):
        schema = TupleSchema.random(rng, 7)
        assert schema.width == 7

    def test_concat(self):
        a = TupleSchema.of("int")
        b = TupleSchema.of("string", "double")
        assert a.concat(b).width == 3

    def test_counts_sum_to_width(self, rng):
        schema = TupleSchema.random(rng, 9)
        assert sum(schema.counts().values()) == 9

    def test_string_comparisons_cost_more(self):
        assert TYPE_COMPARE_COST[DataType.STRING] > \
            TYPE_COMPARE_COST[DataType.INT]


class TestWindow:
    def test_tumbling_slide_equals_size(self):
        window = Window.tumbling("count", 10)
        assert window.slide == window.size == 10

    def test_tumbling_with_mismatched_slide_rejected(self):
        with pytest.raises(ValueError):
            Window("tumbling", "count", 10, 5)

    def test_slide_cannot_exceed_size(self):
        with pytest.raises(ValueError):
            Window.sliding("time", 2.0, 3.0)

    @pytest.mark.parametrize("field,value", [
        ("window_type", "hopping"), ("policy", "session")])
    def test_invalid_enums_rejected(self, field, value):
        kwargs = {"window_type": "sliding", "policy": "count",
                  "size": 10.0, "slide": 5.0}
        kwargs[field] = value
        with pytest.raises(ValueError):
            Window(**kwargs)

    def test_count_window_semantics(self):
        window = Window.sliding("count", 100, 10)
        assert window.expected_tuples(1000.0) == 100
        assert window.fires_per_second(1000.0) == pytest.approx(100.0)
        assert window.first_fire_seconds(1000.0) == pytest.approx(0.1)

    def test_time_window_semantics(self):
        window = Window.sliding("time", 4.0, 2.0)
        assert window.expected_tuples(500.0) == 2000
        assert window.fires_per_second(500.0) == pytest.approx(0.5)
        assert window.first_fire_seconds(500.0) == pytest.approx(4.0)

    def test_count_window_never_fires_without_input(self):
        window = Window.tumbling("count", 10)
        assert window.fires_per_second(0.0) == 0.0
        assert window.first_fire_seconds(0.0) == float("inf")


# field -> (constructor given the value, message naming the field)
_NON_FINITE = {
    "event_rate": (lambda v: Source("s", v, TupleSchema.of("int")),
                   "event rate"),
    "size": (lambda v: Window("sliding", "count", v, 5.0),
             "window size"),
    # An infinite slide passes the slide <= size rule only with an
    # infinite size, so that case is rejected for its size first.
    "slide": (lambda v: (Window("sliding", "count", 10.0, v)
                         if math.isnan(v)
                         else Window.tumbling("time", v)),
              "window (size|slide)"),
}


class TestOperators:
    def test_source_requires_positive_rate(self):
        with pytest.raises(ValueError):
            Source("s", 0.0, TupleSchema.of("int"))

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("field", list(_NON_FINITE))
    def test_non_finite_parameters_rejected(self, field, value):
        build, message = _NON_FINITE[field]
        with pytest.raises(ValueError,
                           match=f"{message} must be finite"):
            build(value)

    def test_filter_selectivity_bounds(self):
        with pytest.raises(ValueError):
            Filter("f", "<", DataType.INT, 1.5)

    def test_string_functions_require_string_literal(self):
        with pytest.raises(ValueError):
            Filter("f", "startswith", DataType.INT, 0.5)
        Filter("f", "startswith", DataType.STRING, 0.5)  # fine

    def test_aggregate_output_schema(self):
        agg = WindowedAggregate("a", Window.tumbling("count", 5), "mean",
                                DataType.DOUBLE, DataType.INT, 0.3)
        assert agg.output_schema().width == 2
        global_agg = WindowedAggregate("a", Window.tumbling("count", 5),
                                       "mean", DataType.DOUBLE, None, 0.01)
        assert global_agg.output_schema().width == 1

    def test_with_selectivity_replaces(self):
        original = Filter("f", "<", DataType.INT, 0.5)
        updated = with_selectivity(original, 0.9)
        assert updated.selectivity == 0.9
        assert original.selectivity == 0.5

    def test_with_selectivity_rejects_source(self):
        source = Source("s", 1.0, TupleSchema.of("int"))
        with pytest.raises(TypeError):
            with_selectivity(source, 0.5)

    def test_join_selectivity_bounds(self):
        with pytest.raises(ValueError):
            WindowedJoin("j", Window.tumbling("count", 5), DataType.INT,
                         -0.1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["count", "time"]),
       st.floats(1.0, 1000.0), st.floats(0.1, 1.0))
def test_window_fire_rate_scales_with_slide(policy, size, slide_ratio):
    slide = max(size * slide_ratio, 1e-6)
    window = Window.sliding(policy, size, slide)
    fast = window.fires_per_second(100.0)
    slow = Window.sliding(policy, size, size).fires_per_second(100.0)
    assert fast >= slow - 1e-12
