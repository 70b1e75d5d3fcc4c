"""Query plans: DAGs of streaming operators with logical data flow.

A :class:`QueryPlan` wires operators into a directed acyclic graph whose
edges point *with* the data flow (source -> ... -> sink).  The plan also
derives the logical stream annotations needed both by the simulator and
by the cost-model featurization: per-operator input/output tuple rates
(assuming unbounded resources) and input/output tuple schemas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datatypes import TupleSchema
from .operators import (Filter, Operator, OperatorKind, Source,
                        WindowedAggregate, WindowedJoin)

__all__ = ["QueryPlan", "StreamAnnotation", "PlanValidationError"]


class PlanValidationError(ValueError):
    """Raised when a plan does not form a valid streaming query."""


@dataclass(frozen=True)
class StreamAnnotation:
    """Logical (infinite-resource) stream properties at one operator."""

    input_rate: float          # total incoming tuples/second
    output_rate: float         # outgoing tuples/second
    input_schema: TupleSchema  # representative (widest) input schema
    output_schema: TupleSchema

    @property
    def input_width(self) -> int:
        return self.input_schema.width

    @property
    def output_width(self) -> int:
        return self.output_schema.width


#: Output-rate damping for tumbling windows in the join probe model:
#: cleared windows see on average half the probe partners of sliding ones.
_TUMBLING_JOIN_FACTOR = 0.5


class QueryPlan:
    """An immutable DAG of streaming operators."""

    def __init__(self, operators: list[Operator],
                 edges: list[tuple[str, str]], name: str = "query"):
        self.name = name
        self._operators: dict[str, Operator] = {}
        for operator in operators:
            if operator.op_id in self._operators:
                raise PlanValidationError(
                    f"duplicate operator id {operator.op_id!r}")
            self._operators[operator.op_id] = operator
        self._edges = list(edges)
        self._children: dict[str, list[str]] = {o: [] for o in self._operators}
        self._parents: dict[str, list[str]] = {o: [] for o in self._operators}
        for parent, child in edges:
            if parent not in self._operators or child not in self._operators:
                raise PlanValidationError(
                    f"edge ({parent!r}, {child!r}) references unknown operator")
            self._children[parent].append(child)
            self._parents[child].append(parent)
        self._order = self._validate()
        self._annotations: dict[str, StreamAnnotation] | None = None

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def operators(self) -> dict[str, Operator]:
        return dict(self._operators)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(self._edges)

    def operator(self, op_id: str) -> Operator:
        return self._operators[op_id]

    def children(self, op_id: str) -> list[str]:
        return list(self._children[op_id])

    def parents(self, op_id: str) -> list[str]:
        return list(self._parents[op_id])

    def topological_order(self) -> list[str]:
        return list(self._order)

    @property
    def sources(self) -> list[str]:
        return [o for o in self._order
                if self._operators[o].kind is OperatorKind.SOURCE]

    @property
    def sink(self) -> str:
        return next(o for o in self._order
                    if self._operators[o].kind is OperatorKind.SINK)

    def operators_of_kind(self, kind: OperatorKind) -> list[str]:
        return [o for o in self._order if self._operators[o].kind is kind]

    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._operators

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> list[str]:
        if not self._operators:
            raise PlanValidationError("empty plan")
        # Kahn's algorithm gives a topological order and detects cycles.
        in_degree = {o: len(self._parents[o]) for o in self._operators}
        ready = sorted(o for o, d in in_degree.items() if d == 0)
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in self._children[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._operators):
            raise PlanValidationError("plan contains a cycle")

        sinks = [o for o, op in self._operators.items()
                 if op.kind is OperatorKind.SINK]
        if len(sinks) != 1:
            raise PlanValidationError(f"plan needs exactly 1 sink, "
                                      f"found {len(sinks)}")
        sources = [o for o, op in self._operators.items()
                   if op.kind is OperatorKind.SOURCE]
        if not sources:
            raise PlanValidationError("plan needs at least one source")

        for op_id, operator in self._operators.items():
            n_in = len(self._parents[op_id])
            n_out = len(self._children[op_id])
            kind = operator.kind
            if kind is OperatorKind.SOURCE and n_in != 0:
                raise PlanValidationError(f"source {op_id!r} has inputs")
            if kind is OperatorKind.SOURCE and n_out != 1:
                raise PlanValidationError(
                    f"source {op_id!r} must feed exactly one operator")
            if kind is OperatorKind.SINK and n_out != 0:
                raise PlanValidationError(f"sink {op_id!r} has outputs")
            if kind is OperatorKind.SINK and n_in != 1:
                raise PlanValidationError(
                    f"sink {op_id!r} must have exactly one input")
            if kind in (OperatorKind.FILTER, OperatorKind.AGGREGATE):
                if n_in != 1:
                    raise PlanValidationError(
                        f"{kind.value} {op_id!r} needs exactly one input")
                if n_out != 1:
                    raise PlanValidationError(
                        f"{kind.value} {op_id!r} needs exactly one output")
            if kind is OperatorKind.JOIN:
                if n_in != 2:
                    raise PlanValidationError(
                        f"join {op_id!r} needs exactly two inputs")
                if n_out != 1:
                    raise PlanValidationError(
                        f"join {op_id!r} needs exactly one output")
        return order

    # ------------------------------------------------------------------
    # Logical stream annotation
    # ------------------------------------------------------------------
    def annotations(self, scale: float = 1.0
                    ) -> dict[str, StreamAnnotation]:
        """Derive per-operator logical rates and schemas.

        ``scale`` multiplies every source's event rate, as if the
        broker throttled all sources by that factor; a scaled source
        rate is floored at ``1e-6`` tuples/second.  The execution
        simulator's backpressure bisection propagates the plan at many
        scales, so only the nominal ``scale=1.0`` result is memoized.
        """
        if scale != 1.0:
            if not math.isfinite(scale):
                raise ValueError(f"source-rate scale must be finite, "
                                 f"got {scale!r}")
            return self._annotate(scale)
        if self._annotations is None:
            self._annotations = self._annotate(1.0)
        return self._annotations

    def _annotate(self, scale: float) -> dict[str, StreamAnnotation]:
        result: dict[str, StreamAnnotation] = {}
        for op_id in self._order:
            operator = self._operators[op_id]
            inputs = [result[p] for p in self._parents[op_id]]
            result[op_id] = _annotate_operator(operator, inputs, scale)
        return result

    def output_rate(self) -> float:
        """Logical tuple rate arriving at the sink (unbounded resources)."""
        return self.annotations()[self.sink].output_rate

    # ------------------------------------------------------------------
    # Convenience summaries (used by reporting and generators)
    # ------------------------------------------------------------------
    def count_of_kind(self, kind: OperatorKind) -> int:
        return len(self.operators_of_kind(kind))

    def describe(self) -> str:
        joins = self.count_of_kind(OperatorKind.JOIN)
        aggs = self.count_of_kind(OperatorKind.AGGREGATE)
        filters = self.count_of_kind(OperatorKind.FILTER)
        base = {0: "linear", 1: "2-way-join", 2: "3-way-join"}.get(
            joins, f"{joins + 1}-way-join")
        suffix = " with aggregation" if aggs else ""
        return f"{base} query ({filters} filters){suffix}"


def _annotate_operator(operator: Operator, inputs: list[StreamAnnotation],
                       scale: float) -> StreamAnnotation:
    """Rate/schema propagation rules per operator kind."""
    kind = operator.kind
    if kind is OperatorKind.SOURCE:
        assert isinstance(operator, Source)
        rate = operator.event_rate if scale == 1.0 \
            else max(operator.event_rate * scale, 1e-6)
        schema = operator.schema
        return StreamAnnotation(rate, rate, schema, schema)

    if kind is OperatorKind.FILTER:
        assert isinstance(operator, Filter)
        (up,) = inputs
        rate = up.output_rate * operator.selectivity
        return StreamAnnotation(up.output_rate, rate,
                                up.output_schema, up.output_schema)

    if kind is OperatorKind.AGGREGATE:
        assert isinstance(operator, WindowedAggregate)
        (up,) = inputs
        in_rate = up.output_rate
        window = operator.window
        fires = window.fires_per_second(in_rate)
        per_window = window.expected_tuples(in_rate)
        # Definition 8: selectivity = distinct groups / window length, so
        # each firing emits selectivity * |window| result tuples (>= one
        # whenever any tuple is present).
        emitted = max(1.0, operator.selectivity * per_window) \
            if per_window > 0 else 0.0
        out_rate = fires * emitted
        return StreamAnnotation(in_rate, out_rate, up.output_schema,
                                operator.output_schema())

    if kind is OperatorKind.JOIN:
        assert isinstance(operator, WindowedJoin)
        left, right = inputs
        window = operator.window
        r1, r2 = left.output_rate, right.output_rate
        held1 = window.expected_tuples(r1)
        held2 = window.expected_tuples(r2)
        # Probe model: each arriving tuple joins against the opposite
        # window's current contents (Definition 7's qualifying-pairs
        # fraction applied to the per-probe candidate set).
        pairs = operator.selectivity * (r1 * held2 + r2 * held1)
        if window.window_type == "tumbling":
            pairs *= _TUMBLING_JOIN_FACTOR
        schema = left.output_schema.concat(right.output_schema)
        widest = max(inputs, key=lambda a: a.output_width).output_schema
        return StreamAnnotation(r1 + r2, pairs, widest, schema)

    if kind is OperatorKind.SINK:
        (up,) = inputs
        return StreamAnnotation(up.output_rate, up.output_rate,
                                up.output_schema, up.output_schema)

    raise PlanValidationError(f"unknown operator kind {kind!r}")
