"""Streaming operators of the algebra supported by COSTREAM.

The paper's algebra has five operator kinds: ``source`` (describes a
data stream entering the DSPS), ``filter``, windowed ``aggregation``,
windowed ``join`` and ``sink``.  Windowed operators carry a
:class:`Window` specification (sliding/tumbling x count/time-based).
Each operator stores exactly the *transferable features* of Table I,
plus the true selectivity used by the execution simulator (the learned
model only ever sees an *estimated* selectivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .datatypes import DataType, TupleSchema

__all__ = ["Window", "Operator", "Source", "Filter", "WindowedAggregate",
           "WindowedJoin", "Sink", "OperatorKind"]


class OperatorKind(str, Enum):
    SOURCE = "source"
    FILTER = "filter"
    AGGREGATE = "aggregate"
    JOIN = "join"
    SINK = "sink"


@dataclass(frozen=True)
class Window:
    """A window specification for stateful operators.

    ``policy`` is ``"count"`` (size/slide measured in tuples) or
    ``"time"`` (measured in seconds).  ``window_type`` is ``"sliding"``
    or ``"tumbling"``; tumbling windows must have ``slide == size``.
    """

    window_type: str
    policy: str
    size: float
    slide: float

    def __post_init__(self):
        if self.window_type not in ("sliding", "tumbling"):
            raise ValueError(f"bad window type {self.window_type!r}")
        if self.policy not in ("count", "time"):
            raise ValueError(f"bad window policy {self.policy!r}")
        if not (math.isfinite(self.size) and self.size > 0):
            raise ValueError(f"window size must be finite and positive, "
                             f"got {self.size!r}")
        if not (math.isfinite(self.slide) and self.slide > 0):
            raise ValueError(f"window slide must be finite and positive, "
                             f"got {self.slide!r}")
        if self.window_type == "tumbling" and self.slide != self.size:
            raise ValueError("tumbling windows require slide == size")
        if self.slide > self.size:
            raise ValueError("slide larger than window size")

    @classmethod
    def tumbling(cls, policy: str, size: float) -> "Window":
        return cls("tumbling", policy, size, size)

    @classmethod
    def sliding(cls, policy: str, size: float, slide: float) -> "Window":
        return cls("sliding", policy, size, slide)

    def expected_tuples(self, input_rate: float) -> float:
        """Expected number of tuples held by one window instance."""
        if self.policy == "count":
            return float(self.size)
        return float(self.size) * input_rate

    def fires_per_second(self, input_rate: float) -> float:
        """How often the window emits results, per second."""
        if self.policy == "count":
            return input_rate / float(self.slide) if input_rate > 0 else 0.0
        return 1.0 / float(self.slide)

    def first_fire_seconds(self, input_rate: float) -> float:
        """Time until the first window closes (query-success check)."""
        if self.policy == "time":
            return float(self.size)
        if input_rate <= 0:
            return float("inf")
        return float(self.size) / input_rate


@dataclass(frozen=True)
class Operator:
    """Base class carrying the operator identity."""

    op_id: str

    @property
    def kind(self) -> OperatorKind:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Source(Operator):
    """A data stream entering the DSPS via the message broker."""

    event_rate: float
    schema: TupleSchema

    def __post_init__(self):
        if not (math.isfinite(self.event_rate) and self.event_rate > 0):
            raise ValueError(f"source event rate must be finite and "
                             f"positive, got {self.event_rate!r}")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.SOURCE


@dataclass(frozen=True)
class Filter(Operator):
    """A predicate ``column <op> literal`` over one stream."""

    function: str
    literal_type: DataType
    selectivity: float

    def __post_init__(self):
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError("filter selectivity must be within [0, 1]")
        string_only = ("startswith", "endswith")
        if self.function in string_only and self.literal_type != DataType.STRING:
            raise ValueError(f"{self.function} requires a string literal")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.FILTER


@dataclass(frozen=True)
class WindowedAggregate(Operator):
    """A windowed aggregation with optional group-by."""

    window: Window
    agg_function: str
    agg_type: DataType
    group_by_type: DataType | None
    selectivity: float

    def __post_init__(self):
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError("aggregation selectivity must be in (0, 1]")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.AGGREGATE

    def output_schema(self) -> TupleSchema:
        """Group-by key (if any) plus the aggregate value."""
        columns = [DataType.DOUBLE]
        if self.group_by_type is not None:
            columns.insert(0, self.group_by_type)
        return TupleSchema(tuple(columns))


@dataclass(frozen=True)
class WindowedJoin(Operator):
    """A windowed equi-join over two streams."""

    window: Window
    key_type: DataType
    selectivity: float

    def __post_init__(self):
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError("join selectivity must be within [0, 1]")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.JOIN


@dataclass(frozen=True)
class Sink(Operator):
    """The terminal operator persisting or forwarding results."""

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.SINK


def with_selectivity(operator: Operator, selectivity: float) -> Operator:
    """Copy of a selective operator with a replaced selectivity."""
    if not isinstance(operator, (Filter, WindowedAggregate, WindowedJoin)):
        raise TypeError(f"{operator.kind.value} has no selectivity")
    return replace(operator, selectivity=selectivity)
