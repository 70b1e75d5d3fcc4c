"""Traced-run machinery: spans, layer wrappers and a timing compute backend.

A traced run wraps the public entry points of each layer of ``repro``
for its duration (:meth:`Tracer.installed` restores every original on
exit) and installs :class:`TimingBackend` through
``repro.nn.backend.compute_backend``.  Everything recorded stays in
memory until :meth:`Tracer.write_jsonl` runs at the end.  Work that
runs off the clock (correctness checks, the simulated speed-up, the
sequential replay) runs inside :meth:`Tracer.off_clock`, where the
wrappers and the backend record nothing, so every span belongs to a
timed operation.

Self time of a span is its duration minus the durations of its child
*layer* spans.  Kernel calls are recorded as leaf records attributed to
the enclosing span; they do not reduce the enclosing layer's self time.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from repro.core.costream import Costream
from repro.core.ensemble import MetricEnsemble
from repro.core.training import CostModel
from repro.data.collection import BenchmarkCollector
from repro.nn.backend import ComputeBackend, compute_backend
from repro.placement.enumeration import HeuristicPlacementEnumerator
from repro.placement.optimizer import PlacementOptimizer
from repro.placement.repair import PlacementRepairer
from repro.serving import batcher as batcher_module
from repro.serving.batcher import DecisionBatcher
from repro.serving.monitor import ClusterMonitor
from repro.serving.service import ServingLoop
from repro.simulator.runtime import DSPSSimulator
from repro.simulator.selectivity import SelectivityEstimator
from repro.training.corpus import TrainingCorpus

__all__ = ["Tracer", "TimingBackend", "KERNELS"]


class KernelCall(NamedTuple):
    """One compute-backend kernel call; ``layer`` is the enclosing span's
    name and ``parent`` its id.  FLOPs and bytes are computed from array
    shapes."""

    name: str
    parent: int | None
    layer: str | None
    start_ns: int
    end_ns: int
    flops: float
    bytes: float


class Span:
    """One timed interval of the traced run."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "request",
                 "thread", "attrs")

    def __init__(self, span_id, name, start, parent, request, thread,
                 attrs):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.attrs = attrs

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"id": self.span_id, "name": self.name,
                "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "request": self.request,
                "thread": self.thread, **self.attrs}


class Tracer:
    """In-memory span recorder shared by the layer wrappers and kernels."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kernels: list[KernelCall] = []
        self.backend: TimingBackend | None = None
        #: False inside :meth:`off_clock`: wrappers and kernels only
        #: delegate.
        self.recording = True
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request) -> None:
        """Request id stamped on spans this thread opens from now on."""
        self._local.request = request

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        request = getattr(self._local, "request", None)
        with self._lock:
            span = Span(len(self.spans), name, 0, parent, request,
                        threading.get_ident(), attrs)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def off_clock(self):
        """Record nothing inside the block (work outside the timed
        operations).  Only used while no other thread records."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def kernel(self, name: str, start: int, end: int, flops: float,
               nbytes: float) -> None:
        """Record one kernel call, attributed to the enclosing span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.kernels.append(KernelCall(
            name, parent.span_id if parent else None,
            parent.name if parent else None, start, end, flops, nbytes))

    # ------------------------------------------------------------------
    def self_times_ns(self) -> list[int]:
        """Per-span self time: duration minus child layer spans."""
        self_ns = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                self_ns[span.parent] -= span.duration_ns
        return self_ns

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_json()) + "\n")
            for call in self.kernels:
                handle.write(json.dumps({"kind": "kernel",
                                         **call._asdict()}) + "\n")

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every layer entry point and time every kernel; restore
        the originals on exit."""
        restore = []
        try:
            for owner, attr, wrapper in _wrappers(self):
                restore.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            self.backend = TimingBackend(self)
            with compute_backend(self.backend):
                yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _n_rows(batches) -> int:
    return sum(batch.n_graphs for batch in batches)


def _wrappers(tracer: Tracer):
    """(owner, attribute, wrapper) triples for every traced entry point.

    Each wrapper opens a span named after the layer, calls the
    original, and stores the counts its layer metrics need on the span:
    ``before(span, kwargs)`` runs first and may add keyword arguments,
    ``after(span, args, result)`` runs on success.
    """

    def wrap(owner, attr, layer, after=None, before=None,
             classmethod_=False):
        original = owner.__dict__[attr]
        function = original.__func__ if classmethod_ else original

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            span = tracer.open(layer)
            try:
                if before is not None:
                    before(span, kwargs)
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__wrapped__ = function
        return (owner, attr,
                classmethod(wrapper) if classmethod_ else wrapper)

    def attrs(**computed):
        """An ``after`` hook storing ``calls=1`` and each computed
        value (a function of the call's arguments and result)."""
        def after(span, args, result):
            span.attrs["calls"] = 1
            for key, value in computed.items():
                span.attrs[key] = value(args, result)
        return after

    def epoch_marks(span, kwargs):
        # CostModel.fit reports each epoch end through this hook.
        ends = span.attrs["epoch_ends"] = []
        user_hook = kwargs.get("on_epoch_end")

        def on_epoch_end(epoch):
            ends.append(time.perf_counter_ns())
            if user_hook is not None:
                user_hook(epoch)

        kwargs["on_epoch_end"] = on_epoch_end

    return [
        # Building an enumerator (the cluster's capability bins) is
        # enumeration work, but not an enumeration call.
        wrap(HeuristicPlacementEnumerator, "__init__",
             "placement.enumeration"),
        wrap(HeuristicPlacementEnumerator, "enumerate_indices",
             "placement.enumeration",
             attrs(requested=lambda a, r: a[2],
                   returned=lambda a, r: len(r))),
        wrap(HeuristicPlacementEnumerator, "sample",
             "placement.enumeration",
             attrs(requested=lambda a, r: 1, returned=lambda a, r: 1)),
        wrap(Costream, "collate_placements", "core.graph.collate",
             attrs(rows=lambda a, r: _n_rows(r))),
        # Host featurization ahead of collation inside a wave belongs
        # to the collate layer; it is not a collate call of its own.
        wrap(batcher_module, "featurize_hosts", "core.graph.collate"),
        wrap(Costream, "merged_inference_batches", "core.graph.merge",
             attrs(rows=lambda a, r: _n_rows(a[1]))),
        wrap(MetricEnsemble, "predict", "core.ensemble",
             attrs(rows=lambda a, r: len(r),
                   metric=lambda a, r: a[0].metric)),
        wrap(PlacementOptimizer, "select", "placement.optimizer",
             attrs(feasible=lambda a, r: r[1] > 0)),
        # A wave's start is each of its requests' queue exit; every
        # caller passes the requests as a list.
        wrap(DecisionBatcher, "decide", "serving.batcher",
             attrs(wave=lambda a, r: len(r),
                   requests=lambda a, r: [id(q) for q in a[1]])),
        wrap(ServingLoop, "submit", "serving.service",
             attrs(request_obj=lambda a, r: id(a[1]))),
        wrap(PlacementRepairer, "repair_candidates", "placement.repair",
             attrs(cands=lambda a, r: len(r[0]))),
        wrap(ClusterMonitor, "observe", "serving.monitor",
             attrs(applied=lambda a, r: r[0].applied,
                   deployments=lambda a, r: len(r[1]),
                   nodes=lambda a, r: len(a[1]))),
        wrap(DSPSSimulator, "run", "simulator", attrs()),
        wrap(SelectivityEstimator, "estimate", "simulator.estimate",
             attrs()),
        wrap(BenchmarkCollector, "collect_one", "data.collection", attrs()),
        wrap(TrainingCorpus, "from_traces", "training.corpus",
             attrs(graphs=lambda a, r: len(r)), classmethod_=True),
        wrap(CostModel, "fit", "core.training", attrs(), epoch_marks),
    ]


# ----------------------------------------------------------------------
# Kernel timing
# ----------------------------------------------------------------------
def _gemm_flops(a_shape, b_shape) -> tuple[float, tuple]:
    """FLOPs of ``a @ b`` and its (batch, m, k, n) shape key."""
    m = a_shape[-2] if len(a_shape) > 1 else 1
    k = a_shape[-1]
    n = b_shape[-1] if len(b_shape) > 1 else 1
    batch = max(math.prod(a_shape[:-2]), math.prod(b_shape[:-2]))
    return 2.0 * batch * m * k * n, (batch, m, k, n)


def _mlp_cost(backend, out, weights, biases, x):
    flops, nbytes = 0.0, x.nbytes + out.nbytes
    rows = x.shape[:-1]
    width = x.shape[-1]
    for weight, bias in zip(weights, biases):
        flops += backend.gemm(rows + (width,), weight.shape)
        width = weight.shape[-1]
        flops += 2.0 * math.prod(rows) * width  # bias + relu
        nbytes += weight.nbytes + bias.nbytes
    return flops, nbytes


def _scatter_cost(backend, out, index, values, n_rows):
    return float(values.size), index.nbytes + values.nbytes + out.nbytes


def _adam_cost(backend, out, param, *rest):
    # 14 elementwise operations (16 with weight decay); each reads up
    # to two operands and writes one.
    ops = 16 if rest[-1] else 14
    return float(ops * param.size), 3.0 * ops * param.nbytes


#: kernel -> cost(backend, result, *kernel arguments) -> (FLOPs, bytes):
#: operands read plus result written, at the arrays' item sizes.
_COSTS = {
    "matmul": lambda be, out, a, b: (
        be.gemm(a.shape, b.shape), a.nbytes + b.nbytes + out.nbytes),
    "affine": lambda be, out, x, w, b: (
        be.gemm(x.shape, w.shape) + out.size,
        x.nbytes + w.nbytes + b.nbytes + out.nbytes),
    "mlp_forward": _mlp_cost,
    "mlp_forward_cached": lambda be, out, *args: _mlp_cost(
        be, out[0], *args),
    "flat_scatter_add": _scatter_cost,
    "stacked_flat_scatter_add": _scatter_cost,
    "scatter_add": _scatter_cost,
    "sumsq": lambda be, out, array: (2.0 * array.size, array.nbytes),
    "member_sumsq": lambda be, out, array, size: (
        2.0 * array.size, array.nbytes + out.nbytes),
    "adam_update": _adam_cost,
}

#: The ten kernels of ``repro.nn.backend.ComputeBackend``.
KERNELS = tuple(_COSTS)


class TimingBackend(ComputeBackend):
    """Times every kernel of the reference backend.

    Each kernel delegates to the base-class kernel unchanged, so traced
    results are bitwise identical to untraced ones.  FLOPs and bytes
    moved are *computed from array shapes* (see ``_COSTS``), not
    measured by hardware counters.  GEMM shapes are tallied for the
    reference-rate probe.
    """

    name = "timing"

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: (batch, m, k, n) -> [calls, flops] over every GEMM issued.
        self.gemm_shapes: dict[tuple, list] = defaultdict(
            lambda: [0, 0.0])

    def gemm(self, a_shape, b_shape) -> float:
        """FLOPs of one GEMM, tallied under its shape."""
        flops, key = _gemm_flops(a_shape, b_shape)
        tally = self.gemm_shapes[key]
        tally[0] += 1
        tally[1] += flops
        return flops


def _timed(name, cost):
    base = getattr(ComputeBackend, name)

    def kernel(self, *args):
        start = time.perf_counter_ns()
        out = base(self, *args)
        end = time.perf_counter_ns()
        if self.tracer.recording:
            self.tracer.kernel(name, start, end, *cost(self, out, *args))
        return out

    kernel.__name__ = kernel.__qualname__ = name
    return kernel


for _name, _cost in _COSTS.items():
    setattr(TimingBackend, _name, _timed(_name, _cost))


def gemm_reference_gflops(shapes: dict[tuple, list], top: int = 6,
                          min_seconds: float = 0.02) -> float:
    """numpy GEMM rate over the run's own most FLOP-heavy shapes.

    Times ``np.matmul`` on fresh float64 operands of each of the ``top``
    shapes (best of three timed loops of at least ``min_seconds``) and
    weights the shapes by how often the run issued them.
    """
    heaviest = sorted(shapes.items(), key=lambda item: -item[1][1])[:top]
    rng = np.random.default_rng(0)
    flops_total = seconds_total = 0.0
    for (batch, m, k, n), (calls, flops) in heaviest:
        a = rng.standard_normal((batch, m, k)).squeeze(0) if batch == 1 \
            else rng.standard_normal((batch, m, k))
        b = rng.standard_normal((k, n)) if batch == 1 \
            else rng.standard_normal((batch, k, n))
        best = float("inf")
        for _ in range(3):
            loops, start = 0, time.perf_counter()
            while True:
                np.matmul(a, b)
                loops += 1
                elapsed = time.perf_counter() - start
                if elapsed >= min_seconds:
                    break
            best = min(best, elapsed / loops)
        flops_total += flops
        seconds_total += best * calls
    return flops_total / seconds_total / 1e9 if seconds_total else 0.0
