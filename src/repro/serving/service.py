"""Serving front door: one request at a time, decided on arrival.

:class:`~repro.serving.batcher.DecisionBatcher` answers the requests
it is handed; production traffic arrives one request at a time.
:class:`ServingLoop` sits in between: callers :meth:`submit` individual
:class:`~repro.serving.batcher.DecisionRequest` objects and get a
future back.  A dispatcher thread takes the oldest queued request as
soon as it is free, decides it alone (``batcher.decide([request])``)
and resolves that request's future at once, so no request waits for
a wave to fill or for other requests' decisions.  Waves do not pay
here: a merged wave cost 0.98x sequential ``optimize`` per request at
2-8 requests and 1.18x (slower) at 16 on the serve traffic
(PERFORMANCE.md §8).

Admission control: the intake queue is bounded (``max_queue``).  A
non-blocking :meth:`submit` raises :class:`BackpressureError` when the
queue is full — callers shed load explicitly instead of growing an
unbounded backlog; ``block=True`` waits for capacity instead (the
convenience :meth:`serve` does this).

Determinism: a one-request ``decide`` is the sequential path, so every
decision is bitwise equal to :meth:`~repro.placement.
PlacementOptimizer.optimize` of the same request.  A request whose
decision raises fails its own future only; a future cancelled while
queued is skipped without being decided.

:meth:`health_snapshot` merges the loop's :class:`ServiceStats` with
the underlying pool's :class:`~repro.serving.faults.PoolHealth` so
``bench_hotpaths.py`` and operators read one dict.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..placement.optimizer import PlacementDecision
    from .batcher import DecisionBatcher, DecisionRequest

__all__ = ["ServingLoop", "ServiceStats", "BackpressureError"]

#: Retained per-request latency samples (FIFO; bounds long-lived loops).
_LATENCY_WINDOW = 65536


class BackpressureError(RuntimeError):
    """The intake queue is full and the submit was non-blocking."""


@dataclass
class ServiceStats:
    """Per-loop admission and dispatch counters.

    Each dispatch decides one request; ``waves`` counts dispatches and
    ``full_waves`` counts the dispatches that left at least one request
    still queued, i.e. the loop was backlogged.  After
    :meth:`ServingLoop.close`, ``submitted == served + failed +
    cancelled``.

    Per-request wall latencies (submit -> decision delivered) are
    recorded into a bounded window; :meth:`latency_percentiles`
    summarizes them as p50/p95/p99 — the nightly perf gate budgets the
    p99, not just the mean speedup.
    """

    submitted: int = 0       # requests admitted to the queue
    rejected: int = 0        # requests refused by backpressure
    served: int = 0          # decisions delivered to futures
    failed: int = 0          # futures resolved with the decision's error
    cancelled: int = 0       # futures cancelled while queued, not decided
    waves: int = 0           # dispatches (one request each)
    full_waves: int = 0      # dispatches that left requests queued
    max_queue_depth: int = 0
    latencies_s: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW),
        repr=False, compare=False)

    def record_latencies(self, seconds: Iterable[float]) -> None:
        """Record per-request wall latencies."""
        self.latencies_s.extend(seconds)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of the recorded wall latencies, in ms."""
        if not self.latencies_s:
            return {"latency_p50_ms": 0.0, "latency_p95_ms": 0.0,
                    "latency_p99_ms": 0.0}
        samples = np.fromiter(self.latencies_s, dtype=np.float64)
        p50, p95, p99 = np.percentile(samples, (50.0, 95.0, 99.0))
        return {"latency_p50_ms": float(p50) * 1e3,
                "latency_p95_ms": float(p95) * 1e3,
                "latency_p99_ms": float(p99) * 1e3}

    def as_dict(self) -> dict:
        """JSON-safe snapshot: counters plus latency percentiles."""
        counters = {f.name: getattr(self, f.name)
                    for f in dataclasses.fields(self)
                    if f.name != "latencies_s"}
        counters["latency_count"] = len(self.latencies_s)
        counters.update(self.latency_percentiles())
        return counters


@dataclass
class _Entry:
    request: "DecisionRequest"
    future: Future
    arrival: float = field(default_factory=time.monotonic)


class ServingLoop:
    """Decide-on-arrival dispatch over a :class:`DecisionBatcher`.

    ``max_queue`` bounds the intake queue (admission control).  Use as
    a context manager, or call :meth:`close`.
    """

    def __init__(self, batcher: "DecisionBatcher", max_queue: int = 256):
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.batcher = batcher
        self.max_queue = int(max_queue)
        self.stats = ServiceStats()
        #: Set by an attached :class:`~repro.serving.monitor.
        #: ClusterMonitor`; merged into :meth:`health_snapshot`.
        self.churn_health = None
        self._queue: deque[_Entry] = deque()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)   # dispatcher waits
        self._space = threading.Condition(self._lock)  # producers wait
        self._open = True
        self._thread = threading.Thread(target=self._run,
                                        name="serving-loop",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, request: "DecisionRequest",
               block: bool = False) -> "Future[PlacementDecision]":
        """Admit one request; returns a future for its decision.

        Non-blocking submits raise :class:`BackpressureError` when the
        queue is full; ``block=True`` waits for capacity instead.
        """
        with self._lock:
            while True:
                if not self._open:
                    raise RuntimeError("ServingLoop is closed")
                if len(self._queue) < self.max_queue:
                    break
                if not block:
                    self.stats.rejected += 1
                    raise BackpressureError(
                        f"intake queue is full "
                        f"({self.max_queue} requests)")
                self._space.wait()
            entry = _Entry(request, Future())
            self._queue.append(entry)
            self.stats.submitted += 1
            self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                             len(self._queue))
            self._work.notify()
            return entry.future

    def serve(self, requests: "Sequence[DecisionRequest]"
              ) -> "list[PlacementDecision]":
        """Blocking convenience: submit all, wait, return in order."""
        futures = [self.submit(request, block=True)
                   for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def _next(self) -> _Entry | None:
        """Block until a request is queued and take the oldest one;
        ``None`` means the loop is closed and the queue drained.

        Entries whose future was cancelled while queued are dropped
        here; a taken entry's future is running and can no longer be
        cancelled.
        """
        with self._lock:
            while True:
                while not self._queue:
                    if not self._open:
                        return None
                    self._work.wait()
                entry = self._queue.popleft()
                self._space.notify()
                if entry.future.set_running_or_notify_cancel():
                    break
                self.stats.cancelled += 1
            self.stats.waves += 1
            if self._queue:
                self.stats.full_waves += 1
            return entry

    def _run(self) -> None:
        while True:
            entry = self._next()
            if entry is None:
                return
            try:
                [decision] = self.batcher.decide([entry.request])
            except BaseException as error:
                # As in a ThreadPoolExecutor worker: the error belongs
                # to this request's future; the dispatcher keeps going.
                with self._lock:
                    self.stats.failed += 1
                entry.future.set_exception(error)
            else:
                done = time.monotonic()
                with self._lock:
                    self.stats.served += 1
                    self.stats.record_latencies((done - entry.arrival,))
                entry.future.set_result(decision)

    # ------------------------------------------------------------------
    def health_snapshot(self) -> dict:
        """Loop stats merged with the pool's and churn health counters."""
        snapshot = {"service": self.stats.as_dict()}
        pool = getattr(self.batcher, "pool", None)
        if pool is not None:
            snapshot["pool"] = pool.health.as_dict()
        if self.churn_health is not None:
            snapshot["churn"] = self.churn_health.as_dict()
        return snapshot

    def close(self) -> None:
        """Drain the queue, stop the dispatcher, reject late submits.

        Idempotent; every already-admitted request is still decided
        unless its future was cancelled (the dispatcher drains the
        queue before exiting)."""
        with self._lock:
            if not self._open and not self._thread.is_alive():
                return
            self._open = False
            self._work.notify_all()
            self._space.notify_all()
        self._thread.join()

    def __enter__(self) -> "ServingLoop":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
