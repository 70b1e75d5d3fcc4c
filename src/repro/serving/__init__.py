"""Cross-decision throughput serving (see PERFORMANCE.md).

The product operation (paper Section V) is one placement decision;
this package serves *streams* of independent decisions:

* :class:`DecisionBatcher` — accepts a wave of ``(plan, cluster)``
  requests, featurizes every plan and cluster once, scores each
  request's candidate batches on their distinct rows (batches are
  not fused across requests) and picks per-request
  argmins — bitwise identical to sequential
  :meth:`repro.placement.PlacementOptimizer.optimize` calls in
  float64.  Every wave runs in-process.
* :class:`ServingLoop` — the front door: each request is decided as
  soon as the dispatcher is free and its future resolved at once,
  with bounded-queue admission control and per-dispatch counters.
"""

from .batcher import DecisionBatcher, DecisionRequest
from .monitor import ChurnHealth, ClusterMonitor, Deployment
from .service import BackpressureError, ServiceStats, ServingLoop

__all__ = ["DecisionBatcher", "DecisionRequest",
           "ServingLoop", "ServiceStats", "BackpressureError",
           "ClusterMonitor", "ChurnHealth", "Deployment"]
