"""Cross-decision throughput serving (see PERFORMANCE.md).

The product operation (paper Section V) is one placement decision;
this package serves *streams* of independent decisions:

* :class:`DecisionBatcher` — accepts a wave of ``(plan, cluster)``
  requests, checks every request's pre-enumerated candidates, then
  decides each request on its own
  (:meth:`repro.placement.PlacementOptimizer.choose`), featurizing a
  cluster shared by several requests once — bitwise identical to
  sequential :meth:`repro.placement.PlacementOptimizer.optimize`
  calls in float64.
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
