"""Cross-decision throughput serving (see PERFORMANCE.md).

The product operation (paper Section V) is one placement decision;
this package serves *streams* of independent decisions:

* :class:`DecisionBatcher` — accepts a wave of ``(plan, cluster)``
  requests, featurizes every plan and cluster once, fuses all
  requests' candidate batches into one mega-batch per wave
  (:func:`repro.core.graph.merge_batches`), runs ONE batched-GEMM
  ensemble forward per metric for the whole wave, and scatters
  per-request argmins back out — bitwise identical to sequential
  :meth:`repro.placement.PlacementOptimizer.optimize` calls in
  float64.
* :class:`WorkerPool` — a persistent, fork-backed process pool with
  fork-shared model weights that shards decision waves across cores,
  with a deterministic serial fallback and per-shard
  timeout/retry/restart recovery into a bitwise-identical degraded
  mode (PERFORMANCE.md §13; :mod:`repro.serving.faults` injects
  deterministic chaos for testing it).
* :class:`ServingLoop` — the front door: each request is decided as
  soon as the dispatcher is free and its future resolved at once,
  with bounded-queue admission control and per-dispatch counters.
"""

from .batcher import DecisionBatcher, DecisionRequest
from .faults import (FAULT_KINDS, CorruptShard, DegradedModeReport,
                     FaultInjector, FaultPlan, FaultSpec, PoolHealth,
                     ShardTimeout, WorkerCrash)
from .monitor import ChurnHealth, ClusterMonitor, Deployment
from .pool import WorkerPool
from .service import BackpressureError, ServiceStats, ServingLoop

__all__ = ["DecisionBatcher", "DecisionRequest", "WorkerPool",
           "FaultSpec", "FaultPlan", "FaultInjector", "PoolHealth",
           "DegradedModeReport", "WorkerCrash", "ShardTimeout",
           "CorruptShard", "FAULT_KINDS",
           "ServingLoop", "ServiceStats", "BackpressureError",
           "ClusterMonitor", "ChurnHealth", "Deployment"]
