"""The benchmark's metric catalog and the metric derivations.

Names, units, directions and bounds come from ``BENCHMARK.json``.
Every workload reports every end-to-end metric, each on its own
operations:

- ``op_p50_ms``, ``op_p90_ms``: one operation's wall time.  decide:
  one ``optimize`` decision; serve: one request, from its due time to
  its decision delivered; train: one trace of ``collect``.
- ``batch_ms_per_item``: the batched operations' wall time per item.
  decide: churn ``observe`` repair waves, per re-placed deployment;
  serve: dispatcher waves (``DecisionBatcher.decide``), per request;
  train: ``Costream.fit``, per training trace.
- ``qerror_p50.*``: the run's model (decide/serve: the set-up model;
  train: the fitted model), median q-error on held-out traces.

The q-errors are scored on one fixed held-out corpus (``SCORE_SEED`` in
``workloads.py``) on every workload.

``setup_s`` and ``peak_rss_mb`` mean the same on every workload.  The
tail is p90, not p99: serve's requests arrive in bursts of up to 16,
so its top 1% is the last requests of one or two colliding bursts, and
its p99 spread 0.42 (IQR/median) over five seeds against 0.07 for p90.
:data:`SHOULD_MOVE` records, before any change is measured, which
end-to-end metric each layer should move and on which workload.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from .tracing import Tracer, gemm_reference_gflops

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def catalog(kind: str) -> dict[str, dict]:
    """``BENCHMARK.json``'s ``"end_to_end"`` or ``"per_layer"`` metrics
    by name, each with its ``unit``, ``better`` (and ``bound``)."""
    spec = json.loads(SPEC_PATH.read_text())
    return {metric["name"]: metric for metric in spec[kind]}


def end_to_end(op_s, batch_s, batch_items, qerrors) -> dict[str, float]:
    """The end-to-end metrics other than ``setup_s`` and ``peak_rss_mb``
    from the run's operation wall times (seconds, pooled over its
    passes), its batched operations' summed wall time and item count,
    and its model's median held-out q-errors.

    Batches are reported per item, not as a median batch: a repair
    wave re-places 1-3 deployments and a serve wave holds 1-16
    requests, and the median batch, falling between those size
    classes, spread 0.11-0.16 (IQR/median) over five seeds.
    """
    ops = np.asarray(op_s, dtype=np.float64)
    return {"op_p50_ms": float(np.percentile(ops, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(ops, 90)) * 1e3,
            "batch_ms_per_item": batch_s * 1e3 / max(batch_items, 1),
            **{f"qerror_p50.{m}": q for m, q in qerrors.items()}}

#: The spans that make up each workload's timed operations: the
#: benchmark's own ``op.*`` spans, and on serve the dispatcher's waves.
OPERATION_SPANS = {
    "decide": ("op.decision", "op.repair"),
    "serve": ("serving.batcher",),
    "train": ("op.collect", "op.fit", "op.score"),
}

#: Which end-to-end metric each layer should move, on which workload.
SHOULD_MOVE = {
    "placement.enumeration": "op_p50_ms on decide and serve; almost "
                             "nothing on train",
    "core.graph.collate": "op_p50_ms on decide and serve, where host "
                          "featurization runs on every call",
    "core.graph.merge": "batch_ms_per_item and op_p90_ms on serve; "
                        "batch_ms_per_item on decide; never op_* on decide",
    "core.ensemble": "op_p50_ms on decide and serve",
    "placement.optimizer": "no time: select_ms is ~0.4% of a decision; "
                           "feasible_frac and speedup_p50 show a change "
                           "in the decisions",
    "serving.service": "op_p50_ms and op_p90_ms on serve",
    "serving.batcher": "batch_ms_per_item and op_p90_ms on serve; "
                       "batch_ms_per_item on decide",
    "placement.repair": "batch_ms_per_item on decide",
    "serving.monitor": "batch_ms_per_item on decide; deployments per event "
                       "sets the repair wave size",
    "hardware.churn": "batch_ms_per_item on decide",
    "simulator": "op_p50_ms and op_p90_ms on train; off the clock on "
                 "decide; nothing on serve",
    "data.collection": "op_p50_ms and op_p90_ms on train",
    "training.corpus": "batch_ms_per_item on train",
    "core.training": "batch_ms_per_item on train; qerror_p50.* on every "
                     "workload if the fitted model changes",
    "nn.backend": "forward kernels move op_* on decide and serve; "
                  "backward, scatter and Adam move batch_ms_per_item on "
                  "train",
    "trace": "validity of the traced run; should not move",
}

#: trace.unattributed_frac above this fails the traced run (the stage
#: shares must sum to within 5% of the traced operations' wall time).
UNATTRIBUTED_TOLERANCE = 0.05


def derive(tracer: Tracer, workload: str, untraced, traced
           ) -> dict[str, float]:
    """Every per-layer metric from one traced pass.

    ``untraced`` (a sequence) and ``traced`` are the
    :class:`~perfbench.workloads.Pass` results of the same inputs
    without and with tracing.  Layers the workload never entered report
    zero.
    """
    metrics = dict.fromkeys(catalog("per_layer"), 0.0)
    self_ns = tracer.self_times_ns()
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def self_ms(name):
        return sum(self_ns[s.span_id] for s in by_name[name]) / 1e6

    def per_call(name, key):
        calls = total(name, "calls")
        return total(name, key) / calls if calls else 0.0

    for layer in ("placement.enumeration", "core.graph.collate",
                  "core.graph.merge", "core.ensemble", "placement.repair"):
        metrics[f"{layer}.calls"] = total(layer, "calls")
        metrics[f"{layer}.self_ms"] = self_ms(layer)
    requested = total("placement.enumeration", "requested")
    metrics["placement.enumeration.cands_per_call"] = per_call(
        "placement.enumeration", "returned")
    metrics["placement.enumeration.fill_frac"] = (
        total("placement.enumeration", "returned") / requested
        if requested else 0.0)
    for layer in ("core.graph.collate", "core.graph.merge",
                  "core.ensemble"):
        metrics[f"{layer}.rows_per_call"] = per_call(layer, "rows")
    for metric in ("processing_latency", "success", "backpressure"):
        metrics[f"core.ensemble.self_ms.{metric}"] = sum(
            self_ns[s.span_id] for s in by_name["core.ensemble"]
            if s.attrs.get("metric") == metric) / 1e6
    metrics["placement.optimizer.select_ms"] = self_ms(
        "placement.optimizer")
    metrics["placement.optimizer.feasible_frac"] = per_call(
        "placement.optimizer", "feasible")

    waves = by_name["serving.batcher"]
    if waves:
        wave_ms = [s.duration_ns / 1e6 for s in waves]
        metrics["serving.batcher.wave_p50_ms"] = float(np.median(wave_ms))
        metrics["serving.batcher.wave_max_ms"] = max(wave_ms)
        metrics["serving.batcher.ms_per_request"] = (
            sum(wave_ms) / total("serving.batcher", "wave"))
    # Rejected submits carry no request.
    submits = {s.attrs["request_obj"]: s.end
               for s in by_name["serving.service"]
               if "request_obj" in s.attrs}
    if submits:
        waits = [(wave.start - submits[request]) / 1e6 for wave in waves
                 for request in wave.attrs["requests"]
                 if request in submits]
        metrics["serving.service.queue_wait_p50_ms"] = float(
            np.percentile(waits, 50))
        metrics["serving.service.queue_wait_p99_ms"] = float(
            np.percentile(waits, 99))
        metrics["serving.service.wave_size_max"] = max(
            s.attrs["wave"] for s in waves)

    metrics["placement.repair.cands_per_call"] = per_call(
        "placement.repair", "cands")
    events = by_name["serving.monitor"]
    metrics["serving.monitor.events"] = len(events)
    metrics["serving.monitor.skipped"] = sum(
        not s.attrs["applied"] for s in events)
    metrics["serving.monitor.deployments_per_event"] = per_call(
        "serving.monitor", "deployments")
    if events:
        nodes = [s.attrs["nodes"] for s in events]
        metrics["hardware.churn.nodes_min"] = min(nodes)
        metrics["hardware.churn.nodes_max"] = max(nodes)

    metrics["simulator.runs"] = total("simulator", "calls")
    metrics["simulator.self_ms"] = self_ms("simulator")
    metrics["simulator.estimate_ms"] = self_ms("simulator.estimate")
    metrics["data.collection.traces"] = total("data.collection", "calls")
    metrics["data.collection.self_ms"] = self_ms("data.collection")
    metrics["training.corpus.graphs"] = total("training.corpus", "graphs")
    metrics["training.corpus.self_ms"] = self_ms("training.corpus")
    fits = by_name["core.training"]
    metrics["core.training.fits"] = len(fits)
    metrics["core.training.self_ms"] = self_ms("core.training")
    epoch_ms = []
    for fit in fits:
        marks = [fit.start] + fit.attrs["epoch_ends"]
        epoch_ms += [(b - a) / 1e6 for a, b in zip(marks, marks[1:])]
    metrics["core.training.epochs"] = len(epoch_ms)
    if epoch_ms:
        metrics["core.training.epoch_p50_ms"] = float(np.median(epoch_ms))

    backend = tracer.backend
    ref = gemm_reference_gflops(backend.gemm_shapes) \
        if backend is not None and backend.gemm_shapes else 0.0
    metrics["nn.backend.ref_gflops"] = ref
    kernels = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for call in tracer.kernels:
        tally = kernels[call.name]
        tally[0] += 1
        tally[1] += call.end_ns - call.start_ns
        tally[2] += call.flops
        tally[3] += call.bytes
    for kernel, (calls, ns, flops, nbytes) in kernels.items():
        prefix = f"nn.backend.{kernel}"
        metrics[f"{prefix}.calls"] = calls
        metrics[f"{prefix}.ms"] = ns / 1e6
        metrics[f"{prefix}.gflop"] = flops / 1e9
        metrics[f"{prefix}.mbytes"] = nbytes / 1e6
        if ns and ref:
            metrics[f"{prefix}.ref_frac"] = flops / ns / ref

    for name, value in traced.layer.items():
        metrics[name] = value
    untraced_s = sum(p.work_s for p in untraced) / len(untraced)
    metrics["trace.overhead_frac"] = traced.work_s / untraced_s - 1.0
    # The share of the timed operations' wall time no layer span covers.
    ops = [s for name in OPERATION_SPANS[workload] for s in by_name[name]]
    wall = sum(s.duration_ns for s in ops)
    metrics["trace.unattributed_frac"] = (
        sum(self_ns[s.span_id] for s in ops) / wall if wall else 0.0)
    return {name: float(value) for name, value in metrics.items()}


def kernel_layers(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Kernel milliseconds per enclosing layer span (for the record)."""
    table = defaultdict(lambda: defaultdict(float))
    for call in tracer.kernels:
        table[call.layer or "none"][call.name] += (
            (call.end_ns - call.start_ns) / 1e6)
    return {layer: dict(kernels) for layer, kernels in table.items()}
