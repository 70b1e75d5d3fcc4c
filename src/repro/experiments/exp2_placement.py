"""Exp 2 — placement optimization (Fig. 9) and monitoring (Fig. 10)."""

from __future__ import annotations

import numpy as np

from ..baselines.flat_vector import FlatVectorModel
from ..baselines.online_monitoring import OnlineMonitoringScheduler
from ..config import default_workload_ranges
from ..data.collection import QueryTrace
from ..hardware.cluster import sample_cluster
from ..placement.enumeration import HeuristicPlacementEnumerator
from ..query.datatypes import DataType, TupleSchema
from ..query.generator import QueryGenerator
from ..query.operators import Filter, Sink, Source
from ..query.plan import QueryPlan
from ..serving import DecisionBatcher, DecisionRequest
from ..simulator.result import QueryMetrics
from ..simulator.runtime import DSPSSimulator
from ..simulator.selectivity import SelectivityEstimator
from .context import ExperimentContext

__all__ = ["run_speedups", "run_monitoring"]

_QUERY_TYPES = (
    ("linear", "generate_linear", False),
    ("linear+agg", "generate_linear", True),
    ("2-way-join", "generate_two_way", False),
    ("2-way-join+agg", "generate_two_way", True),
    ("3-way-join", "generate_three_way", False),
    ("3-way-join+agg", "generate_three_way", True),
)

#: Fig. 10 sweep values (paper legend).
_MONITORING_RATES = (100, 200, 400, 800, 1600, 3200, 6400)
_MONITORING_SELECTIVITIES = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def run_speedups(context: ExperimentContext) -> list[dict]:
    """Fig. 9: median Lp speed-up over the heuristic initial placement.

    For every query type, ``queries_per_type`` random queries are
    placed (a) by the deterministic heuristic, (b) by COSTREAM over
    heuristic candidates and (c) by the flat-vector baseline over the
    *same* candidates; the reported speed-up is the simulated
    processing-latency ratio vs (a).

    COSTREAM placements come from the cross-decision throughput engine
    (:class:`repro.serving.DecisionBatcher`): all of a query type's
    decisions are served as ONE wave, each query's candidates scored
    on their own distinct rows, with per-candidate predictions bitwise
    identical to deciding each query separately (PERFORMANCE.md).
    """
    scale = context.scale
    rng = np.random.default_rng(context.seed + 21)
    simulator = DSPSSimulator()
    estimator = SelectivityEstimator(seed=context.seed)
    model = context.placement_model
    flat = context.flat_vector
    batcher = DecisionBatcher(model, objective="processing_latency")

    rows: list[dict] = []
    for type_name, method, with_agg in _QUERY_TYPES:
        generator = QueryGenerator(default_workload_ranges(), seed=rng)
        # Phase 1 — enumerate the wave.  The RNG draw order per query
        # (generate, sample cluster, enumerate candidates) matches the
        # original per-query loop exactly, so the workload is unchanged.
        requests: list[DecisionRequest] = []
        baselines: list[float] = []
        for q in range(scale.queries_per_type):
            plan = getattr(generator, method)(with_aggregation=with_agg)
            cluster = sample_cluster(rng, int(rng.integers(5, 9)))
            enumerator = HeuristicPlacementEnumerator(cluster, seed=rng)
            heuristic = enumerator.default_placement(plan)
            baseline_run = simulator.run(plan, heuristic, cluster,
                                         seed=1000 + q)
            baselines.append(max(baseline_run.processing_latency_ms,
                                 1e-3))
            # Index-native: the sampled index matrix feeds vectorized
            # collation directly; the flat baseline below materializes
            # the string views it needs lazily.
            candidates = enumerator.enumerate_indices(plan,
                                                      scale.n_candidates)
            requests.append(DecisionRequest(
                plan=plan, cluster=cluster,
                selectivities=estimator.estimate(plan),
                candidates=candidates))

        # Phase 2 — one batched wave decides every query of this type.
        decisions = batcher.decide(requests)

        # Phase 3 — play the chosen placements out on the simulator.
        costream_speedups: list[float] = []
        flat_speedups: list[float] = []
        for q, (request, decision) in enumerate(zip(requests, decisions)):
            plan, cluster = request.plan, request.cluster
            baseline_lp = baselines[q]
            optimized = simulator.run(plan, decision.placement, cluster,
                                      seed=2000 + q)
            costream_speedups.append(
                baseline_lp / max(optimized.processing_latency_ms, 1e-3))

            chosen_flat = _choose_with_flat(flat, plan, cluster,
                                            list(request.candidates),
                                            request.selectivities)
            flat_run = simulator.run(plan, chosen_flat, cluster,
                                     seed=3000 + q)
            flat_speedups.append(
                baseline_lp / max(flat_run.processing_latency_ms, 1e-3))
        rows.append({
            "query_type": type_name,
            "costream_speedup": float(np.median(costream_speedups)),
            "flat_speedup": float(np.median(flat_speedups)),
            "n": scale.queries_per_type,
        })
    return rows


def _choose_with_flat(flat: FlatVectorModel, plan, cluster, candidates,
                      selectivities):
    pseudo = [QueryTrace(plan=plan, placement=c, cluster=cluster,
                         metrics=_DUMMY_METRICS,
                         selectivities=selectivities)
              for c in candidates]
    latency = flat.predict_metric("processing_latency", pseudo)
    feasible = (flat.predict_metric("success", pseudo) >= 0.5) \
        & (flat.predict_metric("backpressure", pseudo) < 0.5)
    order = np.argsort(latency)
    for index in order:
        if feasible[index]:
            return candidates[index]
    return candidates[int(order[0])]


_DUMMY_METRICS = QueryMetrics(throughput=0.0, e2e_latency_ms=0.0,
                              processing_latency_ms=0.0,
                              backpressure=False, success=True)


# ----------------------------------------------------------------------
# Exp 2b — online monitoring baseline
# ----------------------------------------------------------------------
def run_monitoring(context: ExperimentContext) -> list[dict]:
    """Fig. 10: slow-down and monitoring overhead of an online scheduler.

    A linear filter query is swept over event rates and selectivities.
    COSTREAM places it up front (all sweep points served as one
    :class:`repro.serving.DecisionBatcher` wave); the baseline starts
    from the heuristic placement, monitors, and migrates operators.  We
    report the initial slow-down factor and the time the baseline needs
    to become competitive with COSTREAM's placement (the monitoring
    overhead).
    """
    scale = context.scale
    rng = np.random.default_rng(context.seed + 43)
    simulator = DSPSSimulator()
    model = context.placement_model
    batcher = DecisionBatcher(model, objective="processing_latency")

    combos = [(rate, selectivity)
              for rate in _MONITORING_RATES
              for selectivity in _MONITORING_SELECTIVITIES]
    rng.shuffle(combos)
    combos = combos[:scale.monitoring_runs]

    requests: list[DecisionRequest] = []
    enumerators: list[HeuristicPlacementEnumerator] = []
    for rate, selectivity in sorted(combos):
        plan = _linear_filter_query(float(rate), float(selectivity))
        cluster = sample_cluster(rng, 6)
        enumerator = HeuristicPlacementEnumerator(cluster, seed=rng)
        candidates = enumerator.enumerate_indices(plan,
                                                  scale.n_candidates)
        enumerators.append(enumerator)
        requests.append(DecisionRequest(
            plan=plan, cluster=cluster,
            selectivities={"filter1": selectivity},
            candidates=candidates))
    decisions = batcher.decide(requests)

    rows: list[dict] = []
    for run_index, ((rate, selectivity), request, decision) in \
            enumerate(zip(sorted(combos), requests, decisions)):
        plan, cluster = request.plan, request.cluster
        # Play COSTREAM's placement out on the *same* fluid simulator
        # the monitoring baseline runs on, so latencies are comparable.
        target_lp = _fluid_latency_ms(plan, decision.placement, cluster,
                                      seed=500 + run_index)

        scheduler = OnlineMonitoringScheduler(cluster,
                                              seed=context.seed + run_index)
        result = scheduler.run(
            plan, enumerators[run_index].default_placement(plan))
        slowdown = result.initial_latency_ms / max(target_lp, 1e-3)
        overhead = result.time_to_reach(target_lp * 1.1)
        rows.append({
            "event_rate": rate,
            "selectivity": selectivity,
            "slowdown": float(max(slowdown, 1.0)),
            "monitoring_overhead_s": (float(overhead)
                                      if overhead is not None
                                      else float("inf")),
            "migrations": len(result.migrations),
        })
    return rows


def _fluid_latency_ms(plan, placement, cluster, seed: int) -> float:
    """Steady processing latency of a placement on the fluid simulator."""
    from ..simulator.fluid import FluidSimulation

    simulation = FluidSimulation(plan, placement, cluster, seed=seed)
    timeline = simulation.run()
    tail = [lat.processing_latency_ms for lat in timeline[-len(timeline) // 4
                                                          or -1:]]
    return float(np.median(tail)) if tail else 1e-3


def _linear_filter_query(event_rate: float, selectivity: float) -> QueryPlan:
    source = Source("src1", event_rate,
                    TupleSchema.of("int", "double", "string", "int"))
    predicate = Filter("filter1", "<", DataType.DOUBLE, selectivity)
    sink = Sink("sink")
    return QueryPlan([source, predicate, sink],
                     [("src1", "filter1"), ("filter1", "sink")],
                     name="linear")
