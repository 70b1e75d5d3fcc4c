"""Hot-path microbenchmarks: fast path vs. the pre-optimization code.

Measures the three hot paths the fast-path PR optimized (see
PERFORMANCE.md) against faithful replicas of the original code:

* **collate** — vectorized batching vs. the retained per-node-loop
  :func:`repro.core.collate_reference`;
* **placement decision** — one end-to-end ``optimize`` call (enumerate
  candidates, featurize, predict 3 metrics with a K-member ensemble,
  rank) with shared featurization/batches and no-grad inference vs.
  the original per-member re-collation with tape recording;
* **training epoch** — one cost-model epoch with cached per-graph
  arrays, vectorized collation and tape-free validation vs. the
  original loop.

The slow replicas intentionally mirror the seed implementations line
by line — including the seed's substrate kernels, restored via
:class:`repro.nn.autodiff.legacy_kernels` — so the reported speedups
measure exactly the PR's changes, and both paths are checked to
produce identical predictions (<= 1e-9).
"""

from __future__ import annotations

import time

import numpy as np

from ..data.collection import BenchmarkCollector
from ..hardware.cluster import Cluster, sample_cluster
from ..nn import Adam, clip_grad_norm, float32_inference
from ..nn.autodiff import legacy_kernels
from ..core.costream import Costream
from ..core.dataset import GraphDataset
from ..core.ensemble import MetricEnsemble
from ..core.model import MemberStack
from ..core.graph import (QueryGraph, batches_equal, build_graph,
                          collate, collate_candidates,
                          collate_candidates_reference, collate_reference,
                          featurize_hosts, featurize_plan)
from ..core.training import CostModel, TrainingConfig
from ..placement.enumeration import HeuristicPlacementEnumerator
from ..placement.optimizer import PlacementOptimizer
from ..placement.repair import PlacementRepairer
from ..query.generator import QueryGenerator
from ..query.plan import QueryPlan
from ..serving import (ClusterMonitor, DecisionBatcher, DecisionRequest,
                       ServingLoop)
from ..training import BatchSchedule, StackedTrainer
from .scale import ExperimentScale, get_scale

__all__ = ["run_hotpath_benchmarks", "EQUIVALENCE_TOLERANCE",
           "FLOAT32_TOLERANCE"]

EQUIVALENCE_TOLERANCE = 1e-9

#: Maximum relative deviation of float32 ensemble predictions from the
#: float64 reference (documented in PERFORMANCE.md; observed values are
#: around 1e-5 — the budget leaves ~50x headroom for other platforms).
FLOAT32_TOLERANCE = 5e-4

_DECISION_METRICS = ("processing_latency", "success", "backpressure")


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved(fast_fn, slow_fn, repeats: int) -> tuple[float, float]:
    """Best-of wall times of two competitors, sampled alternately.

    Interleaving gives both sides equal exposure to background load;
    taking the minimum is the standard microbenchmark estimator since
    timing noise on a quiet run is strictly additive.
    """
    fast_times: list[float] = []
    slow_times: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fast_fn()
        fast_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        slow_fn()
        slow_times.append(time.perf_counter() - start)
    return (float(np.min(fast_times)), float(np.min(slow_times)))


# ----------------------------------------------------------------------
# Slow-path replicas (faithful to the pre-PR implementations)
# ----------------------------------------------------------------------
def _slow_member_predict(member: CostModel,
                         graphs: list[QueryGraph]) -> np.ndarray:
    """Original ``CostModel.predict``: per-call chunked loop collation,
    autodiff tape recorded and discarded."""
    outputs = []
    batch_size = member.config.batch_size
    for start in range(0, len(graphs), batch_size):
        batch = collate_reference(graphs[start:start + batch_size])
        outputs.append(np.atleast_1d(member.network(batch).numpy()))
    raw = np.concatenate(outputs)
    if member.is_regression and member.config.loss != "mse":
        return np.expm1(np.clip(raw, 0.0, 30.0))
    if member.is_regression:
        return np.maximum(raw, 0.0)
    return 1.0 / (1.0 + np.exp(-raw))


def _slow_ensemble_predict(ensemble: MetricEnsemble,
                           graphs: list[QueryGraph]) -> np.ndarray:
    """Original ``MetricEnsemble.predict``: every member re-collates."""
    stacked = np.stack([_slow_member_predict(m, graphs)
                        for m in ensemble.members])
    if ensemble.is_regression:
        return stacked.mean(axis=0)
    votes = (stacked >= 0.5).sum(axis=0)
    return (votes * 2 > len(ensemble.members)).astype(np.float64)


def _slow_enumerate(enumerator: HeuristicPlacementEnumerator,
                    plan: QueryPlan, k: int) -> list:
    """The seed's candidate enumeration: frozenset-based eligibility
    sets and sorted-item dedup keys.  Draws the same RNG sequence as
    the shipped bitmask sampler, so candidates are identical."""
    from ..hardware.placement import Placement
    candidates = []
    seen = set()
    attempts = 0
    while len(candidates) < k and attempts < k * 10:
        attempts += 1
        assignment: dict = {}
        visited: dict = {}
        for op_id in plan.topological_order():
            parents = plan.parents(op_id)
            eligible = enumerator._eligible_nodes(assignment, visited,
                                                  parents)
            choice = eligible[enumerator._rng.integers(len(eligible))]
            assignment[op_id] = choice
            upstream = frozenset().union(
                *(visited[p] for p in parents)) if parents \
                else frozenset()
            visited[op_id] = upstream | {choice}
        placement = Placement(assignment)
        key = tuple(sorted(placement.items()))
        if key not in seen:
            seen.add(key)
            candidates.append(placement)
    return candidates


def _slow_decision(model: Costream, plan: QueryPlan, cluster: Cluster,
                   n_candidates: int, objective: str, seed: int
                   ) -> tuple[int, np.ndarray, np.ndarray]:
    """Original ``PlacementOptimizer.optimize``: per-candidate
    featurization, then one collation per metric per ensemble member,
    all on the seed's substrate kernels."""
    with legacy_kernels():
        enumerator = HeuristicPlacementEnumerator(cluster, seed=seed)
        candidates = _slow_enumerate(enumerator, plan, n_candidates)
        graphs = [build_graph(plan, candidate, cluster, model.featurizer)
                  for candidate in candidates]
        feasible = np.ones(len(graphs), dtype=bool)
        if "success" in model.metrics:
            feasible &= _slow_ensemble_predict(
                model.ensembles["success"], graphs) >= 0.5
        if "backpressure" in model.metrics:
            feasible &= _slow_ensemble_predict(
                model.ensembles["backpressure"], graphs) < 0.5
        objective_values = _slow_ensemble_predict(
            model.ensembles[objective], graphs)
        order = np.argsort(objective_values)
        feasible_order = [i for i in order if feasible[i]]
        best = feasible_order[0] if feasible_order else int(order[0])
        return int(best), objective_values, feasible


def _fast_decision(model: Costream, plan: QueryPlan, cluster: Cluster,
                   n_candidates: int, objective: str, seed: int
                   ) -> tuple[int, np.ndarray, np.ndarray]:
    """The shipped fast path, instrumented to return per-candidate
    predictions for the equivalence check."""
    enumerator = HeuristicPlacementEnumerator(cluster, seed=seed)
    candidates = enumerator.enumerate(plan, n_candidates)
    batches = model.collate_placements(plan, candidates, cluster)
    feasible = np.ones(len(candidates), dtype=bool)
    if "success" in model.metrics:
        feasible &= model.predict_metric("success", batches) >= 0.5
    if "backpressure" in model.metrics:
        feasible &= model.predict_metric("backpressure", batches) < 0.5
    objective_values = model.predict_metric(objective, batches)
    order = np.argsort(objective_values)
    feasible_order = [i for i in order if feasible[i]]
    best = feasible_order[0] if feasible_order else int(order[0])
    return int(best), objective_values, feasible


def _slow_fit(metric: str, graphs: list[QueryGraph], labels: np.ndarray,
              config: TrainingConfig, seed: int) -> list[float]:
    """The original ``CostModel.fit`` loop: loop-based collation every
    mini-batch, validation re-collated (with tape) every epoch, on the
    seed's substrate kernels."""
    with legacy_kernels():
        return _slow_fit_inner(metric, graphs, labels, config, seed)


def _slow_fit_inner(metric: str, graphs: list[QueryGraph],
                    labels: np.ndarray, config: TrainingConfig,
                    seed: int) -> list[float]:
    model = CostModel(metric, config=config, seed=seed)
    labels = np.asarray(labels, dtype=np.float64)
    rng = np.random.default_rng(model.seed)
    n_val = max(1, int(len(graphs) * config.val_fraction),
                min(20, len(graphs) // 5))
    order = rng.permutation(len(graphs))
    val_rows, train_rows = order[:n_val], order[n_val:]
    val_graphs = [graphs[i] for i in val_rows]
    val_labels = labels[val_rows]
    graphs = [graphs[i] for i in train_rows]
    labels = labels[train_rows]

    optimizer = Adam(model.network.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    history: list[float] = []
    sample_pool = np.arange(len(graphs))
    best_val = float("inf")
    best_state = model.network.state_dict()

    for epoch in range(config.epochs):
        optimizer.lr = config.learning_rate * (
            config.lr_decay ** (epoch // config.lr_decay_every))
        epoch_order = sample_pool[rng.permutation(len(sample_pool))]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(epoch_order), config.batch_size):
            rows = epoch_order[start:start + config.batch_size]
            batch = collate_reference([graphs[i] for i in rows])
            output = model.network(batch)
            loss = model._loss(output, labels[rows])
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(model.network.parameters(), config.grad_clip)
            optimizer.step()
            epoch_loss += loss.item()
            n_batches += 1
        history.append(epoch_loss / max(n_batches, 1))

        # Original evaluate_loss: re-collate the same validation
        # batches, forward with the tape recording.
        total, count = 0.0, 0
        for start in range(0, len(val_graphs), config.batch_size):
            chunk = val_graphs[start:start + config.batch_size]
            batch = collate_reference(chunk)
            output = model.network(batch)
            loss = model._loss(output,
                               val_labels[start:start + config.batch_size])
            total += loss.item() * len(chunk)
            count += len(chunk)
        val_loss = total / max(count, 1)
        if val_loss < best_val - 1e-6:
            best_val = val_loss
            best_state = model.network.state_dict()
    model.network.load_state_dict(best_state)
    return history


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------
def _bench_collate(graphs: list[QueryGraph], batch_size: int,
                   repeats: int) -> dict:
    chunk = graphs[:batch_size]
    collate(chunk)  # warm the per-graph array caches once
    fast, slow = _interleaved(lambda: collate(chunk),
                              lambda: collate_reference(chunk), repeats)
    return {
        "batch_size": len(chunk),
        "fast_s": fast,
        "slow_s": slow,
        "speedup": slow / max(fast, 1e-12),
        "graphs_per_s_fast": len(chunk) / max(fast, 1e-12),
        "graphs_per_s_slow": len(chunk) / max(slow, 1e-12),
    }


def _bench_decisions(scale: ExperimentScale, repeats: int,
                     n_plans: int) -> dict:
    """End-to-end placement decisions: enumerate + predict + rank.

    Prediction latency does not depend on the trained weights, so the
    models keep their random initialization — what matters is that the
    fast and slow paths run the same networks on the same candidates.
    """
    config = TrainingConfig(hidden_dim=scale.hidden_dim)
    model = Costream(metrics=_DECISION_METRICS,
                     ensemble_size=scale.ensemble_size, config=config,
                     seed=0)
    optimizer = PlacementOptimizer(model, objective="processing_latency")

    rng = np.random.default_rng(17)
    generator = QueryGenerator(seed=rng)
    cases = [(generator.generate(),
              sample_cluster(rng, int(rng.integers(4, 8))))
             for _ in range(n_plans)]

    fast_total, slow_total = 0.0, 0.0
    max_delta = 0.0
    decisions_agree = True
    for index, (plan, cluster) in enumerate(cases):
        fast_best, fast_obj, fast_ok = _fast_decision(
            model, plan, cluster, scale.n_candidates,
            "processing_latency", seed=index)
        slow_best, slow_obj, slow_ok = _slow_decision(
            model, plan, cluster, scale.n_candidates,
            "processing_latency", seed=index)
        max_delta = max(max_delta,
                        float(np.max(np.abs(fast_obj - slow_obj))))
        decisions_agree &= (fast_best == slow_best
                            and bool(np.array_equal(fast_ok, slow_ok)))
        optimizer.optimize(plan, cluster,
                           n_candidates=scale.n_candidates,
                           seed=index)  # warm-up outside the clock
        fast_s, slow_s = _interleaved(
            lambda: optimizer.optimize(plan, cluster,
                                       n_candidates=scale.n_candidates,
                                       seed=index),
            lambda: _slow_decision(model, plan, cluster,
                                   scale.n_candidates,
                                   "processing_latency", seed=index),
            repeats)
        fast_total += fast_s
        slow_total += slow_s
    return {
        "n_plans": len(cases),
        "n_candidates": scale.n_candidates,
        "ensemble_size": scale.ensemble_size,
        "metrics_per_decision": len(_DECISION_METRICS),
        "fast_s_per_decision": fast_total / len(cases),
        "slow_s_per_decision": slow_total / len(cases),
        "speedup": slow_total / max(fast_total, 1e-12),
        "max_abs_prediction_delta": max_delta,
        "decisions_agree": decisions_agree,
    }


def _throughput_model(scale: ExperimentScale) -> Costream:
    config = TrainingConfig(hidden_dim=scale.hidden_dim)
    return Costream(metrics=_DECISION_METRICS,
                    ensemble_size=scale.ensemble_size, config=config,
                    seed=0)


def _throughput_requests(scale: ExperimentScale,
                         n_requests: int) -> list[DecisionRequest]:
    rng = np.random.default_rng(29)
    generator = QueryGenerator(seed=rng)
    return [DecisionRequest(plan=generator.generate(),
                            cluster=sample_cluster(
                                rng, int(rng.integers(4, 8))),
                            n_candidates=scale.n_candidates, seed=index)
            for index in range(n_requests)]


def _bench_decision_throughput(scale: ExperimentScale, repeats: int,
                               n_requests: int) -> dict:
    """Cross-decision serving over one mixed-plan decision stream:
    :class:`DecisionBatcher` waves and the serving loop against
    sequential ``optimize`` calls.

    A wave decides each request through the same per-request path as
    ``optimize`` (enumerate, featurize, collate, predict 3 metrics,
    rank), so float64 wave decisions must be bitwise identical to the
    sequential ones; the float32 end-to-end path must stay within
    :data:`FLOAT32_TOLERANCE` at the *decision* level and never flip a
    chosen placement.
    """
    model = _throughput_model(scale)
    optimizer = PlacementOptimizer(model, objective="processing_latency")
    batcher = DecisionBatcher(model, objective="processing_latency")
    requests = _throughput_requests(scale, n_requests)
    candidates = [batcher._candidates_for(request)
                  for request in requests]

    def run_sequential():
        return [optimizer.optimize(request.plan, request.cluster,
                                   n_candidates=request.n_candidates,
                                   seed=request.seed)
                for request in requests]

    def score_requests() -> tuple[np.ndarray, np.ndarray]:
        """Every request's (objective values, feasibility), joined."""
        scores = [optimizer.score(model.collate_placements(
                      request.plan, cands, request.cluster))
                  for request, cands in zip(requests, candidates)]
        return (np.concatenate([values for values, _ in scores]),
                np.concatenate([feasible for _, feasible in scores]))

    # Decision-level equivalence: per-candidate objectives, feasibility
    # masks and chosen placements of the wave vs the sequential path.
    values, feasible = score_requests()
    sequential_parts = [
        _fast_decision(model, request.plan, request.cluster,
                       request.n_candidates, "processing_latency",
                       seed=request.seed)
        for request in requests]
    seq_values = np.concatenate([objective
                                 for _, objective, _ in sequential_parts])
    seq_feasible = np.concatenate([mask
                                   for _, _, mask in sequential_parts])
    float64_delta = float(np.max(np.abs(values - seq_values)))
    batched_decisions = batcher.decide(requests)
    sequential_decisions = run_sequential()
    decisions_agree = bool(
        np.array_equal(feasible, seq_feasible)
        and all(batched.placement == sequential.placement
                and batched.predicted_objective
                == sequential.predicted_objective
                for batched, sequential
                in zip(batched_decisions, sequential_decisions)))

    # float32 end-to-end: featurization and collation run inside the
    # context, so the whole wave is single-precision.
    with float32_inference():
        batcher.decide(requests)  # warm float32 stacks, off-clock
        float32_s = _best_of(lambda: batcher.decide(requests), repeats)
        float32_values, _ = score_requests()
        float32_decisions = batcher.decide(requests)
    float32_delta = float(np.max(
        np.abs(float32_values - values) / (np.abs(values) + 1e-9)))
    float32_agree = all(
        float32.placement == batched.placement
        for float32, batched in zip(float32_decisions, batched_decisions))

    sequential_s = _best_of(run_sequential, repeats)

    result = {
        "n_requests": n_requests,
        "n_candidates": scale.n_candidates,
        "ensemble_size": scale.ensemble_size,
        "metrics_per_decision": len(_DECISION_METRICS),
        "sequential_s_per_decision": sequential_s / n_requests,
        "decisions_per_s_sequential": n_requests / max(sequential_s,
                                                       1e-12),
        "float64_max_abs_delta": float64_delta,
        "decisions_agree": decisions_agree,
        "float32_s_per_decision": float32_s / n_requests,
        "float32_speedup": sequential_s / max(float32_s, 1e-12),
        "float32_max_rel_delta": float32_delta,
        "float32_decisions_agree": bool(float32_agree),
        "float32_tolerance": FLOAT32_TOLERANCE,
    }

    # The serving front door over the same request stream: deciding
    # each request on arrival must serve decisions identical to direct
    # wave dispatch, with zero rejections, failures or cancellations.
    with ServingLoop(DecisionBatcher(model,
                                     objective="processing_latency"),
                     max_queue=4 * n_requests) as loop:
        # A monitor with no churn events: its counters must all stay
        # at zero on this quiet run — the CI gate pins them.
        monitor = ClusterMonitor(loop)
        served = loop.serve(requests)  # warm-up outside the clock
        service_s = _best_of(lambda: loop.serve(requests), repeats)
        service_stats = loop.stats.as_dict()
        churn_health = monitor.health.as_dict()
    result["service"] = {
        "service_s_per_decision": service_s / n_requests,
        "decisions_per_s_service": n_requests / max(service_s, 1e-12),
        "decisions_match": bool(all(
            s.placement == b.placement
            and s.predicted_objective == b.predicted_objective
            for s, b in zip(served, batched_decisions))),
        "stats": service_stats,
        "churn": churn_health,
    }
    return result


def _bench_churn_repair(scale: ExperimentScale, repeats: int,
                        n_events: int) -> dict:
    """Incremental repair vs full re-placement after a host failure.

    For every event, a placed query loses one of its hosts; the
    incremental path pins the unaffected operators and re-enumerates
    only the repair set, the full path re-places from scratch on the
    mutated cluster.  Both score through the same index-native
    collation/ensemble machinery, so the timing ratio isolates the
    enumeration/collation work the pinning saves.  Repairs must be
    bitwise deterministic under replay (the churn recovery oracle) and
    must enumerate strictly fewer candidate rows than the full path in
    aggregate — the perf gate checks both plus the entry's presence.
    """
    model = _throughput_model(scale)
    optimizer = PlacementOptimizer(model, objective="processing_latency")
    repairer = PlacementRepairer(model, objective="processing_latency")
    rng = np.random.default_rng(43)
    generator = QueryGenerator(seed=rng)
    cases = []
    for ordinal in range(n_events):
        plan = generator.generate()
        cluster = sample_cluster(rng, int(rng.integers(6, 10)))
        decision = optimizer.optimize(plan, cluster,
                                      n_candidates=scale.n_candidates,
                                      seed=ordinal)
        lost = decision.placement.used_nodes()[0]
        cluster.remove_node(lost)
        cases.append((plan, cluster, decision.placement, lost, ordinal))

    def run_repairs():
        return [repairer.repair(plan, cluster, placement, {lost},
                                n_candidates=scale.n_candidates,
                                seed=ordinal)
                for plan, cluster, placement, lost, ordinal in cases]

    def run_full():
        return [optimizer.optimize(plan, cluster,
                                   n_candidates=scale.n_candidates,
                                   seed=ordinal)
                for plan, cluster, placement, lost, ordinal in cases]

    outcomes = run_repairs()  # warm-up outside the clock
    replays = run_repairs()
    deterministic = all(
        replay.placement == outcome.placement
        and replay.objective == outcome.objective
        for replay, outcome in zip(replays, outcomes))
    fulls = run_full()
    repair_s, full_s = _interleaved(run_repairs, run_full, repeats)
    repair_candidates = sum(o.candidates_enumerated for o in outcomes)
    full_candidates = sum(f.candidates_evaluated for f in fulls)
    return {
        "n_events": n_events,
        "n_candidates": scale.n_candidates,
        "incremental": sum(int(not o.full_replacement)
                           for o in outcomes),
        "repair_s_per_event": repair_s / n_events,
        "full_s_per_event": full_s / n_events,
        "speedup": full_s / max(repair_s, 1e-12),
        "repair_candidates": repair_candidates,
        "full_candidates": full_candidates,
        "fewer_candidates": bool(repair_candidates < full_candidates),
        "objective_ratio_q50": float(np.median(
            [o.objective / max(f.predicted_objective, 1e-12)
             for o, f in zip(outcomes, fulls)])),
        "repair_set_frac_q50": float(np.median(
            [len(o.repaired_ops) / len(case[0])
             for o, case in zip(outcomes, cases)])),
        "deterministic": bool(deterministic),
    }


def _bench_candidate_collation(scale: ExperimentScale,
                               repeats: int) -> dict:
    """Index-native candidate collation vs the retained reference loop.

    Measures exactly the ISSUE-4 cut: assembling one decision's
    candidate batch from the enumerator's ``(n_cands, n_ops)`` index
    matrix (vectorized) against re-mapping per-candidate string dicts
    (:func:`repro.core.graph.collate_candidates_reference`).  Both
    sides share featurized plans/hosts and warmed plan-part caches, so
    the ratio isolates the collation rewrite.  Equivalence is checked
    field-for-field (features bitwise, index arrays exact) and at the
    decision level: the placement chosen from the index-native batch
    must equal the one chosen from the reference batch.
    """
    model = _throughput_model(scale)
    optimizer = PlacementOptimizer(model, objective="processing_latency")
    featurizer = model.featurizer
    rng = np.random.default_rng(31)
    generator = QueryGenerator(seed=rng)
    cases = []
    for index in range(3):
        plan = generator.generate()
        cluster = sample_cluster(rng, int(rng.integers(4, 8)))
        enumerator = HeuristicPlacementEnumerator(cluster, seed=index)
        cands = enumerator.enumerate_indices(plan, scale.n_candidates)
        cases.append((featurize_plan(plan, featurizer),
                      featurize_hosts(cluster, featurizer),
                      cands, list(cands)))

    max_delta = 0.0
    fields_equal = True
    chosen_identical = True
    for plan_features, host_features, cands, strings in cases:
        fast = collate_candidates(plan_features, cands, host_features,
                                  neighbor_rounds=False)
        slow = collate_candidates_reference(plan_features, strings,
                                            host_features,
                                            neighbor_rounds=False)
        fields_equal &= batches_equal(fast, slow)
        for node_type, features in slow.type_features.items():
            max_delta = max(max_delta, float(np.max(np.abs(
                fast.type_features[node_type] - features))))
        fast_best, _ = optimizer.select(*optimizer.score([fast]))
        slow_best, _ = optimizer.select(*optimizer.score([slow]))
        chosen_identical &= (cands[fast_best] == strings[slow_best])

    def run_fast():
        for plan_features, host_features, cands, _ in cases:
            collate_candidates(plan_features, cands, host_features,
                               neighbor_rounds=False)

    def run_slow():
        for plan_features, host_features, _, strings in cases:
            collate_candidates_reference(plan_features, strings,
                                         host_features,
                                         neighbor_rounds=False)

    run_fast()  # warm plan-part and host-matrix caches off-clock
    run_slow()
    fast_s, slow_s = _interleaved(run_fast, run_slow, repeats)
    n_total = sum(len(strings) for _, _, _, strings in cases)
    return {
        "n_plans": len(cases),
        "n_candidates": scale.n_candidates,
        "fast_s": fast_s,
        "slow_s": slow_s,
        "speedup": slow_s / max(fast_s, 1e-12),
        "candidates_per_s_fast": n_total / max(fast_s, 1e-12),
        "candidates_per_s_slow": n_total / max(slow_s, 1e-12),
        "float64_max_abs_delta": max_delta,
        "fields_equal": bool(fields_equal),
        "chosen_identical": bool(chosen_identical),
    }


def _bench_ensemble(dataset: GraphDataset, scale: ExperimentScale,
                    repeats: int) -> dict:
    """Batched-GEMM ensemble inference vs the per-member loop.

    Both sides share one pre-collated batch (the PR-1 fast path), so
    the measured ratio isolates exactly the weight-stacking change: K
    sequential member forwards — K one-member stacks, built off the
    clock, running the same kernels — vs one batched-GEMM forward.
    The float64 stack must match the per-member side bitwise; the
    float32 stack must stay within :data:`FLOAT32_TOLERANCE`
    (relative).
    """
    config = TrainingConfig(hidden_dim=scale.hidden_dim)
    size = max(scale.ensemble_size, 3)
    ensemble = MetricEnsemble("processing_latency", size=size,
                              config=config, seed=0)
    batch = collate(dataset.graphs[:config.batch_size])
    member_stacks = [MemberStack([member.network])
                     for member in ensemble.members]
    to_label_space = ensemble.members[0].to_label_space

    def per_member():
        return to_label_space(np.concatenate(
            [stack.forward_arrays(batch) for stack in member_stacks]))

    # Warm every cache (stack build, stage plans, scatter indices)
    # outside the clock — one decision reuses them across 3 metrics.
    ensemble._member_predictions(batch)
    per_member()
    batched_s, per_member_s = _interleaved(
        lambda: ensemble._member_predictions(batch), per_member, repeats)

    float64 = ensemble._member_predictions(batch)
    reference = per_member()
    float64_delta = float(np.max(np.abs(float64 - reference)))
    with float32_inference():
        ensemble._member_predictions(batch)  # cast caches, off-clock
        float32_s = _best_of(
            lambda: ensemble._member_predictions(batch), repeats)
        float32 = ensemble._member_predictions(batch)
    float32_delta = float(np.max(
        np.abs(float32 - float64) / (np.abs(float64) + 1e-9)))

    return {
        "ensemble_size": size,
        "n_graphs": batch.n_graphs,
        "batched_s": batched_s,
        "per_member_s": per_member_s,
        "speedup": per_member_s / max(batched_s, 1e-12),
        "float64_max_abs_delta": float64_delta,
        "float32_s": float32_s,
        "float32_speedup": per_member_s / max(float32_s, 1e-12),
        "float32_max_rel_delta": float32_delta,
        "float32_tolerance": FLOAT32_TOLERANCE,
    }


def _bench_epoch(dataset: GraphDataset, scale: ExperimentScale,
                 n_epochs: int, repeats: int = 3) -> dict:
    """Seconds per training epoch of one cost model.

    The fast side is ``CostModel.fit`` — the one training loop with a
    single member, i.e. a one-member stack.  The slow side is the seed
    replica :func:`_slow_fit` (taped steps on the seed kernels, loop
    collation, re-collated validation).  Both draw the same
    member-seeded split and shuffles, so their train-loss trajectories
    must agree.
    """
    graphs, labels = dataset.metric_view("processing_latency")
    config = TrainingConfig(hidden_dim=scale.hidden_dim, epochs=n_epochs,
                            patience=n_epochs + 1)

    histories = {}

    def run_fast():
        model = CostModel("processing_latency", config=config, seed=0)
        histories["fast"] = model.fit(graphs, labels).train_loss

    def run_slow():
        histories["slow"] = _slow_fit("processing_latency", graphs,
                                      labels, config, seed=0)

    fast_s, slow_s = _interleaved(run_fast, run_slow, repeats)
    fast_s /= n_epochs
    slow_s /= n_epochs

    loss_delta = float(np.max(np.abs(
        np.asarray(histories["fast"][:n_epochs])
        - np.asarray(histories["slow"][:n_epochs]))))
    return {
        "n_graphs": len(graphs),
        "n_epochs": n_epochs,
        "fast_s_per_epoch": fast_s,
        "slow_s_per_epoch": slow_s,
        "speedup": slow_s / max(fast_s, 1e-12),
        "max_abs_train_loss_delta": loss_delta,
    }


def _bench_ensemble_train(dataset: GraphDataset, scale: ExperimentScale,
                          n_epochs: int, repeats: int = 3) -> dict:
    """One K-member lock-step run vs K separate one-member runs.

    Both sides train the same K freshly initialized members on the
    same schedule *draws*: every member fits under a
    :class:`~repro.training.BatchSchedule` seeded identically, so the
    splits, shuffles and mini-batches are the same everywhere and the
    runs are bitwise comparable.  The sequential side is K separate
    runs of the one training loop with a single member each
    (``CostModel.fit``), each under its OWN schedule instance — K
    independent collation passes, exactly the cost the default
    per-member ``MetricEnsemble.fit`` pays — while the stacked side
    shares one schedule across the ensemble, so the ratio measures
    the full lock-step change: shared collation plus one batched-GEMM
    forward/backward and one stacked Adam step per mini-batch instead
    of K.  Equivalence is asserted bitwise:
    per-member train/val loss trajectories must be identical (delta
    0.0) and the final parameters must match array-for-array.
    """
    graphs, labels = dataset.metric_view("processing_latency")
    size = 3
    config = TrainingConfig(hidden_dim=scale.hidden_dim,
                            epochs=n_epochs, patience=n_epochs + 1)

    def members():
        return [CostModel("processing_latency", config=config,
                          seed=1000 * i) for i in range(size)]

    runs: dict[str, list] = {}

    def run_stacked():
        trained = members()
        StackedTrainer(trained).fit(graphs, labels,
                                    schedule=BatchSchedule(0))
        runs["stacked"] = trained

    def run_sequential():
        trained = members()
        # One schedule instance per member: same draws (seed 0), but
        # each member collates its own batches — the pre-stacking cost.
        for member in trained:
            member.fit(graphs, labels, schedule=BatchSchedule(0))
        runs["sequential"] = trained

    run_stacked()  # warm graph-array/plan caches outside the clock
    run_sequential()
    stacked_s, sequential_s = _interleaved(run_stacked, run_sequential,
                                           repeats)
    loss_delta = 0.0
    histories_equal = True
    params_equal = True
    for stacked, sequential in zip(runs["stacked"], runs["sequential"]):
        for field in ("train_loss", "val_loss"):
            fast = np.asarray(getattr(stacked.history, field))
            slow = np.asarray(getattr(sequential.history, field))
            if fast.shape != slow.shape:
                histories_equal = False
                loss_delta = float("inf")
                continue
            if fast.size:
                loss_delta = max(loss_delta,
                                 float(np.max(np.abs(fast - slow))))
            histories_equal &= bool(np.array_equal(fast, slow))
        fast_state = stacked.network.state_dict()
        slow_state = sequential.network.state_dict()
        params_equal &= all(np.array_equal(fast_state[key],
                                           slow_state[key])
                            for key in slow_state)

    return {
        "ensemble_size": size,
        "n_graphs": len(graphs),
        "n_epochs": n_epochs,
        "stacked_s_per_epoch": stacked_s / n_epochs,
        "sequential_s_per_epoch": sequential_s / n_epochs,
        "speedup": sequential_s / max(stacked_s, 1e-12),
        "max_abs_train_loss_delta": loss_delta,
        "histories_equal": bool(histories_equal),
        "params_equal": bool(params_equal),
    }


def run_hotpath_benchmarks(scale_name: str | None = None,
                           seed: int = 7) -> dict:
    """Run all hot-path benchmarks; returns the ``BENCH_hotpaths`` dict."""
    scale = get_scale(scale_name)
    sizes = {
        "tiny": {"corpus": 120, "epochs": 2, "plans": 2, "repeats": 2,
                 "wave": 8},
        "small": {"corpus": 400, "epochs": 3, "plans": 3, "repeats": 3,
                  "wave": 12},
        "full": {"corpus": 600, "epochs": 3, "plans": 5, "repeats": 3,
                 "wave": 16},
    }[scale.name]

    import gc

    # Decisions first, on a quiet heap: the corpus build below floods
    # the allocator/GC with long-lived objects, which perturbs the
    # tape-heavy slow path much more than the array-only fast path.
    decision_result = _bench_decisions(scale,
                                       repeats=sizes["repeats"] + 5,
                                       n_plans=sizes["plans"])
    gc.collect()
    throughput_result = _bench_decision_throughput(
        scale, repeats=sizes["repeats"] + 3, n_requests=sizes["wave"])
    gc.collect()
    collation_result = _bench_candidate_collation(
        scale, repeats=max(sizes["repeats"] * 4, 10))
    gc.collect()
    churn_result = _bench_churn_repair(scale, repeats=sizes["repeats"],
                                       n_events=sizes["plans"] + 1)

    collector = BenchmarkCollector(seed=seed)
    traces = collector.collect(sizes["corpus"])
    dataset = GraphDataset.from_traces(traces)

    gc.collect()
    collate_result = _bench_collate(dataset.graphs,
                                    TrainingConfig().batch_size,
                                    repeats=max(sizes["repeats"] * 3, 5))
    gc.collect()
    ensemble_result = _bench_ensemble(dataset, scale,
                                      repeats=max(sizes["repeats"] * 3,
                                                  8))
    gc.collect()
    epoch_result = _bench_epoch(dataset, scale, n_epochs=sizes["epochs"])
    gc.collect()
    train_result = _bench_ensemble_train(dataset, scale,
                                         n_epochs=sizes["epochs"],
                                         repeats=sizes["repeats"] + 1)

    max_delta = max(decision_result["max_abs_prediction_delta"],
                    epoch_result["max_abs_train_loss_delta"],
                    train_result["max_abs_train_loss_delta"],
                    ensemble_result["float64_max_abs_delta"],
                    throughput_result["float64_max_abs_delta"],
                    collation_result["float64_max_abs_delta"])
    decisions_agree = bool(decision_result["decisions_agree"]
                           and throughput_result["decisions_agree"]
                           and collation_result["fields_equal"]
                           and collation_result["chosen_identical"]
                           and train_result["histories_equal"]
                           and train_result["params_equal"]
                           and churn_result["deterministic"])
    float32_ok = (ensemble_result["float32_max_rel_delta"]
                  <= FLOAT32_TOLERANCE
                  and throughput_result["float32_max_rel_delta"]
                  <= FLOAT32_TOLERANCE
                  and throughput_result["float32_decisions_agree"])
    return {
        "benchmark": "hotpaths",
        "scale": scale.name,
        "collate": collate_result,
        "candidate_collation": collation_result,
        "placement_decision": decision_result,
        "decision_throughput": throughput_result,
        "churn_repair": churn_result,
        "ensemble_batched": ensemble_result,
        "epoch": epoch_result,
        "ensemble_train": train_result,
        "equivalence": {
            "tolerance": EQUIVALENCE_TOLERANCE,
            "max_abs_delta": max_delta,
            "decisions_agree": decisions_agree,
            "float32_max_rel_delta":
                max(ensemble_result["float32_max_rel_delta"],
                    throughput_result["float32_max_rel_delta"]),
            "float32_tolerance": FLOAT32_TOLERANCE,
            "pass": bool(max_delta <= EQUIVALENCE_TOLERANCE
                         and decisions_agree
                         and float32_ok),
        },
        # The floors the nightly gate enforces at small scale.  The
        # decision wave has none: it decides each request through the
        # sequential path.
        "targets": {
            "placement_decision_speedup": 5.0,
            "epoch_speedup": 2.0,
            "collate_speedup": 2.0,
            "candidate_collation_speedup": 2.0,
            # The nightly gate floor: measured ~1.45-1.55x at small
            # scale on one core (bitwise-pinned arithmetic — see the
            # PERFORMANCE.md training section), floored with noise
            # headroom.
            "ensemble_train_speedup": 1.3,
        },
    }


def profile_decision(scale_name: str | None = None, top: int = 20) -> None:
    """cProfile the fast-path decision paths (``--profile`` flag).

    Profiles one sequential placement decision and one decision wave
    (:class:`repro.serving.DecisionBatcher`) — the first places to
    look when a future change regresses latency or throughput.
    """
    import cProfile
    import pstats

    scale = get_scale(scale_name)
    config = TrainingConfig(hidden_dim=scale.hidden_dim)
    model = Costream(metrics=_DECISION_METRICS,
                     ensemble_size=scale.ensemble_size, config=config)
    optimizer = PlacementOptimizer(model, objective="processing_latency")
    rng = np.random.default_rng(3)
    plan = QueryGenerator(seed=rng).generate()
    cluster = sample_cluster(rng, 6)
    optimizer.optimize(plan, cluster, n_candidates=scale.n_candidates)

    print(f"\n=== one sequential placement decision "
          f"({scale.n_candidates} candidates) ===")
    profiler = cProfile.Profile()
    profiler.enable()
    optimizer.optimize(plan, cluster, n_candidates=scale.n_candidates)
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)

    batcher = DecisionBatcher(model, objective="processing_latency")
    requests = _throughput_requests(scale, n_requests=8)
    batcher.decide(requests)  # warm caches outside the profile

    print("\n=== one decision wave (8 requests) ===")
    profiler = cProfile.Profile()
    profiler.enable()
    batcher.decide(requests)
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)

    # Collation share of one decision: how much of the end-to-end
    # latency candidate batching costs, index-native vs the retained
    # per-candidate reference loop (the ISSUE-4 before/after).
    enumerator = HeuristicPlacementEnumerator(cluster, seed=0)
    cands = enumerator.enumerate_indices(plan, scale.n_candidates)
    strings = list(cands)
    plan_features = featurize_plan(plan, model.featurizer)
    host_features = featurize_hosts(cluster, model.featurizer)
    collate_candidates(plan_features, cands, host_features,
                       neighbor_rounds=False)  # warm caches
    collate_candidates_reference(plan_features, strings, host_features,
                                 neighbor_rounds=False)
    decision_s = _best_of(
        lambda: optimizer.optimize(plan, cluster,
                                   n_candidates=scale.n_candidates), 10)
    index_s = _best_of(
        lambda: collate_candidates(plan_features, cands, host_features,
                                   neighbor_rounds=False), 10)
    reference_s = _best_of(
        lambda: collate_candidates_reference(plan_features, strings,
                                             host_features,
                                             neighbor_rounds=False), 10)
    print(f"\ncollation share of one decision "
          f"({scale.n_candidates} candidates, "
          f"{1e3 * decision_s:.2f} ms end-to-end):")
    print(f"  index-native    {1e3 * index_s:7.3f} ms "
          f"({index_s / decision_s:6.1%} of the decision)")
    print(f"  reference loop  {1e3 * reference_s:7.3f} ms "
          f"({reference_s / decision_s:6.1%} of the decision, "
          f"{reference_s / max(index_s, 1e-12):.1f}x slower)")

    # Candidate-selection micro-benchmark (vectorized masked argmax vs
    # the original Python list comprehension over the argsort order).
    values, feasible = optimizer.score(model.collate_placements(
        plan, cands, cluster))

    def select_listcomp():
        order = np.argsort(values)
        feasible_order = [i for i in order if feasible[i]]
        best = feasible_order[0] if feasible_order else int(order[0])
        return best, len(feasible_order)

    vectorized_s = _best_of(lambda: optimizer.select(values, feasible),
                            50)
    listcomp_s = _best_of(select_listcomp, 50)
    assert optimizer.select(values, feasible) == select_listcomp()
    print(f"select over {values.size} candidates: vectorized "
          f"{1e6 * vectorized_s:.1f} us vs list-comp "
          f"{1e6 * listcomp_s:.1f} us "
          f"({listcomp_s / max(vectorized_s, 1e-12):.1f}x)")
