"""Node churn: lose a host mid-stream, repair the placement in place.

Walks the churn-resilience loop end to end:

1. train a small cost model and place three queries on one cluster,
2. register the deployments with a ClusterMonitor over a ServingLoop,
3. inject a seeded churn plan (degrade + host failure),
4. watch incremental repair pin the unaffected operators and re-place
   only the repair set — then compare against from-scratch placement.

Usage::

    python examples/node_churn.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (BenchmarkCollector, Costream, QueryGenerator,
                   TrainingConfig, sample_cluster)
from repro.hardware.churn import ChurnEvent, ChurnPlan
from repro.placement import PlacementOptimizer
from repro.placement.repair import PlacementRepairer
from repro.serving import ClusterMonitor, DecisionBatcher, ServingLoop


def main() -> None:
    print("== 1. Train a cost model and place three queries ==")
    traces = BenchmarkCollector(seed=0).collect(400)
    config = TrainingConfig(hidden_dim=24, epochs=15, patience=6)
    model = Costream(metrics=("processing_latency", "success",
                             "backpressure"),
                     ensemble_size=1, config=config, seed=0)
    model.fit(traces)
    rng = np.random.default_rng(7)
    cluster = sample_cluster(rng, 7)
    generator = QueryGenerator(seed=rng)
    optimizer = PlacementOptimizer(model)
    plans = [generator.generate() for _ in range(3)]
    decisions = [optimizer.optimize(plan, cluster, n_candidates=20,
                                    seed=index)
                 for index, plan in enumerate(plans)]
    for index, decision in enumerate(decisions):
        print(f"   query {index}: {len(plans[index])} operators on "
              f"{sorted(decision.placement.used_nodes())}")

    print("== 2. Track the deployments with a ClusterMonitor ==")
    loop = ServingLoop(DecisionBatcher(model), max_queue=32)
    monitor = ClusterMonitor(loop)
    ids = [monitor.track(plan, cluster, decision, n_candidates=20,
                         seed=index)
           for index, (plan, decision) in enumerate(zip(plans,
                                                        decisions))]
    print(f"   tracking {len(ids)} deployments, cluster version "
          f"{cluster.version}, churn counters all zero: "
          f"{all(v == 0 for v in monitor.health.as_dict().values())}")

    print("== 3. Inject seeded churn (degrade, then a host failure) ==")
    victim = decisions[0].placement.used_nodes()[0]
    churn = ChurnPlan.of(
        ChurnEvent("degrade", tick=0, node_id=victim, severity=0.25),
        ChurnEvent("fail", tick=1, node_id=victim))
    for event in churn:
        record, outcomes = monitor.observe(cluster, event)
        print(f"   tick {record.tick}: {event.kind} {record.node_id} "
              f"-> repaired {len(outcomes)} deployment(s), cluster "
              f"version {cluster.version}")
        for deployment_id, outcome in sorted(outcomes.items()):
            mode = ("full re-placement" if outcome.full_replacement
                    else f"incremental ({len(outcome.repaired_ops)} of "
                         f"{len(plans[deployment_id])} operators)")
            print(f"      deployment {deployment_id}: {mode}, "
                  f"objective {outcome.objective:.4f}")
    loop.close()
    health = monitor.health
    print(f"   health: {health.churn_events} events, {health.repairs} "
          f"incremental, {health.full_replacements} full, "
          f"{health.infeasible} infeasible")

    print("== 4. Incremental repair vs from-scratch re-placement ==")
    repairer = PlacementRepairer(model)
    plan, decision = plans[1], decisions[1]
    fresh = sample_cluster(np.random.default_rng(7), 7)
    placed = optimizer.optimize(plan, fresh, n_candidates=20, seed=1)
    lost = placed.placement.used_nodes()[0]
    fresh.remove_node(lost)
    start = time.perf_counter()
    outcome = repairer.repair(plan, fresh, placed.placement, {lost},
                              n_candidates=20, seed=1)
    repair_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    scratch = optimizer.optimize(plan, fresh, n_candidates=20, seed=1)
    full_ms = 1e3 * (time.perf_counter() - start)
    replay = repairer.repair(plan, fresh, placed.placement, {lost},
                             n_candidates=20, seed=1)
    print(f"   repair set: {outcome.repaired_ops} "
          f"({len(outcome.pinned_ops)} operators stayed pinned)")
    print(f"   incremental repair   : {repair_ms:7.1f} ms, "
          f"{outcome.candidates_enumerated} candidates")
    print(f"   from-scratch         : {full_ms:7.1f} ms, "
          f"{scratch.candidates_evaluated} candidates")
    print(f"   objective ratio      : "
          f"{outcome.objective / scratch.predicted_objective:7.3f} "
          f"(repaired / from-scratch)")
    identical = (replay.placement == outcome.placement
                 and replay.objective == outcome.objective)
    print(f"   replay bitwise equal : {identical}")


if __name__ == "__main__":
    main()
