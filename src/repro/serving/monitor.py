"""Cluster churn monitoring for the serving layer.

:class:`ClusterMonitor` closes the loop between the churn harness
(:mod:`repro.hardware.churn`) and the serving machinery: it tracks
live *deployments* (a plan, its cluster and its current placement),
applies churn events to the cluster, and re-places every affected
deployment through the serving machinery — incremental repairs ship
their pinned candidate sets as :class:`~repro.serving.batcher.
DecisionRequest` objects into the :class:`~repro.serving.service.
ServingLoop` (or straight into a :class:`~repro.serving.batcher.
DecisionBatcher` wave), so repair scoring rides the exact path
production decisions use and inherits its bitwise guarantees.

:class:`ChurnHealth` extends the :class:`~repro.serving.faults.
PoolHealth` discipline to churn: every counter is zero on a no-churn
run, ``bench_hotpaths.py`` snapshots the counters after the quiet
service benchmark, and the CI perf gate asserts they stayed zero.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from ..hardware.cluster import Cluster
    from ..hardware.placement import Placement
    from ..query.plan import QueryPlan
from ..hardware.churn import ChurnEvent, ChurnPlan, ChurnRecord, \
    apply_event
from ..placement.optimizer import PlacementDecision
from ..placement.repair import PlacementRepairer, RepairOutcome
from .batcher import DecisionBatcher, DecisionRequest
from .service import ServingLoop

__all__ = ["ChurnHealth", "ClusterMonitor", "Deployment"]


@dataclass
class ChurnHealth:
    """Churn/repair counters (all zero on a churn-free run).

    Mirrors :class:`~repro.serving.faults.PoolHealth`: the benchmark
    snapshot of a quiet run must show every counter at zero — the
    churn machinery is free unless churn actually happens — and the
    perf gate enforces it.
    """

    churn_events: int = 0        # events observed (applied or skipped)
    joins: int = 0               # applied, by kind
    leaves: int = 0
    fails: int = 0
    degrades: int = 0
    skipped_events: int = 0      # events that could not apply
    repairs: int = 0             # deployments repaired incrementally
    full_replacements: int = 0   # deployments re-placed from scratch
    infeasible: int = 0          # repairs with no rule-valid candidate
    replaced_deployments: int = 0  # total deployments re-placed

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Deployment:
    """One tracked in-flight placement (mutable: repairs update it)."""

    deployment_id: int
    plan: "QueryPlan"
    cluster: "Cluster"
    placement: "Placement"
    selectivities: dict[str, float] | None = None
    n_candidates: int = 30
    seed: int = 0


class ClusterMonitor:
    """Feeds churn events into the serving loop and repairs the fallout.

    ``serving`` is a :class:`ServingLoop` (repair requests are
    submitted through the loop one by one, queued with production
    traffic) or a bare :class:`DecisionBatcher` (repair requests form
    one direct wave).  Attaching to a loop also registers
    :attr:`health` so ``loop.health_snapshot()`` reports the churn
    counters next to the pool's.
    """

    def __init__(self, serving: Union[ServingLoop, DecisionBatcher],
                 repairer: PlacementRepairer | None = None):
        if isinstance(serving, ServingLoop):
            self.loop: ServingLoop | None = serving
            self.batcher = serving.batcher
        else:
            self.loop = None
            self.batcher = serving
        self.repairer = repairer or PlacementRepairer(
            self.batcher.model, self.batcher.objective)
        self.health = ChurnHealth()
        if self.loop is not None:
            self.loop.churn_health = self.health
        self._deployments: dict[int, Deployment] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def track(self, plan: "QueryPlan", cluster: "Cluster",
              placement, selectivities: dict[str, float] | None = None,
              n_candidates: int = 30, seed: int = 0) -> int:
        """Register one live deployment; returns its id.

        ``placement`` may be a :class:`Placement` or a
        :class:`~repro.placement.optimizer.PlacementDecision`.
        """
        if isinstance(placement, PlacementDecision):
            placement = placement.placement
        deployment_id = self._next_id
        self._next_id += 1
        self._deployments[deployment_id] = Deployment(
            deployment_id, plan, cluster, placement,
            selectivities, n_candidates, seed)
        return deployment_id

    def untrack(self, deployment_id: int) -> None:
        self._deployments.pop(deployment_id, None)

    def placement_of(self, deployment_id: int) -> "Placement":
        return self._deployments[deployment_id].placement

    @property
    def deployments(self) -> list[Deployment]:
        return list(self._deployments.values())

    # ------------------------------------------------------------------
    def observe(self, cluster: "Cluster", event: ChurnEvent
                ) -> tuple[ChurnRecord, dict[int, RepairOutcome]]:
        """Apply one churn event and repair the affected deployments.

        Returns the applied :class:`ChurnRecord` and a map from
        deployment id to its :class:`RepairOutcome` (empty when the
        event touched no tracked placement).
        """
        record = apply_event(cluster, event)
        self.health.churn_events += 1
        if not record.applied:
            self.health.skipped_events += 1
            return record, {}
        kind_counter = {"join": "joins", "leave": "leaves",
                        "fail": "fails", "degrade": "degrades"}
        setattr(self.health, kind_counter[event.kind],
                getattr(self.health, kind_counter[event.kind]) + 1)
        if event.kind == "join":
            # New capacity invalidates nothing placed; deployments
            # keep their hosts (re-optimization on join is a policy
            # choice left to callers).
            return record, {}
        return record, self._repair_affected(cluster, {record.node_id})

    def play(self, cluster: "Cluster", plan: ChurnPlan
             ) -> tuple[list[ChurnRecord], dict[int, RepairOutcome]]:
        """Apply a whole churn plan, repairing after every event.

        Returns all records plus each deployment's *latest* repair
        outcome.
        """
        records: list[ChurnRecord] = []
        outcomes: dict[int, RepairOutcome] = {}
        for event in plan.events:
            record, event_outcomes = self.observe(cluster, event)
            records.append(record)
            outcomes.update(event_outcomes)
        return records, outcomes

    # ------------------------------------------------------------------
    def _repair_affected(self, cluster: "Cluster",
                         affected_nodes: set[str]
                         ) -> dict[int, RepairOutcome]:
        """Re-place every tracked deployment touching affected hosts.

        All affected deployments' repair candidates are scored through
        the serving loop (one request at a time) or the batcher (in
        ONE wave), then the winning placements are written back to the
        deployments.
        """
        repairer = self.repairer
        pending: list[tuple[Deployment, dict, int]] = []
        requests: list[DecisionRequest] = []
        outcomes: dict[int, RepairOutcome] = {}
        for deployment in self._deployments.values():
            if deployment.cluster is not cluster:
                continue
            used = set(deployment.placement.assignment.values())
            if not (used & affected_nodes):
                continue
            candidates, meta = repairer.repair_candidates(
                deployment.plan, cluster, deployment.placement,
                affected_nodes, n_candidates=deployment.n_candidates,
                seed=deployment.seed)
            if len(candidates) == 0:
                # No feasible incremental repair: full re-placement,
                # recorded (never raised), still through the wave.
                self.health.infeasible += 1
                requests.append(DecisionRequest(
                    plan=deployment.plan, cluster=cluster,
                    n_candidates=deployment.n_candidates,
                    selectivities=deployment.selectivities,
                    seed=deployment.seed))
                pending.append((deployment, meta, 0))
            else:
                requests.append(DecisionRequest(
                    plan=deployment.plan, cluster=cluster,
                    n_candidates=deployment.n_candidates,
                    selectivities=deployment.selectivities,
                    seed=deployment.seed, candidates=candidates))
                pending.append((deployment, meta, len(candidates)))
        if not requests:
            return outcomes
        decisions = self._decide_wave(requests)
        for (deployment, meta, n_pinned_cands), decision in zip(
                pending, decisions):
            incremental = n_pinned_cands > 0
            if incremental:
                self.health.repairs += 1
            else:
                self.health.full_replacements += 1
            self.health.replaced_deployments += 1
            n_ops = len(deployment.plan)
            outcomes[deployment.deployment_id] = RepairOutcome(
                decision=decision,
                repaired_ops=meta["repair_ops"],
                pinned_ops=meta["pinned_ops"] if incremental else (),
                full_replacement=not incremental,
                feasible=incremental,
                candidates_enumerated=decision.candidates_evaluated,
                ops_sampled=decision.candidates_evaluated
                * (len(meta["repair_ops"]) if incremental else n_ops))
            deployment.placement = decision.placement
        return outcomes

    def _decide_wave(self, requests: list[DecisionRequest]
                     ) -> list[PlacementDecision]:
        if self.loop is not None:
            futures = [self.loop.submit(request, block=True)
                       for request in requests]
            return [future.result() for future in futures]
        return self.batcher.decide(requests)
