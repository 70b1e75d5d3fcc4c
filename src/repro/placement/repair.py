"""Incremental re-placement after cluster churn.

A churn event (host lost or degraded) invalidates part of a live
:class:`~repro.hardware.placement.Placement`, not all of it.  The
*repair set* is the operators the event actually touched — those
assigned to an affected host, plus the operators whose data-flow links
crossed it (their direct parents and children, so both endpoints of
every broken link may move).  Every other operator stays pinned to its
current host and
:meth:`~repro.placement.enumeration.HeuristicPlacementEnumerator.
enumerate_indices` samples candidates for the repair set alone —
strictly less enumeration work than a from-scratch re-placement, and
bitwise deterministic under a fixed seed.  Candidates are decided by
:meth:`~repro.placement.optimizer.PlacementOptimizer.choose`, the
method behind
:meth:`~repro.placement.optimizer.PlacementOptimizer.optimize`.

When no rule-valid repair exists under the pinning (e.g. a degrade
demoted a host's capability bin below what the pinned neighborhood
requires), the repairer *records* a fall back to full re-placement —
it never raises for infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.cluster import Cluster
from ..hardware.placement import IndexCandidates, Placement
from ..query.plan import QueryPlan
from .enumeration import HeuristicPlacementEnumerator
from .optimizer import PlacementDecision, PlacementOptimizer

__all__ = ["RepairOutcome", "PlacementRepairer", "repair_set"]


def repair_set(plan: QueryPlan, placement: Placement,
               affected_nodes) -> tuple[str, ...]:
    """Operators to re-place after losing/degrading ``affected_nodes``.

    Directly-affected operators (assigned to an affected host) plus
    the operators whose links crossed an affected host — the direct
    parents and children of the affected operators.  Returned in the
    plan's topological order (deterministic).
    """
    affected = set(affected_nodes)
    direct = {op for op, node in placement.items() if node in affected}
    crossed = set(direct)
    for op_id in direct:
        crossed.update(plan.parents(op_id))
        crossed.update(plan.children(op_id))
    return tuple(op for op in plan.topological_order() if op in crossed)


@dataclass(frozen=True)
class RepairOutcome:
    """Result of one incremental repair attempt.

    ``full_replacement`` is True when the repair fell back to a
    from-scratch re-placement — either no rule-valid pinned candidate
    existed (``feasible`` False) or the repair set covered the whole
    plan anyway.  ``candidates_enumerated`` counts the distinct rows
    scored and ``ops_sampled`` the per-candidate RNG work (free
    operators only) — both strictly smaller than the full path's on a
    partial-loss event.
    """

    decision: PlacementDecision
    repaired_ops: tuple[str, ...]
    pinned_ops: tuple[str, ...]
    full_replacement: bool
    feasible: bool
    candidates_enumerated: int
    ops_sampled: int

    @property
    def placement(self) -> Placement:
        return self.decision.placement

    @property
    def objective(self) -> float:
        return self.decision.predicted_objective


class PlacementRepairer:
    """Repairs live placements through the index-native scoring path.

    One instance wraps one :class:`~repro.core.costream.Costream` and
    objective, like :class:`PlacementOptimizer` — repairs select among
    pinned candidates with the exact machinery ``optimize`` uses, so a
    repair decision is bitwise reproducible under a fixed seed.
    """

    def __init__(self, model, objective: str = "processing_latency"):
        self.model = model
        self.objective = objective
        self._optimizer = PlacementOptimizer(model, objective)

    # ------------------------------------------------------------------
    def repair_candidates(self, plan: QueryPlan, cluster: Cluster,
                          placement: Placement, affected_nodes,
                          n_candidates: int = 30, seed: int = 0,
                          repair_ops: tuple[str, ...] | None = None
                          ) -> tuple[IndexCandidates, dict]:
        """Rule-valid candidates with non-affected operators pinned.

        Returns ``(candidates, meta)``; zero candidates means no
        feasible incremental repair exists under the pinning (the
        caller falls back to full re-placement).  ``repair_ops``
        overrides the computed repair set (tests, custom policies).
        """
        if repair_ops is None:
            repair_ops = repair_set(plan, placement, affected_nodes)
        repairing = set(repair_ops)
        node_index = {n: i for i, n in enumerate(cluster.node_ids)}
        pinned: dict[str, int] = {}
        pinnable = True
        for op_id, node in placement.items():
            if op_id in repairing:
                continue
            index = node_index.get(node)
            if index is None:
                # A pinned host vanished without entering the repair
                # set (stacked events): the pinning is unusable.
                pinnable = False
                break
            pinned[op_id] = index
        meta = {"repair_ops": tuple(repair_ops),
                "pinned_ops": tuple(op for op in plan.topological_order()
                                    if op in pinned),
                "pinnable": pinnable}
        if not pinnable or not pinned:
            empty = IndexCandidates(
                [], tuple(plan.topological_order()),
                tuple(cluster.node_ids))
            return empty, meta
        enumerator = HeuristicPlacementEnumerator(cluster, seed=seed)
        candidates = enumerator.enumerate_indices(
            plan, n_candidates, pinned=pinned, require_valid=True)
        return candidates, meta

    # ------------------------------------------------------------------
    def repair(self, plan: QueryPlan, cluster: Cluster,
               placement: Placement, affected_nodes, *,
               n_candidates: int = 30, seed: int = 0,
               selectivities: dict[str, float] | None = None,
               repair_ops: tuple[str, ...] | None = None
               ) -> RepairOutcome:
        """Re-place the repair set; fall back to full re-placement.

        The incremental path decides among pinned candidates through
        :meth:`PlacementOptimizer.choose`, as
        :meth:`PlacementOptimizer.optimize` decides among full ones.
        With no rule-valid pinned candidate the fall back is recorded
        in the outcome (``full_replacement`` / ``feasible``), never
        raised.
        """
        candidates, meta = self.repair_candidates(
            plan, cluster, placement, affected_nodes,
            n_candidates=n_candidates, seed=seed, repair_ops=repair_ops)
        n_free = len(meta["repair_ops"])
        if len(candidates) == 0:
            decision = self._optimizer.optimize(
                plan, cluster, n_candidates=n_candidates,
                selectivities=selectivities, seed=seed)
            return RepairOutcome(
                decision=decision,
                repaired_ops=meta["repair_ops"],
                pinned_ops=meta["pinned_ops"],
                full_replacement=True,
                feasible=False,
                candidates_enumerated=decision.candidates_evaluated,
                ops_sampled=decision.candidates_evaluated * len(plan))
        decision = self._optimizer.choose(plan, cluster, candidates,
                                          selectivities)
        return RepairOutcome(
            decision=decision,
            repaired_ops=meta["repair_ops"],
            pinned_ops=meta["pinned_ops"],
            full_replacement=len(meta["pinned_ops"]) == 0,
            feasible=True,
            candidates_enumerated=len(candidates),
            ops_sampled=len(candidates) * n_free)
