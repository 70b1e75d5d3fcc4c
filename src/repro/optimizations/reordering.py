"""Cost-based operator reordering (paper Section IX outlook, ref [19]).

The paper positions COSTREAM as a building block for classic streaming
optimizations beyond placement.  The canonical one is *filter
reordering* (Hirzel et al.'s catalog [19]): consecutive commutative
filters can run in any order; executing the most selective one first
minimizes the work downstream filters see.

:class:`ReorderingOptimizer` enumerates the permutations of every
filter chain in a plan, and picks the (rewritten plan, placement) pair
with the best predicted cost — placement and ordering are optimized
*jointly*, exactly the kind of compound decision a learned cost model
enables offline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.costream import Costream
from ..core.graph import collate_chunks, featurize_hosts
from ..hardware.cluster import Cluster
from ..placement.enumeration import HeuristicPlacementEnumerator
from ..placement.optimizer import _MAXIMIZE, PlacementOptimizer
from ..query.operators import OperatorKind
from ..query.plan import QueryPlan

__all__ = ["enumerate_filter_orders", "ReorderingDecision",
           "ReorderingOptimizer"]

#: Permutation cap per chain: chains are short (<= 4 filters in the
#: corpus), but guard against pathological inputs.
_MAX_PERMUTATIONS = 24


def _filter_chains(plan: QueryPlan) -> list[list[str]]:
    """Maximal runs of consecutive filter operators."""
    chains: list[list[str]] = []
    seen: set[str] = set()
    for op_id in plan.topological_order():
        if plan.operator(op_id).kind is not OperatorKind.FILTER:
            continue
        if op_id in seen:
            continue
        chain = [op_id]
        seen.add(op_id)
        current = op_id
        while True:
            children = plan.children(current)
            if len(children) != 1:
                break
            child = children[0]
            if plan.operator(child).kind is not OperatorKind.FILTER:
                break
            chain.append(child)
            seen.add(child)
            current = child
        chains.append(chain)
    return chains


def _reorder_chain(plan: QueryPlan, chain: list[str],
                   order: tuple[str, ...]) -> QueryPlan:
    """Rewrite one chain into the given operator order."""
    if list(order) == chain:
        return plan
    head_parents = plan.parents(chain[0])
    tail_children = plan.children(chain[-1])
    inside = set(chain)
    edges = [(a, b) for a, b in plan.edges
             if a not in inside and b not in inside]
    previous = head_parents[0] if head_parents else None
    for op_id in order:
        if previous is not None:
            edges.append((previous, op_id))
        previous = op_id
    for child in tail_children:
        edges.append((previous, child))
    return QueryPlan(list(plan.operators.values()), edges,
                     name=plan.name)


def enumerate_filter_orders(plan: QueryPlan,
                            max_rewrites: int = 16) -> list[QueryPlan]:
    """All plans reachable by permuting filter chains (incl. original).

    Chains are permuted independently; the cartesian product is capped
    at ``max_rewrites`` plans (original order first).
    """
    chains = [c for c in _filter_chains(plan) if len(c) > 1]
    if not chains:
        return [plan]
    per_chain = [list(itertools.islice(itertools.permutations(chain),
                                       _MAX_PERMUTATIONS))
                 for chain in chains]
    rewrites: list[QueryPlan] = []
    for combo in itertools.product(*per_chain):
        rewritten = plan
        for chain, order in zip(chains, combo):
            rewritten = _reorder_chain(rewritten, chain, order)
        rewrites.append(rewritten)
        if len(rewrites) >= max_rewrites:
            break
    return rewrites


@dataclass(frozen=True)
class ReorderingDecision:
    """Best (plan, placement) pair found by joint optimization."""

    plan: QueryPlan
    placement: object
    predicted_objective: float
    rewrites_evaluated: int
    reordered: bool


class ReorderingOptimizer:
    """Jointly optimizes filter order and operator placement.

    The hosts are featurized once per cluster; each rewrite's
    candidates are then decided by
    :meth:`~repro.placement.PlacementOptimizer.choose` (collated
    straight into batches, no per-ordering
    :class:`~repro.core.graph.QueryGraph` objects), and the best
    rewrite's decision wins.  Predictions — and therefore the chosen
    (plan, placement) pair — are identical to the per-rewrite
    graph-object path retained as :meth:`optimize_reference`
    (equivalence is tested).
    """

    def __init__(self, model: "Costream",
                 objective: str = "processing_latency"):
        self.model = model
        self.objective = objective
        self._placement_optimizer = PlacementOptimizer(model, objective)

    def _enumerate_rewrites(self, plan: QueryPlan, cluster: Cluster,
                            n_candidates: int, seed: int
                            ) -> tuple[list[QueryPlan], list[list]]:
        """Rewrites and their per-rewrite placement candidates.

        Every rewrite draws from its own enumerator seeded ``seed +
        index`` — the exact sequence the per-rewrite reference path
        uses.  Candidates come out index-native
        (:class:`~repro.hardware.IndexCandidates`); only chosen
        placements materialize as strings.
        """
        rewrites = enumerate_filter_orders(plan)
        candidates = []
        for index, rewrite in enumerate(rewrites):
            enumerator = HeuristicPlacementEnumerator(cluster,
                                                      seed=seed + index)
            cands = enumerator.enumerate_indices(rewrite, n_candidates)
            if not cands:
                # Same guard PlacementOptimizer.optimize applies.
                raise ValueError(
                    "placement enumeration yielded no candidates")
            candidates.append(cands)
        return rewrites, candidates

    def _select_rewrite(self, rewrites: list[QueryPlan], picks: list,
                        original: QueryPlan) -> ReorderingDecision:
        """The decision over each rewrite's ``(objective, feasible
        candidates, placement)`` pick.

        A rewrite with a candidate predicted to succeed without
        backpressure beats one without; among those, the better
        objective wins, and ties keep the earlier rewrite (the
        original order comes first).
        """
        sign = -1.0 if self.objective in _MAXIMIZE else 1.0
        best = min(range(len(picks)),
                   key=lambda i: (picks[i][1] == 0, sign * picks[i][0]))
        objective, _, placement = picks[best]
        return ReorderingDecision(
            plan=rewrites[best], placement=placement,
            predicted_objective=objective,
            rewrites_evaluated=len(rewrites),
            reordered=rewrites[best].edges != original.edges)

    def optimize(self, plan: QueryPlan, cluster: Cluster,
                 n_candidates: int = 20,
                 selectivities: dict[str, float] | None = None,
                 seed: int = 0) -> ReorderingDecision:
        """Pick the rewrite+placement with the best predicted cost."""
        rewrites, candidates = self._enumerate_rewrites(
            plan, cluster, n_candidates, seed)
        host_features = (featurize_hosts(cluster, self.model.featurizer)
                         if self.model.featurizer.mode != "query_only"
                         else None)
        decisions = [self._placement_optimizer.choose(
                         rewrite, cluster, cands, selectivities,
                         host_features=host_features)
                     for rewrite, cands in zip(rewrites, candidates)]
        return self._select_rewrite(
            rewrites, [(d.predicted_objective, d.feasible_candidates,
                        d.placement) for d in decisions], plan)

    def optimize_reference(self, plan: QueryPlan, cluster: Cluster,
                           n_candidates: int = 20,
                           selectivities: dict[str, float] | None = None,
                           seed: int = 0) -> ReorderingDecision:
        """The per-ordering graph-object path, kept as the executable
        reference for :meth:`optimize`.

        Builds one :class:`~repro.core.graph.QueryGraph` per candidate
        of every rewrite and scores each rewrite separately;
        predictions and the final decision must match :meth:`optimize`
        exactly (see ``tests/test_ensemble_batched.py``).
        """
        rewrites, candidates = self._enumerate_rewrites(
            plan, cluster, n_candidates, seed)
        batch_size = self.model.config.batch_size
        optimizer = self._placement_optimizer
        picks = []
        for rewrite, cands in zip(rewrites, candidates):
            graphs = self.model.build_graphs(rewrite, cands, cluster,
                                             selectivities)
            values, feasible = optimizer.score(
                collate_chunks(graphs, batch_size))
            chosen, n_feasible = optimizer.select(values, feasible)
            picks.append((float(values[chosen]), n_feasible,
                          cands[chosen]))
        return self._select_rewrite(rewrites, picks, plan)
