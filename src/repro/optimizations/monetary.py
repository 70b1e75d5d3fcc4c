"""Monetary cost of placements (paper Section IX outlook).

The paper names "predicting monetary costs" for cloud deployments as a
natural extension.  Unlike the performance metrics, the dollar cost of
a placement is *analytically* determined before execution once the
logical rates are known: you pay for the machines you occupy and for
the bytes that cross the network out of each host.

:class:`MonetaryCostEstimator` combines a cloud-style :class:`PriceModel`
with the plan's rate annotations (using *estimated* selectivities, as
everywhere pre-execution) and plugs into placement selection: find the
cheapest placement whose predicted performance is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..core.costream import Costream
from ..hardware.cluster import Cluster
from ..hardware.placement import Placement
from ..placement.enumeration import HeuristicPlacementEnumerator
from ..placement.optimizer import PlacementOptimizer
from ..query.operators import OperatorKind, with_selectivity
from ..query.plan import QueryPlan

__all__ = ["PriceModel", "MonetaryCostEstimator", "BudgetDecision",
           "BudgetedPlacementOptimizer"]


@dataclass(frozen=True)
class PriceModel:
    """Cloud-style prices, loosely modeled on on-demand VM pricing."""

    cpu_dollars_per_core_hour: float = 0.04
    ram_dollars_per_gb_hour: float = 0.005
    egress_dollars_per_gb: float = 0.08

    def node_dollars_per_hour(self, cpu: float, ram_mb: float) -> float:
        cores = cpu / 100.0
        return (cores * self.cpu_dollars_per_core_hour
                + ram_mb / 1000.0 * self.ram_dollars_per_gb_hour)


class MonetaryCostEstimator:
    """Pre-execution dollar-cost estimates for placements."""

    def __init__(self, prices: PriceModel | None = None):
        self.prices = prices or PriceModel()

    def hourly_cost(self, plan: QueryPlan, placement: Placement,
                    cluster: Cluster,
                    selectivities: dict[str, float] | None = None
                    ) -> float:
        """Dollars per hour of running this placement."""
        effective = _with_estimated_selectivities(plan, selectivities)
        annotations = effective.annotations()

        machine = sum(
            self.prices.node_dollars_per_hour(cluster.node(n).cpu,
                                              cluster.node(n).ram_mb)
            for n in placement.used_nodes())

        egress_bytes_per_s = 0.0
        for parent, child in effective.edges:
            if placement.node_of(parent) == placement.node_of(child):
                continue
            annotation = annotations[parent]
            egress_bytes_per_s += annotation.output_rate \
                * annotation.output_schema.bytes
        egress = egress_bytes_per_s * 3600.0 / 1e9 \
            * self.prices.egress_dollars_per_gb
        return machine + egress

    def cost_per_million_tuples(self, plan: QueryPlan,
                                placement: Placement, cluster: Cluster,
                                selectivities: dict[str, float] | None
                                = None) -> float:
        """Dollars per million result tuples (normalized efficiency)."""
        effective = _with_estimated_selectivities(plan, selectivities)
        out_rate = effective.output_rate()
        hourly = self.hourly_cost(plan, placement, cluster, selectivities)
        tuples_per_hour = max(out_rate * 3600.0, 1e-9)
        return hourly / tuples_per_hour * 1e6


@dataclass(frozen=True)
class BudgetDecision:
    """Cheapest placement predicted to run acceptably."""

    placement: Placement
    hourly_dollars: float
    predicted_latency_ms: float
    candidates_evaluated: int
    feasible_candidates: int


class BudgetedPlacementOptimizer:
    """Minimize dollars subject to predicted-performance feasibility.

    A candidate is feasible when the cost model predicts success, no
    backpressure, and (optionally) a processing latency below
    ``latency_budget_ms``.  Among feasible candidates the cheapest one
    wins; with none feasible, the best-latency candidate is returned.
    """

    def __init__(self, model: "Costream",
                 estimator: MonetaryCostEstimator | None = None,
                 latency_budget_ms: float | None = None):
        self.model = model
        self.estimator = estimator or MonetaryCostEstimator()
        self.latency_budget_ms = latency_budget_ms
        self._latency_optimizer = PlacementOptimizer(model,
                                                     "processing_latency")

    def optimize(self, plan: QueryPlan, cluster: Cluster,
                 n_candidates: int = 30,
                 selectivities: dict[str, float] | None = None,
                 seed: int = 0) -> BudgetDecision:
        enumerator = HeuristicPlacementEnumerator(cluster, seed=seed)
        candidates = enumerator.enumerate(plan, n_candidates)
        # One plan featurization and one collation serve all three
        # metric predictions (see PERFORMANCE.md).
        batches = self.model.collate_placements(plan, candidates, cluster,
                                                selectivities)
        latency, feasible = self._latency_optimizer.score(batches)
        if self.latency_budget_ms is not None:
            feasible &= latency <= self.latency_budget_ms

        dollars = np.asarray([
            self.estimator.hourly_cost(plan, c, cluster, selectivities)
            for c in candidates])
        if feasible.any():
            choice = int(np.nonzero(feasible)[0][
                np.argmin(dollars[feasible])])
        else:
            choice = int(np.argmin(latency))
        return BudgetDecision(
            placement=candidates[choice],
            hourly_dollars=float(dollars[choice]),
            predicted_latency_ms=float(latency[choice]),
            candidates_evaluated=len(candidates),
            feasible_candidates=int(feasible.sum()))


def _with_estimated_selectivities(plan: QueryPlan,
                                  selectivities: dict[str, float] | None
                                  ) -> QueryPlan:
    """Plan copy whose selective operators carry the estimates."""
    if not selectivities:
        return plan
    operators = []
    for op_id, operator in plan.operators.items():
        if op_id in selectivities and operator.kind in (
                OperatorKind.FILTER, OperatorKind.AGGREGATE,
                OperatorKind.JOIN):
            operators.append(with_selectivity(operator,
                                              selectivities[op_id]))
        else:
            operators.append(operator)
    return QueryPlan(operators, plan.edges, name=plan.name)
