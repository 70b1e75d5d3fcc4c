"""Cost-based placement selection (paper Section V, Fig. 4).

The optimizer enumerates heuristic placement candidates, predicts every
candidate's costs with COSTREAM, discards candidates predicted to fail
or to be backpressured (majority vote over the ensemble), and returns
the candidate with the best predicted target metric (ensemble mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # avoid a circular import; only needed for typing
    from ..core.costream import Costream
from ..core.graph import GraphBatch
from ..hardware.cluster import Cluster
from ..hardware.placement import IndexCandidates, Placement
from ..query.plan import QueryPlan
from .enumeration import HeuristicPlacementEnumerator

__all__ = ["PlacementDecision", "PlacementOptimizer"]

#: Metrics where larger is better; everything else is minimized.
_MAXIMIZE = ("throughput",)


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of one placement optimization."""

    placement: Placement
    predicted_objective: float
    objective: str
    candidates_evaluated: int
    feasible_candidates: int

    @property
    def fallback(self) -> bool:
        """True when no candidate passed the success/backpressure gate
        and the optimizer fell back to the best objective overall."""
        return self.feasible_candidates == 0


class PlacementOptimizer:
    """Selects an initial operator placement using a cost model."""

    def __init__(self, model: "Costream",
                 objective: str = "processing_latency"):
        if objective not in model.metrics:
            raise ValueError(
                f"model has no ensemble for objective {objective!r}")
        self.model = model
        self.objective = objective

    # ------------------------------------------------------------------
    def optimize(self, plan: QueryPlan, cluster: Cluster,
                 n_candidates: int = 30,
                 selectivities: dict[str, float] | None = None,
                 enumerator: HeuristicPlacementEnumerator | None = None,
                 seed: int = 0) -> PlacementDecision:
        """Pick the best placement among heuristic candidates."""
        enumerator = enumerator or HeuristicPlacementEnumerator(cluster,
                                                                seed=seed)
        candidates = enumerator.enumerate_indices(plan, n_candidates)
        if not candidates:
            raise ValueError("placement enumeration yielded no candidates")
        return self.choose(plan, cluster, candidates, selectivities)

    def choose(self, plan: QueryPlan, cluster: Cluster,
               candidates: Sequence[Placement] | IndexCandidates,
               selectivities: dict[str, float] | None = None,
               host_features: dict[str, np.ndarray] | None = None
               ) -> PlacementDecision:
        """Score ``candidates`` and return the decision among them.

        Every placement decision is built here: :meth:`optimize`, the
        serving batcher, incremental repair and the reordering
        optimizer all hand their candidates to this method.  The plan
        and hosts are featurized once and the candidates collated
        straight into batches shared by every metric ensemble (index
        matrices skip per-candidate string dicts); only the winning
        candidate is materialized as a string :class:`Placement`.
        ``host_features`` passes hosts already featurized by
        :func:`repro.core.graph.featurize_hosts`, for callers that
        score several plans on one cluster.
        """
        batches = self.model.collate_placements(
            plan, candidates, cluster, selectivities,
            host_features=host_features)
        objective_values, feasible = self.score(batches)
        best, n_feasible = self.select(objective_values, feasible)
        return PlacementDecision(
            placement=candidates[best],
            predicted_objective=float(objective_values[best]),
            objective=self.objective,
            candidates_evaluated=len(candidates),
            feasible_candidates=n_feasible)

    # ------------------------------------------------------------------
    def score(self, batches: list[GraphBatch]
              ) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate (objective values, feasibility) over batches.

        Accepts pre-collated batches (or raw graphs), so one collation
        serves the objective and both feasibility metrics.
        """
        return (self.model.predict_metric(self.objective, batches),
                self._feasibility_mask(batches))

    def select(self, objective_values: np.ndarray,
               feasible: np.ndarray) -> tuple[int, int]:
        """Pick the best candidate index and count the feasible ones.

        Feasible candidates win on the objective; with none feasible,
        the best objective overall is the fallback.  Vectorized: the
        first feasible position of the argsort order is found by
        masked ``argmax`` instead of a Python scan — same sort, so the
        tie-break order is identical to the original list comprehension
        (``--profile`` micro-benchmarks both).
        """
        order = np.argsort(objective_values)
        if self.objective in _MAXIMIZE:
            order = order[::-1]
        n_feasible = int(np.count_nonzero(feasible))
        if n_feasible:
            best = int(order[np.argmax(feasible[order])])
        else:
            best = int(order[0])
        return best, n_feasible

    # ------------------------------------------------------------------
    def _feasibility_mask(self, batches: list[GraphBatch]) -> np.ndarray:
        """Success AND no-backpressure, via ensemble majority vote.

        Accepts pre-collated batches (or raw graphs) so one collation
        serves both feasibility metrics and the objective.
        """
        n_graphs = sum(b.n_graphs for b in batches) \
            if batches and isinstance(batches[0], GraphBatch) \
            else len(batches)
        feasible = np.ones(n_graphs, dtype=bool)
        if "success" in self.model.metrics:
            feasible &= self.model.predict_metric("success",
                                                  batches) >= 0.5
        if "backpressure" in self.model.metrics:
            feasible &= self.model.predict_metric("backpressure",
                                                  batches) < 0.5
        return feasible
