"""Placement serving: waves of independent decisions.

:class:`DecisionBatcher` serves a *wave* of ``(plan, cluster)``
requests as a loop of the sequential decision: enumerate (or check)
every request's candidates, then decide each request on its own
through :meth:`repro.placement.PlacementOptimizer.choose`.  Clusters
shared across requests featurize their hosts once per wave.  Requests
are never scored together: a wave that fused its requests' batches
ran slower than deciding them one by one (PERFORMANCE.md §8), and the
fusion code is gone.

Guarantees (see PERFORMANCE.md):

* float64 wave decisions — chosen placements, objective values,
  feasibility counts — are **bitwise identical** to sequential
  ``optimize`` calls with the same per-request seeds;
* under :class:`repro.nn.float32_inference` the whole wave runs
  float32 end-to-end (featurization, collation, GEMMs) within the
  documented decision-level tolerance;
* every request's pre-enumerated candidates are checked against its
  plan and cluster before any request is scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # avoid a circular import; only needed for typing
    from ..core.costream import Costream
from ..core.graph import featurize_hosts
from ..hardware.cluster import Cluster
from ..hardware.placement import IndexCandidates, Placement
from ..placement.enumeration import HeuristicPlacementEnumerator
from ..placement.optimizer import PlacementDecision, PlacementOptimizer
from ..query.plan import QueryPlan

__all__ = ["DecisionRequest", "DecisionBatcher"]


@dataclass(frozen=True)
class DecisionRequest:
    """One placement decision to serve.

    Mirrors the :meth:`PlacementOptimizer.optimize` signature; a
    request with the same ``(plan, cluster, n_candidates, seed)``
    resolves to the same decision the sequential call would make.
    ``candidates`` optionally supplies pre-enumerated placements
    (experiment drivers that need the enumeration drawn from a shared
    RNG stream) — a tuple of :class:`Placement` or an index-native
    :class:`~repro.hardware.IndexCandidates` matrix; the enumerator is
    skipped then.  They must be non-empty, place exactly the plan's
    operators and use only the cluster's nodes, or
    :meth:`DecisionBatcher.decide` raises :class:`ValueError`.
    """

    plan: QueryPlan
    cluster: Cluster
    n_candidates: int = 30
    selectivities: dict[str, float] | None = None
    seed: int = 0
    candidates: "Sequence[Placement] | IndexCandidates | None" = None


class DecisionBatcher:
    """Serves waves of independent placement decisions.

    One instance wraps one :class:`~repro.core.costream.Costream` and
    objective, like :class:`~repro.placement.PlacementOptimizer`, and
    decides every request through that optimizer, so decisions are
    identical.
    """

    def __init__(self, model: "Costream",
                 objective: str = "processing_latency"):
        self.model = model
        self.objective = objective
        self._optimizer = PlacementOptimizer(model, objective)

    # ------------------------------------------------------------------
    def decide(self, requests: Iterable[DecisionRequest]
               ) -> list[PlacementDecision]:
        """Serve one wave of decisions (order matches the requests).

        Every request's pre-enumerated candidates are checked before
        any request is scored; then each request is decided on its own
        by :meth:`PlacementOptimizer.choose`, exactly as
        :meth:`PlacementOptimizer.optimize` decides it.
        """
        requests = list(requests)
        candidates = [self._candidates_for(request)
                      for request in requests]
        host_cache: dict[tuple, dict[str, np.ndarray]] = {}
        return [self._optimizer.choose(
                    request.plan, request.cluster, cands,
                    request.selectivities,
                    host_features=self._host_features(request.cluster,
                                                      host_cache))
                for request, cands in zip(requests, candidates)]

    def _host_features(self, cluster: Cluster, cache: dict
                       ) -> dict[str, np.ndarray] | None:
        """The cluster's host features, featurized once per wave."""
        if self.model.featurizer.mode == "query_only":
            return None
        # Keyed on (cluster, version): clusters mutate under churn, and
        # a degrade keeps ids — identity alone would serve pre-mutation
        # host features.
        key = (id(cluster), getattr(cluster, "version", 0))
        features = cache.get(key)
        if features is None:
            features = cache[key] = featurize_hosts(cluster,
                                                    self.model.featurizer)
        return features

    # ------------------------------------------------------------------
    def _candidates_for(self, request: DecisionRequest
                        ) -> "Sequence[Placement]":
        """Enumerate exactly as the sequential ``optimize`` would.

        Index-native: enumeration produces an
        :class:`~repro.hardware.IndexCandidates` matrix that flows
        straight into vectorized collation; only chosen placements are
        materialized as strings (in the decisions).

        Pre-enumerated candidates are checked first: collation would
        otherwise fail deep inside numpy or graph construction, or score
        a placement that leaves operators unplaced.  Raises
        :class:`ValueError` (a :class:`~repro.hardware.PlacementError`
        naming the operators or nodes at fault) when they are empty,
        do not place exactly the plan's operators, or use a node the
        request's cluster lacks.
        """
        if request.candidates is not None:
            cands = request.candidates
            if isinstance(cands, IndexCandidates):
                checked = (cands,)  # one check covers every row
            else:
                cands = checked = list(cands)
            if len(cands) == 0:
                raise ValueError("pre-enumerated candidates are empty")
            for candidate in checked:
                candidate.validate(request.plan, request.cluster)
            return cands
        enumerator = HeuristicPlacementEnumerator(request.cluster,
                                                  seed=request.seed)
        cands = enumerator.enumerate_indices(request.plan,
                                             request.n_candidates)
        if not cands:
            raise ValueError("placement enumeration yielded no candidates")
        return cands
