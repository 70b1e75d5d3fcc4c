"""Mega-batched placement serving: many decisions, one ensemble pass.

A single :meth:`repro.placement.PlacementOptimizer.optimize` call pays
featurization, collation and the `3 metrics x K members` ensemble
dispatch for its ~30 candidates.  Streams of independent decisions
(experiment sweeps, deployment traffic) used to pay that per decision;
:class:`DecisionBatcher` pays it once per *wave*: every request's
candidate batch is fused into one mega-batch
(:func:`repro.core.graph.merge_batches`), each cost metric runs ONE
batched-GEMM :class:`~repro.core.model.MemberStack` forward over the
whole wave, and per-request argmins are scattered back out.

Guarantees (see PERFORMANCE.md):

* float64 wave decisions — chosen placements, per-candidate objective
  values, feasibility masks — are **bitwise identical** to sequential
  ``optimize`` calls with the same per-request seeds;
* under :class:`repro.nn.float32_inference` the whole wave runs
  float32 end-to-end (featurization, collation, GEMMs) within the
  documented decision-level tolerance;
* configurations the mega-batch cannot serve exactly (legacy kernels,
  the ``traditional`` scheme, single-graph candidate batches) fall
  back to per-request scoring with identical results;
* pre-enumerated candidates are checked against their request's plan
  and cluster before any of them is scored.
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
    objective, like :class:`~repro.placement.PlacementOptimizer` — and
    reuses its candidate selection, so decisions are identical.  Every
    wave runs in-process.
    """

    def __init__(self, model: "Costream",
                 objective: str = "processing_latency"):
        self.model = model
        self.objective = objective
        self._optimizer = PlacementOptimizer(model, objective)

    # ------------------------------------------------------------------
    def decide(self, requests: Iterable[DecisionRequest]
               ) -> list[PlacementDecision]:
        """Serve one wave of decisions (order matches the requests):
        one mega-batch, one pass per metric."""
        requests = list(requests)
        if not requests:
            return []
        candidates = [self._candidates_for(request)
                      for request in requests]
        values, feasible, bounds = self.score_wave(requests, candidates)
        decisions = []
        for index, request in enumerate(requests):
            lo, hi = bounds[index], bounds[index + 1]
            best, n_feasible = self._optimizer.select(values[lo:hi],
                                                      feasible[lo:hi])
            decisions.append(PlacementDecision(
                placement=candidates[index][best],
                predicted_objective=float(values[lo + best]),
                objective=self.objective,
                candidates_evaluated=len(candidates[index]),
                feasible_candidates=n_feasible))
        return decisions

    # ------------------------------------------------------------------
    def score_wave(self, requests: Sequence[DecisionRequest],
                   candidates: Sequence[Sequence[Placement]]
                   ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Joint (objective values, feasibility, request bounds).

        Collates each request's candidates (plan and hosts featurized
        once per request — clusters shared across requests featurize
        once per wave), fuses everything into one mega-batch when the
        model supports it, and runs each metric ensemble exactly once.
        ``bounds[i]:bounds[i+1]`` is request ``i``'s slice of the flat
        arrays.
        """
        model = self.model
        host_cache: dict[tuple, dict[str, np.ndarray]] = {}
        batches = []
        for request, cands in zip(requests, candidates):
            host_features = None
            if model.featurizer.mode != "query_only":
                # Keyed on (cluster, version): clusters mutate under
                # churn, and a degrade keeps ids — identity alone
                # would serve pre-mutation host features.
                key = (id(request.cluster),
                       getattr(request.cluster, "version", 0))
                host_features = host_cache.get(key)
                if host_features is None:
                    host_features = featurize_hosts(request.cluster,
                                                    model.featurizer)
                    host_cache[key] = host_features
            batches.append(model.collate_placements(
                request.plan, cands, request.cluster,
                request.selectivities, host_features=host_features))
        flat = [batch for request_batches in batches
                for batch in request_batches]
        merged = model.merged_inference_batches(flat)
        values, feasible = self._optimizer.score(merged)
        bounds = [0]
        for cands in candidates:
            bounds.append(bounds[-1] + len(cands))
        return values, feasible, bounds

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
