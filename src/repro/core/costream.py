"""The COSTREAM facade: train once, predict costs for any placement."""

from __future__ import annotations

import numpy as np

from ..data.collection import QueryTrace
from ..hardware.cluster import Cluster
from ..hardware.placement import IndexCandidates, Placement
from ..query.plan import QueryPlan
from ..simulator.result import METRIC_NAMES, QueryMetrics
from .ensemble import MetricEnsemble
from .features import Featurizer
from .graph import (GraphBatch, QueryGraph, build_graph, collate,
                    collate_candidates, collate_chunks, featurize_hosts,
                    featurize_plan)
from .training import TrainingConfig

__all__ = ["Costream"]


class Costream:
    """Zero-shot learned cost model for streaming operator placement.

    One :class:`~repro.core.ensemble.MetricEnsemble` per cost metric,
    all sharing a featurization mode and training configuration::

        model = Costream(ensemble_size=3).fit(traces)
        predicted = model.predict(plan, placement, cluster)
        # predicted.processing_latency_ms, predicted.success, ...
    """

    def __init__(self, metrics: tuple[str, ...] = METRIC_NAMES,
                 ensemble_size: int = 1,
                 config: TrainingConfig | None = None,
                 featurizer: Featurizer | None = None, seed: int = 0):
        self.config = config or TrainingConfig()
        self.featurizer = featurizer or Featurizer()
        self.ensembles: dict[str, MetricEnsemble] = {
            metric: MetricEnsemble(metric, size=ensemble_size,
                                   config=self.config,
                                   featurizer=self.featurizer,
                                   seed=seed + 100_000 * i)
            for i, metric in enumerate(metrics)}

    @property
    def metrics(self) -> tuple[str, ...]:
        return tuple(self.ensembles)

    # ------------------------------------------------------------------
    def fit(self, traces: list[QueryTrace],
            val_traces: list[QueryTrace] | None = None) -> "Costream":
        """Train every metric ensemble on a trace corpus."""
        val_corpus = self._corpus(val_traces) if val_traces else None
        return self._train_metrics(self._corpus(traces), val_corpus)

    def fine_tune(self, traces: list[QueryTrace],
                  epochs: int = 15) -> "Costream":
        """Few-shot adaptation on a small extra corpus (Exp 5b)."""
        return self._train_metrics(self._corpus(traces), epochs=epochs)

    def _corpus(self, traces: list[QueryTrace]):
        """Featurize a trace corpus once for every metric ensemble."""
        # Imported here: repro.training builds on repro.core.
        from ..training.corpus import TrainingCorpus

        return TrainingCorpus.from_traces(traces, self.featurizer)

    def _train_metrics(self, corpus, val_corpus=None,
                       epochs: int | None = None) -> "Costream":
        """The shared fit/fine-tune loop over one featurized corpus.

        ``fit`` and ``fine_tune`` used to rebuild graphs and labels per
        call with near-identical code; both now thread one
        :class:`~repro.training.TrainingCorpus` (graphs built once,
        metric views cached) into every ensemble, differing only in
        the validation corpus and the epoch budget.
        """
        for metric, ensemble in self.ensembles.items():
            graphs, labels = corpus.metric_view(metric)
            if epochs is not None:
                ensemble.fine_tune(graphs, labels, epochs=epochs)
            elif val_corpus is not None:
                val_graphs, val_labels = val_corpus.metric_view(metric)
                ensemble.fit(graphs, labels, val_graphs, val_labels)
            else:
                ensemble.fit(graphs, labels)
        return self

    # ------------------------------------------------------------------
    def build_graph(self, plan: QueryPlan, placement: Placement,
                    cluster: Cluster,
                    selectivities: dict[str, float] | None = None
                    ) -> QueryGraph:
        return build_graph(plan, placement, cluster, self.featurizer,
                           selectivities)

    def build_graphs(self, plan: QueryPlan,
                     placements: list[Placement], cluster: Cluster,
                     selectivities: dict[str, float] | None = None
                     ) -> list[QueryGraph]:
        """Build graphs for many placements of one plan.

        Featurizes the plan's operators and the cluster's hosts exactly
        once and reuses them across every candidate — the fast path for
        placement optimization, where ~30 candidates share one plan.
        """
        plan_features = featurize_plan(plan, self.featurizer,
                                       selectivities)
        host_features = featurize_hosts(cluster, self.featurizer)
        return [build_graph(plan, placement, cluster, self.featurizer,
                            selectivities, plan_features=plan_features,
                            host_features=host_features)
                for placement in placements]

    def collate_placements(self, plan: QueryPlan,
                           placements: "list[Placement] | IndexCandidates",
                           cluster: Cluster,
                           selectivities: dict[str, float] | None = None,
                           host_features: dict[str, np.ndarray]
                           | None = None) -> list[GraphBatch]:
        """Batches for many candidate placements of one plan.

        The placement-optimization hot path: featurizes the plan and
        hosts once and assembles the batches directly
        (:func:`repro.core.graph.collate_candidates`), skipping the
        per-candidate graph objects entirely.  ``placements`` may be an
        :class:`~repro.hardware.IndexCandidates` matrix (the
        enumerator's index-native output) — then collation is fully
        vectorized and no string placement is ever materialized here.
        Batches from the index-native core carry their candidate
        layout (``GraphBatch.candidates``), so member stacks score them
        on their distinct rows.  Query-only featurization and partial
        placements fall back to ``build_graphs`` + ``collate_chunks``
        (no layout); every other batch field is identical either way.

        ``host_features`` optionally passes pre-featurized hosts
        (:func:`repro.core.graph.featurize_hosts`) so callers scoring
        many *plans* on one cluster — the reordering optimizer —
        featurize the hosts once overall instead of once per plan.
        """
        batch_size = self.config.batch_size
        n_ops = len(plan)
        # Partial placements take the per-graph fallback; an unknown
        # host raises (KeyError here, exactly as build_graphs would).
        if isinstance(placements, IndexCandidates):
            direct = (self.featurizer.mode != "query_only"
                      and placements.n_ops == n_ops)
        else:
            direct = (self.featurizer.mode != "query_only"
                      and all(len(p) == n_ops for p in placements))
        if direct:
            plan_features = featurize_plan(plan, self.featurizer,
                                           selectivities)
            if host_features is None:
                host_features = featurize_hosts(cluster, self.featurizer)
            # Only the `traditional` ablation reads neighbor_rounds;
            # staged models skip building them.
            neighbor_rounds = self.config.scheme != "staged"
            return [collate_candidates(plan_features,
                                       placements[start:start
                                                  + batch_size],
                                       host_features,
                                       neighbor_rounds=neighbor_rounds)
                    for start in range(0, len(placements), batch_size)]
        graphs = self.build_graphs(plan, list(placements), cluster,
                                   selectivities)
        return collate_chunks(graphs, batch_size)

    def merged_inference_batches(self, batches: list[GraphBatch]
                                 ) -> list[GraphBatch]:
        """The batches a decision wave scores: ``batches``, unfused.

        Candidate batches (``batch.candidates`` set) are each scored on
        their own distinct rows
        (:meth:`repro.core.graph.GraphBatch.compact_prefix`), which a
        fused mega-batch would lose, and even on the full path a fused
        wave ran slower than its requests scored one by one
        (PERFORMANCE.md §8, §18).  The serving batcher and the
        reordering optimizer score what this returns;
        :func:`repro.core.graph.merge_batches` remains the fusing
        primitive.
        """
        return batches

    def predict(self, plan: QueryPlan, placement: Placement,
                cluster: Cluster,
                selectivities: dict[str, float] | None = None
                ) -> QueryMetrics:
        """Predict all cost metrics of one placed query.

        The query is featurized and collated exactly once; the same
        :class:`GraphBatch` feeds every metric ensemble, and each
        ensemble runs ONE batched-GEMM forward over its stacked member
        weights (float32 under
        :class:`repro.nn.float32_inference`) instead of K sequential
        member forwards.
        """
        graph = self.build_graph(plan, placement, cluster, selectivities)
        batch = collate([graph])
        values = {metric: float(ensemble.predict(batch)[0])
                  for metric, ensemble in self.ensembles.items()}
        return QueryMetrics(
            throughput=values.get("throughput", 0.0),
            e2e_latency_ms=values.get("e2e_latency", 0.0),
            processing_latency_ms=values.get("processing_latency", 0.0),
            backpressure=bool(values.get("backpressure", 0.0) >= 0.5),
            success=bool(values.get("success", 1.0) >= 0.5))

    def predict_metric(self, metric: str,
                       graphs: list[QueryGraph] | GraphBatch
                       ) -> np.ndarray:
        """Predict one metric; accepts graphs or pre-collated batches."""
        return self.ensembles[metric].predict(graphs)
