"""Shared training corpus and mini-batch schedules.

* :class:`BatchSchedule` — one training run's deterministic source for
  the train/val split and the per-epoch mini-batch permutations.  It
  also caches the collated validation batches, so every epoch's
  validation pass reuses one collation.
* :class:`TrainingCorpus` — a :class:`~repro.core.dataset.GraphDataset`
  wrapper that featurizes a trace corpus once and serves cached metric
  views to every ensemble; :meth:`repro.core.costream.Costream.fit`
  and :meth:`~repro.core.costream.Costream.fine_tune` both route
  through it (one graph build for all five metrics, for initial
  training and few-shot adaptation alike).
"""

from __future__ import annotations

import numpy as np

from ..core.dataset import GraphDataset
from ..core.features import Featurizer
from ..core.graph import GraphBatch, QueryGraph, collate
from ..core.training import paired_batches

__all__ = ["BatchSchedule", "TrainingCorpus"]


class BatchSchedule:
    """A deterministic mini-batch schedule: one training run's RNG
    stream.

    The training loop's RNG draws — one permutation for the train/val
    split, then one permutation per epoch over the (possibly
    oversampled) sample pool — from a single
    ``np.random.default_rng(seed)`` stream, generated lazily and
    cached, so a fresh schedule with the same seed replays the same
    sequence (a resumed fit relies on this).  The collated validation
    pairs are cached alongside.  Train batches are not: a fit reads
    each row set once, and collation is deterministic, so a fresh
    collation per mini-batch keeps memory flat without changing a bit.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._split_order: np.ndarray | None = None
        self._epoch_perms: list[np.ndarray] = []
        self._val_pairs: list[tuple[GraphBatch, np.ndarray]] | None = None
        self._val_key: tuple | None = None

    # ------------------------------------------------------------------
    def split_order(self, n_graphs: int) -> np.ndarray:
        """The split permutation (first RNG draw, fixed thereafter)."""
        if self._split_order is None:
            if self._epoch_perms:
                raise RuntimeError(
                    "split_order must be drawn before any epoch order")
            self._split_order = self._rng.permutation(n_graphs)
        if len(self._split_order) != n_graphs:
            raise ValueError(
                f"schedule split covers {len(self._split_order)} "
                f"graphs, asked for {n_graphs}")
        return self._split_order

    def epoch_order(self, epoch: int, sample_pool: np.ndarray
                    ) -> np.ndarray:
        """Row order of one epoch: ``sample_pool`` permuted by that
        epoch's draw (epoch permutations are drawn in epoch order and
        cached, so a run resumed at a later epoch sees the same
        sequence)."""
        while len(self._epoch_perms) <= epoch:
            self._epoch_perms.append(
                self._rng.permutation(len(sample_pool)))
        perm = self._epoch_perms[epoch]
        if len(perm) != len(sample_pool):
            raise ValueError(
                f"epoch {epoch} permutation covers {len(perm)} rows, "
                f"sample pool has {len(sample_pool)}")
        return sample_pool[perm]

    # ------------------------------------------------------------------
    def train_batch(self, graphs: list[QueryGraph],
                    rows: np.ndarray) -> GraphBatch:
        """The collated batch for ``rows`` of ``graphs`` (repeats and
        any order allowed): one :func:`~repro.core.graph.collate`,
        whose cost is whole-batch array work over the graphs' cached
        arrays, not a loop over the graphs."""
        return collate([graphs[i] for i in rows])

    def val_pairs(self, val_graphs, val_labels: np.ndarray,
                  batch_size: int
                  ) -> list[tuple[GraphBatch, np.ndarray]]:
        """The validation (batch, labels) pairs, collated once.

        Like the other draws, the cache is keyed to its inputs: a
        schedule serves ONE validation set, and a consumer passing a
        different one is a bug that raises instead of silently
        evaluating against the cached pairs.
        """
        key = (tuple(id(graph) for graph in val_graphs), batch_size,
               np.asarray(val_labels).tobytes())
        if self._val_pairs is None:
            self._val_pairs = paired_batches(val_graphs, val_labels,
                                             batch_size)
            self._val_key = key
        elif key != self._val_key:
            raise ValueError(
                "schedule already serves a different validation set")
        return self._val_pairs


class TrainingCorpus:
    """One featurized corpus serving every metric ensemble.

    Builds the :class:`~repro.core.dataset.GraphDataset` once (one
    ``build_graph`` per trace, whatever the number of metrics trained
    on it) and exposes cached metric views — the shared substrate of
    ``Costream.fit`` and ``Costream.fine_tune``, which previously each
    rebuilt graphs and labels with near-identical code.
    """

    def __init__(self, dataset: GraphDataset):
        self.dataset = dataset

    @classmethod
    def from_traces(cls, traces, featurizer: Featurizer | None = None
                    ) -> "TrainingCorpus":
        return cls(GraphDataset.from_traces(traces, featurizer))

    def __len__(self) -> int:
        return len(self.dataset)

    def metric_view(self, metric: str) -> tuple[list[QueryGraph],
                                                np.ndarray]:
        """(graphs, labels) for one metric — cached on the dataset."""
        return self.dataset.metric_view(metric)
