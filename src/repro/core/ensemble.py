"""Ensembles of cost models (paper Section IV-A, 'Model Implementation').

To reduce prediction uncertainty, COSTREAM trains several models per
metric that differ only in their random initialization seed, and
combines them at inference time: the mean for regression metrics, a
majority vote for the binary metrics.

Inference runs on a *member stack* (:class:`repro.core.model.
MemberStack`): the K members' weights are stacked into 3-D tensors and
one batched-GEMM forward computes every member's prediction at once.
The float64 stack is bitwise identical to running each member's taped
forward (the tests' numerical reference);
:class:`repro.nn.float32_inference` opts in to a float32 stack with a
documented tolerance (see PERFORMANCE.md).  Members of the
``traditional`` scheme, which has no stack, predict through their
taped ``predict_raw``.
"""

from __future__ import annotations

import numpy as np

from ..nn.autodiff import inference_dtype
from .features import Featurizer
from .graph import GraphBatch, QueryGraph, as_batches
from .model import MemberStack
from .training import CostModel, TrainingConfig

__all__ = ["MetricEnsemble"]


class MetricEnsemble:
    """Several same-metric models trained from different seeds."""

    def __init__(self, metric: str, size: int = 3,
                 config: TrainingConfig | None = None,
                 featurizer: Featurizer | None = None, seed: int = 0):
        if size < 1:
            raise ValueError("ensemble size must be at least 1")
        self.metric = metric
        self.members = [CostModel(metric, config=config,
                                  featurizer=featurizer,
                                  seed=seed + 1000 * i)
                        for i in range(size)]
        # Weight-stack cache for the batched-GEMM inference path, keyed
        # by dtype.  ``_param_tensors`` caches the members' parameter
        # Tensor objects (static after network construction) so the
        # per-predict staleness check is a plain identity sweep instead
        # of a module-tree walk; ``_stack_params`` snapshots the
        # parameter *arrays* the stacks were built from (see
        # ``member_stack``).
        self._stacks: dict[str, MemberStack] = {}
        self._stack_params: list[np.ndarray] | None = None
        self._param_tensors: list | None = None

    @property
    def is_regression(self) -> bool:
        return self.members[0].is_regression

    @property
    def size(self) -> int:
        return len(self.members)

    def fit(self, graphs: list[QueryGraph], labels: np.ndarray,
            val_graphs: list[QueryGraph] | None = None,
            val_labels: np.ndarray | None = None) -> "MetricEnsemble":
        self._train(graphs, labels, val_graphs, val_labels)
        self.invalidate_stacks()
        return self

    def fine_tune(self, graphs: list[QueryGraph], labels: np.ndarray,
                  epochs: int = 15) -> "MetricEnsemble":
        self._train(graphs, labels, epochs=epochs)
        self.invalidate_stacks()
        return self

    def _train(self, graphs, labels, val_graphs=None, val_labels=None,
               epochs=None) -> None:
        """Train the members one after another, each through
        ``CostModel.fit`` under its own member-seeded schedule (random
        initialization plus per-member shuffling, as in Deep
        Ensembles)."""
        for member in self.members:
            member.fit(graphs, labels, val_graphs, val_labels,
                       epochs=epochs)

    # ------------------------------------------------------------------
    # Batched-GEMM member stack
    # ------------------------------------------------------------------
    def invalidate_stacks(self) -> None:
        """Drop the cached weight stacks (forcing a rebuild).

        Called automatically by :meth:`fit` / :meth:`fine_tune`; the
        identity check in :meth:`member_stack` additionally catches any
        flow that *replaces* parameter arrays (``load_state_dict``, and
        therefore member-level ``fit`` and persistence loading).  Only
        external **in-place** writes to ``param.data`` — which nothing
        in this repository does between predictions — require calling
        this explicitly: until then the cached stack keeps serving the
        snapshot weights (the regression test
        ``tests/test_ensemble_batched.py::TestStackCacheInvalidation::
        test_in_place_mutation_requires_invalidate`` pins both the
        stale-without and fresh-with behavior).
        """
        self._stacks.clear()
        self._stack_params = None
        self._param_tensors = None

    def _current_params(self) -> list[np.ndarray]:
        if self._param_tensors is None:
            self._param_tensors = [param for member in self.members
                                   for param in
                                   member.network.parameters()]
        return [param.data for param in self._param_tensors]

    def member_stack(self, dtype=None) -> MemberStack:
        """The cached :class:`MemberStack` for ``dtype`` (current
        inference dtype when ``None``), rebuilt when stale.

        Staleness is detected by object identity against the parameter
        arrays the stacks were built from: strong references are held,
        so a freed-and-reallocated array can never alias a stale
        snapshot, and every ``load_state_dict`` (the end of each
        training run, and persistence loading) replaces the arrays and
        is caught.
        """
        dtype = np.dtype(dtype or inference_dtype())
        params = self._current_params()
        if (self._stack_params is None
                or len(params) != len(self._stack_params)
                or any(a is not b for a, b
                       in zip(params, self._stack_params))):
            self._stacks.clear()
            self._stack_params = params
        key = dtype.str
        stack = self._stacks.get(key)
        if stack is None:
            stack = MemberStack([m.network for m in self.members],
                                dtype)
            self._stacks[key] = stack
        return stack

    def _supports_batched(self) -> bool:
        """Whether the batched-GEMM stack covers this configuration."""
        return all(m.network.scheme == "staged" for m in self.members)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _shared_batches(self, graphs) -> list[GraphBatch]:
        """Collate once; every member predicts from the same batches.

        Accepts graphs, one :class:`GraphBatch`, or pre-collated
        batches (shared further across metrics by the callers).
        """
        return as_batches(graphs, self.members[0].config.batch_size)

    def _member_predictions(self, graphs) -> np.ndarray:
        """(size, n_graphs) member predictions from one shared collation.

        Runs ONE batched-GEMM forward per batch over the stacked member
        weights — float64 stacks are bitwise equivalent to each
        member's taped forward, float32 stacks (under
        :class:`repro.nn.float32_inference`) are within the documented
        tolerance.  Schemes without a stack run each member's taped
        ``predict_raw``.  Raw outputs are mapped to label space in
        float64 either way; no graphs give a ``(size, 0)`` array.
        """
        batches = self._shared_batches(graphs)
        if not batches:
            return np.empty((self.size, 0))
        if not self._supports_batched():
            raw = np.stack([m.predict_raw(batches) for m in self.members])
        else:
            stack = self.member_stack()
            if len(batches) == 1:
                raw = stack.forward_arrays(batches[0])
            else:
                raw = np.concatenate(
                    [stack.forward_arrays(batch) for batch in batches],
                    axis=1)
        raw = raw.astype(np.float64, copy=False)
        return self.members[0].to_label_space(raw)

    def predict(self, graphs: list[QueryGraph] | GraphBatch) -> np.ndarray:
        """Combined prediction: mean (regression) / majority (binary)."""
        stacked = self._member_predictions(graphs)
        if self.is_regression:
            return stacked.mean(axis=0)
        votes = (stacked >= 0.5).sum(axis=0)
        return (votes * 2 > len(self.members)).astype(np.float64)

    def predict_proba(self, graphs: list[QueryGraph] | GraphBatch
                      ) -> np.ndarray:
        """Mean class probability (binary metrics only)."""
        if self.is_regression:
            raise ValueError(f"{self.metric} is a regression metric")
        return self._member_predictions(graphs).mean(axis=0)
