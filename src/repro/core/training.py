"""Training of single-metric COSTREAM cost models.

Each of the five cost metrics gets its own GNN (Section IV-A): MSLE
loss for the regression metrics (throughput, latencies), binary cross
entropy for backpressure occurrence and query success.  Training uses
Adam with gradient clipping, mini-batched graph collation, and early
stopping on a validation split, in the one training loop
(:func:`repro.training.stacked.fit_cost_model`); an ensemble trains
each member through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..nn import Tensor, bce_with_logits_loss, mse_loss, msle_loss, \
    no_grad
from ..simulator.result import METRIC_NAMES, REGRESSION_METRICS
from .features import Featurizer
from .graph import GraphBatch, QueryGraph, as_batches
from .model import MESSAGE_SCHEMES, CostreamGNN

__all__ = ["TrainingConfig", "CostModel", "TrainingHistory",
           "paired_batches", "holdout_size", "resolve_loss_kind"]


_LOSSES = ("auto", "msle", "mse", "bce")


def _oversampled_pool(labels: np.ndarray) -> np.ndarray:
    """Row indices with the minority class replicated to near parity."""
    labels = np.asarray(labels) >= 0.5
    positives = np.nonzero(labels)[0]
    negatives = np.nonzero(~labels)[0]
    if positives.size == 0 or negatives.size == 0:
        return np.arange(labels.size)
    minority, majority = sorted((positives, negatives), key=len)
    repeats = max(1, majority.size // max(minority.size, 1))
    return np.concatenate([majority] + [minority] * repeats)


def paired_batches(graphs, labels: np.ndarray, batch_size: int
                   ) -> list[tuple["GraphBatch", np.ndarray]]:
    """Collate (graphs, labels) into aligned evaluation batches.

    Module-level so :class:`repro.training.BatchSchedule` caches the
    exact pairs :meth:`CostModel._paired_batches` would build.
    """
    batches = as_batches(graphs, batch_size)
    pairs = []
    start = 0
    for batch in batches:
        pairs.append((batch, labels[start:start + batch.n_graphs]))
        start += batch.n_graphs
    return pairs


def holdout_size(n_graphs: int, val_fraction: float) -> int:
    """Validation rows held out of ``n_graphs`` training graphs.

    A too-small validation split makes early stopping pick an
    arbitrary epoch; hold out at least ~20 graphs when the dataset
    affords it.
    """
    return max(1, int(n_graphs * val_fraction),
               min(20, n_graphs // 5))


def resolve_loss_kind(config: "TrainingConfig",
                      is_regression: bool) -> str:
    """The concrete loss behind ``config.loss`` (``"auto"`` resolves
    by metric kind) — shared by the taped and the stacked step."""
    if config.loss == "auto":
        return "msle" if is_regression else "bce"
    return config.loss


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for one cost-model training run.

    A value no run can train with raises ``ValueError`` naming the
    field at construction.
    """

    hidden_dim: int = 48
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 3e-3
    lr_decay: float = 0.5       # multiplier applied every lr_decay_every
    lr_decay_every: int = 20    # epochs between learning-rate decays
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    patience: int = 12          # early-stopping patience, in epochs
    val_fraction: float = 0.1   # used when no explicit val set is given
    scheme: str = "staged"      # or "traditional" (Exp 7b)
    loss: str = "auto"          # "msle" | "mse" | "bce" | "auto"
    balance_classes: bool = True  # oversample minority class (binary)

    def __post_init__(self):
        for name in ("hidden_dim", "epochs", "batch_size",
                     "lr_decay_every", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"TrainingConfig.{name} must be at "
                                 f"least 1, got {getattr(self, name)!r}")
        for name in ("learning_rate", "lr_decay", "grad_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"TrainingConfig.{name} must be finite "
                                 f"and positive, got {value!r}")
        if not (math.isfinite(self.weight_decay)
                and self.weight_decay >= 0.0):
            raise ValueError(f"TrainingConfig.weight_decay must be finite "
                             f"and non-negative, got "
                             f"{self.weight_decay!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"TrainingConfig.val_fraction must be in "
                             f"[0, 1), got {self.val_fraction!r}")
        if self.loss not in _LOSSES:
            raise ValueError(f"TrainingConfig.loss must be one of "
                             f"{_LOSSES}, got {self.loss!r}")
        if self.scheme not in MESSAGE_SCHEMES:
            raise ValueError(f"TrainingConfig.scheme must be one of "
                             f"{MESSAGE_SCHEMES}, got {self.scheme!r}")


@dataclass
class TrainingHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1


class CostModel:
    """One trained GNN predicting one cost metric."""

    def __init__(self, metric: str, config: TrainingConfig | None = None,
                 featurizer: Featurizer | None = None, seed: int = 0):
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.config = config or TrainingConfig()
        self.featurizer = featurizer or Featurizer()
        self.seed = seed
        self.network = CostreamGNN(self.featurizer,
                                   hidden_dim=self.config.hidden_dim,
                                   seed=seed, scheme=self.config.scheme)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    @property
    def is_regression(self) -> bool:
        return self.metric in REGRESSION_METRICS

    def _loss(self, output: Tensor, labels: np.ndarray) -> Tensor:
        loss_kind = resolve_loss_kind(self.config, self.is_regression)
        if loss_kind == "msle":
            return msle_loss(output, labels)
        if loss_kind == "mse":
            # Ablation: regress log-space output against raw labels.
            return mse_loss(output, labels)
        if loss_kind == "bce":
            return bce_with_logits_loss(output, labels)
        raise ValueError(f"unknown loss {loss_kind!r}")

    # ------------------------------------------------------------------
    def fit(self, graphs: list[QueryGraph], labels: np.ndarray,
            val_graphs: list[QueryGraph] | None = None,
            val_labels: np.ndarray | None = None,
            epochs: int | None = None, schedule=None,
            checkpoint_path=None, checkpoint_every: int = 1,
            resume: bool = False,
            on_epoch_end=None) -> TrainingHistory:
        """Train until convergence or the epoch budget is exhausted.

        Runs the one training loop, :func:`repro.training.stacked.
        fit_cost_model`, on this model: a one-member stack for the
        staged scheme, the tape for ``traditional``.  Without a
        ``schedule`` (a :class:`repro.training.BatchSchedule`) the
        split and the per-epoch shuffles are drawn from
        ``BatchSchedule(self.seed)``.

        ``checkpoint_path`` enables epoch-granular crash recovery
        (PERFORMANCE.md §13): every ``checkpoint_every`` epochs the
        complete training state — weights, best-state snapshot, Adam
        moments, early-stopping counters and histories — is written
        atomically.  A run killed at ANY point and re-invoked with
        ``resume=True`` (same data, same arguments) continues from the
        last checkpoint and finishes **bitwise identical** to the
        uninterrupted run: same loss trajectories, same early-stopping
        epoch, same final parameters.  A kill mid-epoch replays that
        epoch from its start (the schedule regenerates the identical
        mini-batch order).  ``on_epoch_end(epoch)`` is called after
        each epoch's checkpoint; exceptions propagate (tests use it to
        simulate kills at exact epoch boundaries).  Malformed inputs
        raise ``ValueError`` before any draw or collation.
        """
        # Imported here: repro.training builds on repro.core.
        from ..training.stacked import fit_cost_model

        return fit_cost_model(
            self, graphs, labels, val_graphs, val_labels, epochs=epochs,
            schedule=schedule, checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, resume=resume,
            on_epoch_end=on_epoch_end)

    def fine_tune(self, graphs: list[QueryGraph], labels: np.ndarray,
                  epochs: int = 15) -> TrainingHistory:
        """Few-shot adaptation on a small extra corpus (Exp 5b)."""
        return self.fit(graphs, labels, epochs=epochs)

    # ------------------------------------------------------------------
    def _paired_batches(self, graphs, labels: np.ndarray
                        ) -> list[tuple[GraphBatch, np.ndarray]]:
        """Collate (graphs, labels) into aligned evaluation batches."""
        return paired_batches(graphs, labels, self.config.batch_size)

    def _loss_over_batches(self, pairs: list[tuple[GraphBatch, np.ndarray]]
                           ) -> float:
        """Mean loss over pre-collated batches (taped forward, no
        gradient recording)."""
        total = 0.0
        count = 0
        with no_grad():
            for batch, chunk_labels in pairs:
                loss = self._loss(self.network(batch), chunk_labels)
                total += loss.item() * batch.n_graphs
                count += batch.n_graphs
        return total / max(count, 1)

    def evaluate_loss(self, graphs: list[QueryGraph] | GraphBatch,
                      labels: np.ndarray) -> float:
        """Mean loss on (graphs, labels); also accepts pre-collated
        batches."""
        labels = np.asarray(labels, dtype=np.float64)
        return self._loss_over_batches(self._paired_batches(graphs, labels))

    def predict_raw(self, graphs) -> np.ndarray:
        """Network outputs: log1p costs (regression) or logits.

        ``graphs`` may be a list of :class:`QueryGraph` (collated here),
        one :class:`GraphBatch`, or a list of pre-collated batches —
        sharing one collation across ensemble members and metrics.
        Runs the taped forward without recording gradients; no graphs
        give an empty array.
        """
        batches = as_batches(graphs, self.config.batch_size)
        if not batches:
            return np.empty(0)
        with no_grad():
            return np.concatenate([np.atleast_1d(self.network(b).numpy())
                                   for b in batches])

    def predict(self, graphs) -> np.ndarray:
        """Predictions in label space: costs, or class probabilities."""
        return self.to_label_space(self.predict_raw(graphs))

    def to_label_space(self, raw: np.ndarray) -> np.ndarray:
        """Map raw network outputs (log1p costs or logits) to labels.

        Shared by :meth:`predict` and the ensemble fast path so the
        transform has exactly one definition.
        """
        if self.is_regression and self.config.loss != "mse":
            return np.expm1(np.clip(raw, 0.0, 30.0))
        if self.is_regression:
            return np.maximum(raw, 0.0)
        return 1.0 / (1.0 + np.exp(-raw))
