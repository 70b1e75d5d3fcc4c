"""Training of single-metric COSTREAM cost models.

Each of the five cost metrics gets its own GNN (Section IV-A): MSLE
loss for the regression metrics (throughput, latencies), binary cross
entropy for backpressure occurrence and query success.  Training uses
Adam with gradient clipping, mini-batched graph collation, and early
stopping on a validation split.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn import Adam, Tensor, bce_with_logits_loss, clip_grad_norm, \
    mse_loss, msle_loss, no_grad
from ..simulator.result import METRIC_NAMES, REGRESSION_METRICS
from .features import Featurizer
from .graph import GraphBatch, QueryGraph, as_batches, collate
from .model import CostreamGNN

__all__ = ["TrainingConfig", "CostModel", "TrainingHistory",
           "paired_batches", "holdout_size", "resolve_loss_kind"]


def _jsonable(value):
    """Normalize through JSON so in-memory fingerprints compare equal
    to checkpoint headers read back from disk (tuples become lists,
    dict keys become strings)."""
    return json.loads(json.dumps(value))


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
    affords it.  ONE definition, shared by :meth:`CostModel.fit` and
    the stacked trainer — the bitwise equivalence between them rests
    on identical splits, so the formula must not fork.
    """
    return max(1, int(n_graphs * val_fraction),
               min(20, n_graphs // 5))


def resolve_loss_kind(config: "TrainingConfig",
                      is_regression: bool) -> str:
    """The concrete loss behind ``config.loss`` (``"auto"`` resolves
    by metric kind) — shared by the sequential and stacked trainers."""
    if config.loss == "auto":
        return "msle" if is_regression else "bce"
    return config.loss


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for one cost-model training run."""

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
    dropout: float = 0.0
    balance_classes: bool = True  # oversample minority class (binary)
    #: How :class:`~repro.core.ensemble.MetricEnsemble` trains its
    #: members: ``"per_member"`` (the historical default: K sequential
    #: ``CostModel.fit`` runs, each drawing its own member-seeded
    #: schedule) or ``"stacked"`` (the
    #: :class:`repro.training.StackedTrainer`: one shared
    #: ensemble-seeded schedule, all K members stepped in one
    #: batched-GEMM forward/backward per mini-batch — bitwise
    #: identical to the sequential loop under that shared schedule).
    member_training: str = "per_member"


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
                                   seed=seed, scheme=self.config.scheme,
                                   dropout=self.config.dropout)
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

        ``schedule`` (a :class:`repro.training.BatchSchedule`) replaces
        the member-seeded RNG draws — train/val split and per-epoch
        shuffles — with a shared, cached source.  This is how
        K ensemble members train comparably: the same ``fit`` loop
        under one schedule is the sequential reference the stacked
        trainer (:class:`repro.training.StackedTrainer`) is bitwise
        identical to.

        ``checkpoint_path`` enables epoch-granular crash recovery
        (PERFORMANCE.md §13): every ``checkpoint_every`` epochs the
        complete training state — weights, best-state snapshot, Adam
        moments, early-stopping counters, histories, and the RNG state
        — is written atomically.  A run killed at ANY point and
        re-invoked with ``resume=True`` (same data, same arguments)
        continues from the last checkpoint and finishes **bitwise
        identical** to the uninterrupted run: same loss trajectories,
        same early-stopping epoch, same final parameters.  A kill
        mid-epoch replays that epoch from its start (the restored RNG
        / schedule state regenerates the identical mini-batch order).
        ``on_epoch_end(epoch)`` is called after each epoch's
        checkpoint; exceptions propagate (tests use it to simulate
        kills at exact epoch boundaries).
        """
        labels = np.asarray(labels, dtype=np.float64)
        rng = (np.random.default_rng(self.seed) if schedule is None
               else None)
        if val_graphs is None:
            n_val = holdout_size(len(graphs), self.config.val_fraction)
            order = (rng.permutation(len(graphs)) if schedule is None
                     else schedule.split_order(len(graphs)))
            val_rows, train_rows = order[:n_val], order[n_val:]
            val_graphs = [graphs[i] for i in val_rows]
            val_labels = labels[val_rows]
            graphs = [graphs[i] for i in train_rows]
            labels = labels[train_rows]

        # The parameter list is static during training; walking the
        # module tree once instead of once per mini-batch.
        parameters = self.network.parameters()
        optimizer = Adam(parameters,
                         lr=self.config.learning_rate,
                         weight_decay=self.config.weight_decay)
        best_val = float("inf")
        best_state = self.network.state_dict()
        epochs_since_best = 0
        budget = epochs if epochs is not None else self.config.epochs

        # Binary labels are heavily imbalanced in the corpus (failures
        # and backpressure are the minority); oversample the minority
        # class so the classifier cannot win by always predicting the
        # majority.
        sample_pool = np.arange(len(graphs))
        if not self.is_regression and self.config.balance_classes:
            sample_pool = _oversampled_pool(labels)

        # The validation mini-batches are identical every epoch;
        # collate them once instead of rebuilding them per epoch
        # (once per *ensemble* when a shared schedule caches them).
        val_pairs = (self._paired_batches(val_graphs, val_labels)
                     if schedule is None
                     else schedule.val_pairs(val_graphs, val_labels,
                                             self.config.batch_size))

        # The manual (tape-free) step covers the default configuration;
        # dropout, the traditional scheme and legacy kernels fall back
        # to the taped autodiff path.  Both are bitwise identical.
        loss_kind = resolve_loss_kind(self.config, self.is_regression)

        checkpointing = checkpoint_path is not None
        if checkpointing:
            # Imported here: persistence builds on repro.core modules.
            from .persistence import load_checkpoint, save_checkpoint

            # A checkpoint is only resumable into the identical run;
            # the fingerprint pins everything that shapes the
            # trajectory so a mismatched resume fails loudly instead
            # of silently diverging.
            fingerprint = _jsonable({
                "kind": "costmodel_fit",
                "metric": self.metric,
                "seed": self.seed,
                "n_train": len(graphs),
                "n_val": len(val_graphs),
                "budget": budget,
                "loss_kind": loss_kind,
                "schedule_seed": getattr(schedule, "seed", None),
                "config": dataclasses.asdict(self.config),
            })

            def save_fit_state(next_epoch: int, completed: bool):
                arrays = {}
                for key, value in self.network.state_dict().items():
                    arrays[f"net/{key}"] = value
                for key, value in best_state.items():
                    arrays[f"best/{key}"] = value
                for i, (m, v) in enumerate(zip(optimizer._m,
                                               optimizer._v)):
                    arrays[f"adam_m/{i}"] = m
                    arrays[f"adam_v/{i}"] = v
                arrays["best_val"] = np.asarray(best_val,
                                                dtype=np.float64)
                arrays["hist/train"] = np.asarray(
                    self.history.train_loss, dtype=np.float64)
                arrays["hist/val"] = np.asarray(
                    self.history.val_loss, dtype=np.float64)
                save_checkpoint(checkpoint_path, {
                    "kind": "costmodel_fit", "version": 1,
                    "fingerprint": fingerprint,
                    "epoch": next_epoch,
                    "completed": completed,
                    "epochs_since_best": epochs_since_best,
                    "best_epoch": self.history.best_epoch,
                    "adam_step": optimizer._step,
                    "rng_state": (rng.bit_generator.state
                                  if rng is not None else None),
                }, arrays)

        start_epoch = 0
        if checkpointing and resume and Path(checkpoint_path).exists():
            header, arrays = load_checkpoint(checkpoint_path)
            if header.get("fingerprint") != fingerprint:
                raise ValueError(
                    "checkpoint does not match this training run "
                    "(different data, seed, or configuration)")
            self.network.load_state_dict(
                {key: arrays[f"net/{key}"]
                 for key in self.network.state_dict()})
            best_state = {key.split("/", 1)[1]: arrays[key].copy()
                          for key in arrays
                          if key.startswith("best/")}
            best_val = float(arrays["best_val"])
            optimizer._step = int(header["adam_step"])
            for i in range(len(parameters)):
                optimizer._m[i][:] = arrays[f"adam_m/{i}"]
                optimizer._v[i][:] = arrays[f"adam_v/{i}"]
            self.history.train_loss[:] = [
                float(x) for x in arrays["hist/train"]]
            self.history.val_loss[:] = [
                float(x) for x in arrays["hist/val"]]
            self.history.best_epoch = int(header["best_epoch"])
            epochs_since_best = int(header["epochs_since_best"])
            if rng is not None and header["rng_state"] is not None:
                # The restored stream continues exactly where the
                # killed run's draws left off — the per-epoch shuffles
                # from here on match the uninterrupted run's.
                rng.bit_generator.state = header["rng_state"]
            start_epoch = int(header["epoch"])
            if header["completed"]:
                self.network.load_state_dict(best_state)
                self.network.eval()
                return self.history

        self.network.train()
        for epoch in range(start_epoch, budget):
            optimizer.lr = self.config.learning_rate * (
                self.config.lr_decay ** (epoch // self.config.lr_decay_every))
            order = (sample_pool[rng.permutation(len(sample_pool))]
                     if schedule is None
                     else schedule.epoch_order(epoch, sample_pool))
            epoch_loss = 0.0
            n_batches = 0
            manual_step = self.network.supports_manual_step()
            for start in range(0, len(order), self.config.batch_size):
                rows = order[start:start + self.config.batch_size]
                batch = (collate([graphs[i] for i in rows])
                         if schedule is None
                         else schedule.train_batch(graphs, rows))
                if manual_step:
                    optimizer.zero_grad()
                    loss_value = self.network.loss_and_grad(
                        batch, labels[rows], loss_kind)
                else:
                    output = self.network(batch)
                    loss = self._loss(output, labels[rows])
                    optimizer.zero_grad()
                    loss.backward()
                    loss_value = loss.item()
                clip_grad_norm(parameters, self.config.grad_clip)
                optimizer.step()
                epoch_loss += loss_value
                n_batches += 1
            self.history.train_loss.append(epoch_loss / max(n_batches, 1))

            val_loss = self._loss_over_batches(val_pairs)
            self.history.val_loss.append(val_loss)
            stop = False
            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_state = self.network.state_dict()
                self.history.best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                stop = epochs_since_best >= self.config.patience
            if checkpointing and (stop or epoch + 1 == budget
                                  or (epoch + 1) % checkpoint_every
                                  == 0):
                save_fit_state(epoch + 1,
                               completed=stop or epoch + 1 == budget)
            if on_epoch_end is not None:
                on_epoch_end(epoch)
            if stop:
                break
        self.network.load_state_dict(best_state)
        self.network.eval()
        return self.history

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
        """Mean loss over pre-collated batches, without autodiff tape.

        Restores the train/eval mode it found, so an evaluation never
        leaves dropout disabled (or enabled) for the caller.
        """
        was_training = self.network.training
        self.network.eval()
        total = 0.0
        count = 0
        with no_grad():
            for batch, chunk_labels in pairs:
                output = self.network(batch)
                loss = self._loss(output, chunk_labels)
                total += loss.item() * batch.n_graphs
                count += batch.n_graphs
        if was_training:
            self.network.train()
        return total / max(count, 1)

    def evaluate_loss(self, graphs: list[QueryGraph] | GraphBatch,
                      labels: np.ndarray) -> float:
        """Mean loss on (graphs, labels); also accepts pre-collated
        batches.  The network's train/eval mode is restored on exit."""
        labels = np.asarray(labels, dtype=np.float64)
        return self._loss_over_batches(self._paired_batches(graphs, labels))

    def predict_raw(self, graphs) -> np.ndarray:
        """Network outputs: log1p costs (regression) or logits.

        ``graphs`` may be a list of :class:`QueryGraph` (collated here),
        one :class:`GraphBatch`, or a list of pre-collated batches —
        sharing one collation across ensemble members and metrics.
        Runs in no-grad mode and restores the train/eval mode it found.
        """
        batches = as_batches(graphs, self.config.batch_size)
        was_training = self.network.training
        self.network.eval()
        outputs: list[np.ndarray] = []
        with no_grad():
            for batch in batches:
                outputs.append(np.atleast_1d(self.network(batch).numpy()))
        if was_training:
            self.network.train()
        return np.concatenate(outputs)

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
