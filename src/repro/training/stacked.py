"""The one training loop: one cost model, one run.

Every cost model trains here, and ``CostModel.fit`` is the loop's only
caller; a metric ensemble trains as K such runs, one per member, each
under its own member-seeded schedule (``MetricEnsemble.fit``).  For
the staged scheme the model's weights fold into a one-member
:class:`~repro.core.model.TrainableMemberStack`: every mini-batch runs
one hand-written forward/backward
(:meth:`~repro.core.model.TrainableMemberStack.loss_and_grad`),
bitwise identical to the taped forward plus ``loss.backward()``, then
:func:`repro.nn.clip_grad_norm` and one :class:`repro.nn.Adam` step.
The ``traditional`` scheme (the Exp 7b ablation) trains on the
autodiff tape.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..core.model import TrainableMemberStack
from ..core.training import (CostModel, TrainingHistory,
                             _oversampled_pool, holdout_size,
                             resolve_loss_kind)
from ..nn.optim import Adam, clip_grad_norm
from .corpus import BatchSchedule

__all__ = ["fit_cost_model"]


def _jsonable(value):
    """Normalize through JSON so in-memory fingerprints compare equal
    to checkpoint headers read back from disk (tuples become lists,
    dict keys become strings)."""
    return json.loads(json.dumps(value))


def _checked_labels(labels, n_graphs: int, loss_kind: str,
                    which: str) -> np.ndarray:
    """``labels`` as float64, or a ``ValueError`` naming the problem."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (n_graphs,):
        raise ValueError(f"{labels.size} {which} labels for {n_graphs} "
                         f"{which} graphs")
    bad = np.flatnonzero(~np.isfinite(labels))
    if bad.size:
        raise ValueError(f"{which} label {bad[0]} is not finite "
                         f"({labels[bad[0]]})")
    if loss_kind == "msle":
        bad = np.flatnonzero(labels < 0.0)
        if bad.size:
            raise ValueError(f"{which} label {bad[0]} is negative "
                             f"({labels[bad[0]]}); msle needs labels "
                             f">= 0")
    elif loss_kind == "bce":
        bad = np.flatnonzero((labels < 0.0) | (labels > 1.0))
        if bad.size:
            raise ValueError(f"{which} label {bad[0]} is outside [0, 1] "
                             f"({labels[bad[0]]}); bce needs labels in "
                             f"[0, 1]")
    return labels


def fit_cost_model(model: CostModel, graphs, labels: np.ndarray,
                   val_graphs=None, val_labels=None,
                   epochs: int | None = None,
                   schedule: BatchSchedule | None = None,
                   checkpoint_path=None, checkpoint_every: int = 1,
                   resume: bool = False, on_epoch_end=None
                   ) -> TrainingHistory:
    """Train ``model``; its history appends to ``model.history``.

    Without a ``schedule`` the split and shuffles come from
    ``BatchSchedule(model.seed)``.  Malformed inputs — an empty
    training set, label and graph counts that disagree, ``val_graphs``
    without ``val_labels`` (or the reverse), fewer than 2 graphs
    without a validation set (the holdout would leave nothing to train
    on), a non-finite label, a negative ``msle`` label or a ``bce``
    label outside [0, 1] — raise ``ValueError`` before any draw or
    collation.

    ``checkpoint_path`` / ``checkpoint_every`` / ``resume`` /
    ``on_epoch_end``: epoch-granular, atomically written crash
    recovery whose resumed run is bitwise identical to the
    uninterrupted one (PERFORMANCE.md §13).  The schedule needs no
    serialized state — a fresh :class:`~repro.training.BatchSchedule`
    with the same seed replays the split and every epoch's shuffle
    deterministically.
    """
    config = model.config
    if not len(graphs):
        raise ValueError("cannot train on an empty training set")
    if (val_graphs is None) != (val_labels is None):
        raise ValueError(
            "val_graphs and val_labels must be given together")
    if val_graphs is None and holdout_size(
            len(graphs), config.val_fraction) >= len(graphs):
        # The holdout would take every graph and train on none.
        raise ValueError(
            f"a fit without a validation set needs at least 2 "
            f"graphs (and val_fraction < 1); got {len(graphs)} "
            f"graph(s) with val_fraction={config.val_fraction}")
    loss_kind = resolve_loss_kind(config, model.is_regression)
    labels = _checked_labels(labels, len(graphs), loss_kind, "training")
    schedule = schedule or BatchSchedule(model.seed)
    if val_graphs is None:
        n_val = holdout_size(len(graphs), config.val_fraction)
        order = schedule.split_order(len(graphs))
        val_rows, train_rows = order[:n_val], order[n_val:]
        val_graphs = [graphs[i] for i in val_rows]
        val_labels = labels[val_rows]
        graphs = [graphs[i] for i in train_rows]
        labels = labels[train_rows]
    else:
        val_labels = _checked_labels(val_labels, len(val_graphs),
                                     loss_kind, "validation")

    # The staged scheme trains on a one-member stack; the traditional
    # scheme's only training step is the tape.
    staged = config.scheme == "staged"
    if staged:
        stack = TrainableMemberStack(model.network)
        params = stack.parameters()
        member_state = stack.member_state
    else:
        params = model.network.parameters()
        member_state = model.network.state_dict
    optimizer = Adam(params, lr=config.learning_rate,
                     weight_decay=config.weight_decay)

    best_val = np.inf
    best_state = member_state()
    epochs_since_best = 0
    budget = epochs if epochs is not None else config.epochs

    # Binary labels are heavily imbalanced in the corpus (failures
    # and backpressure are the minority); oversample the minority
    # class so the classifier cannot win by always predicting the
    # majority.
    sample_pool = np.arange(len(graphs))
    if not model.is_regression and config.balance_classes:
        sample_pool = _oversampled_pool(labels)

    # Collated once per schedule: every epoch validates on the same
    # batches.
    val_pairs = schedule.val_pairs(val_graphs, val_labels,
                                   config.batch_size)
    history = model.history

    checkpointing = checkpoint_path is not None
    if checkpointing:
        # Imported here: persistence builds on the core modules.
        from ..core.persistence import load_checkpoint, save_checkpoint

        # A checkpoint is only resumable into the identical run; the
        # fingerprint pins everything that shapes the trajectory so a
        # mismatched resume fails loudly instead of silently
        # diverging.
        fingerprint = _jsonable({
            "kind": "fit",
            "metric": model.metric,
            "seed": model.seed,
            "n_train": len(graphs),
            "n_val": len(val_graphs),
            "budget": budget,
            "loss_kind": loss_kind,
            "schedule_seed": getattr(schedule, "seed", None),
            "config": dataclasses.asdict(config),
        })

        def save_fit_state(next_epoch: int, completed: bool):
            arrays = {}
            for i, param in enumerate(params):
                arrays[f"param/{i}"] = param.data
            for key, value in best_state.items():
                arrays[f"best/{key}"] = value
            for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
                arrays[f"adam_m/{i}"] = m
                arrays[f"adam_v/{i}"] = v
            arrays["best_val"] = np.float64(best_val)
            arrays["hist/train"] = np.asarray(history.train_loss,
                                              dtype=np.float64)
            arrays["hist/val"] = np.asarray(history.val_loss,
                                            dtype=np.float64)
            save_checkpoint(checkpoint_path, {
                "fingerprint": fingerprint,
                "epoch": next_epoch,
                "completed": completed,
                "epochs_since_best": epochs_since_best,
                "best_epoch": history.best_epoch,
                "adam_step": optimizer._step,
            }, arrays)

    start_epoch = 0
    if checkpointing and resume and Path(checkpoint_path).exists():
        header, arrays = load_checkpoint(checkpoint_path)
        if header.get("fingerprint") != fingerprint:
            raise ValueError(
                "checkpoint does not match this training run "
                "(different model, data, or configuration)")
        for i, param in enumerate(params):
            param.data[:] = arrays[f"param/{i}"]
        best_state = {key: arrays[f"best/{key}"].copy()
                      for key in best_state}
        best_val = arrays["best_val"].item()
        optimizer._step = int(header["adam_step"])
        for i in range(len(params)):
            optimizer._m[i][:] = arrays[f"adam_m/{i}"]
            optimizer._v[i][:] = arrays[f"adam_v/{i}"]
        epochs_since_best = int(header["epochs_since_best"])
        history.train_loss[:] = [float(x) for x in arrays["hist/train"]]
        history.val_loss[:] = [float(x) for x in arrays["hist/val"]]
        history.best_epoch = int(header["best_epoch"])
        start_epoch = int(header["epoch"])
        if header["completed"]:
            model.network.load_state_dict(best_state)
            return history

    for epoch in range(start_epoch, budget):
        optimizer.lr = config.learning_rate * (
            config.lr_decay ** (epoch // config.lr_decay_every))
        order = schedule.epoch_order(epoch, sample_pool)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            batch = schedule.train_batch(graphs, rows)
            optimizer.zero_grad()
            if staged:
                loss = stack.loss_and_grad(batch, labels[rows], loss_kind)
            else:
                taped_loss = model._loss(model.network(batch),
                                         labels[rows])
                taped_loss.backward()
                loss = taped_loss.item()
            clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            epoch_loss += loss
            n_batches += 1
        val_loss = (stack.loss_over_batches(val_pairs, loss_kind)
                    if staged else model._loss_over_batches(val_pairs))
        history.train_loss.append(float(epoch_loss / max(n_batches, 1)))
        history.val_loss.append(float(val_loss))
        if val_loss < best_val - 1e-6:
            best_val = val_loss
            best_state = member_state()
            history.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        stop = epochs_since_best >= config.patience
        if checkpointing and (stop or epoch + 1 == budget
                              or (epoch + 1) % checkpoint_every == 0):
            save_fit_state(epoch + 1,
                           completed=stop or epoch + 1 == budget)
        if on_epoch_end is not None:
            on_epoch_end(epoch)
        if stop:
            break

    model.network.load_state_dict(best_state)
    return history
