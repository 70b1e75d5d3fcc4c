"""The one training loop: K cost models in lock-step, K >= 1.

Every cost model trains here.  ``CostModel.fit`` is this loop with a
single member, and ``MetricEnsemble.fit`` runs it once per member (the
default) or once for all K members (``member_training="stacked"``).
For the staged scheme the member weights fold into
:class:`~repro.core.model.TrainableMemberStack` 3-D stacks, every
mini-batch runs ONE stacked forward/backward
(:meth:`~repro.core.model.TrainableMemberStack.loss_and_grad`),
gradients clip per member (:func:`repro.nn.stacked_clip_grad_norm`)
and one :class:`repro.nn.StackedAdam` steps every member's slice.  The
``traditional`` scheme (the Exp 7b ablation) trains one member at a
time on the autodiff tape.

**Equivalence contract.**  Under a shared
:class:`~repro.training.BatchSchedule` a K-member run is bitwise
identical to K independent one-member runs —
:func:`fit_members_sequential`, which is nothing but ``CostModel.fit``
per member under the same schedule: per-member loss trajectories
(train and validation), early-stopping epochs, and final parameters
all match field for field.  Per-member state is preserved end to end:
each member keeps its own seed-derived initialization, its own
best-state snapshot and patience counter; a member whose patience runs
out stops recording history at exactly the epoch its own run would
have stopped (its slice keeps stepping — harmless, since its final
weights come from its best-state snapshot).

What a shared schedule changes: the members draw one split and one
per-epoch shuffle sequence from the *ensemble* seed instead of K
member-seed streams.  That is a different (equally valid) training
run than the historical per-member default, so lock-step ensemble
training is opt-in: ``TrainingConfig(member_training="stacked")``.
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
from ..nn.optim import Adam, StackedAdam, stacked_clip_grad_norm
from .corpus import BatchSchedule

__all__ = ["StackedTrainer", "fit_members_sequential"]


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


def fit_members_sequential(members: list[CostModel],
                           graphs, labels: np.ndarray,
                           val_graphs=None, val_labels=None,
                           epochs: int | None = None,
                           schedule: BatchSchedule | None = None
                           ) -> list[TrainingHistory]:
    """K independent one-member runs under one shared schedule.

    The reference a K-member lock-step run is tested against: each
    member trains through ``CostModel.fit`` on its own, only the
    RNG-derived schedule is shared so the runs are comparable.
    """
    schedule = schedule or BatchSchedule(members[0].seed)
    return [member.fit(graphs, labels, val_graphs, val_labels,
                       epochs=epochs, schedule=schedule)
            for member in members]


class StackedTrainer:
    """Trains every member of one metric ensemble in lock-step."""

    def __init__(self, members: list[CostModel]):
        if not members:
            raise ValueError("cannot train an empty member list")
        self.members = members
        self.config = members[0].config

    def supported(self) -> bool:
        """Whether one lock-step run covers these members: the stacked
        step needs the staged scheme, the tape trains one member."""
        return len(self.members) == 1 or self.config.scheme == "staged"

    # ------------------------------------------------------------------
    def fit(self, graphs, labels: np.ndarray,
            val_graphs=None, val_labels=None,
            epochs: int | None = None,
            schedule: BatchSchedule | None = None,
            checkpoint_path=None, checkpoint_every: int = 1,
            resume: bool = False, on_epoch_end=None
            ) -> list[TrainingHistory]:
        """Train all members; histories append to each member's
        ``CostModel.history``.

        Without a ``schedule`` the split and shuffles come from
        ``BatchSchedule(members[0].seed)``.  Malformed inputs — an
        empty training set, label and graph counts that disagree,
        ``val_graphs`` without ``val_labels`` (or the reverse), fewer
        than 2 graphs without a validation set (the holdout would leave
        nothing to train on), a non-finite label, a negative ``msle``
        label or a ``bce`` label outside [0, 1] — raise ``ValueError``
        before any draw or collation.

        ``checkpoint_path`` / ``checkpoint_every`` / ``resume`` /
        ``on_epoch_end``: epoch-granular, atomically written crash
        recovery whose resumed run is bitwise identical to the
        uninterrupted one (PERFORMANCE.md §13).  The schedule needs no
        serialized state — a fresh :class:`~repro.training.
        BatchSchedule` with the same seed replays the split and every
        epoch's shuffle deterministically.
        """
        members = self.members
        config = self.config
        size = len(members)
        if not self.supported():
            raise ValueError(
                "stacked training of several members requires the "
                "staged scheme; the tape trains one member at a time")
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
        loss_kind = resolve_loss_kind(config, members[0].is_regression)
        labels = _checked_labels(labels, len(graphs), loss_kind,
                                 "training")
        schedule = schedule or BatchSchedule(members[0].seed)
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

        # The staged scheme trains on a member stack; the traditional
        # scheme's only training step is the tape, one member at a time.
        staged = config.scheme == "staged"
        if staged:
            stack = TrainableMemberStack([m.network for m in members])
            params = stack.parameters()
            optimizer = StackedAdam(params, size,
                                    lr=config.learning_rate,
                                    weight_decay=config.weight_decay)
            member_state = stack.member_state
        else:
            taped = members[0]
            params = taped.network.parameters()
            optimizer = Adam(params, lr=config.learning_rate,
                             weight_decay=config.weight_decay)

            def member_state(k: int) -> dict[str, np.ndarray]:
                return taped.network.state_dict()

        best_val = np.full(size, np.inf)
        best_state = [member_state(k) for k in range(size)]
        epochs_since_best = [0] * size
        active = [True] * size
        budget = epochs if epochs is not None else config.epochs

        # Binary labels are heavily imbalanced in the corpus (failures
        # and backpressure are the minority); oversample the minority
        # class so the classifier cannot win by always predicting the
        # majority.
        sample_pool = np.arange(len(graphs))
        if not members[0].is_regression and config.balance_classes:
            sample_pool = _oversampled_pool(labels)

        # Collated once per schedule: every epoch (and every member
        # sharing the schedule) validates on the same batches.
        val_pairs = schedule.val_pairs(val_graphs, val_labels,
                                       config.batch_size)
        histories = [member.history for member in members]

        checkpointing = checkpoint_path is not None
        if checkpointing:
            # Imported here: persistence builds on the core modules.
            from ..core.persistence import (load_checkpoint,
                                            save_checkpoint)

            # A checkpoint is only resumable into the identical run;
            # the fingerprint pins everything that shapes the
            # trajectory so a mismatched resume fails loudly instead
            # of silently diverging.
            fingerprint = _jsonable({
                "kind": "fit",
                "metrics": [member.metric for member in members],
                "seeds": [member.seed for member in members],
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
                for k, state in enumerate(best_state):
                    for key, value in state.items():
                        arrays[f"best/{k}/{key}"] = value
                for i, (m, v) in enumerate(zip(optimizer._m,
                                               optimizer._v)):
                    arrays[f"adam_m/{i}"] = m
                    arrays[f"adam_v/{i}"] = v
                arrays["best_val"] = best_val
                for k, history in enumerate(histories):
                    arrays[f"hist/{k}/train"] = np.asarray(
                        history.train_loss, dtype=np.float64)
                    arrays[f"hist/{k}/val"] = np.asarray(
                        history.val_loss, dtype=np.float64)
                save_checkpoint(checkpoint_path, {
                    "fingerprint": fingerprint,
                    "epoch": next_epoch,
                    "completed": completed,
                    "epochs_since_best": list(epochs_since_best),
                    "active": [bool(flag) for flag in active],
                    "best_epoch": [history.best_epoch
                                   for history in histories],
                    "adam_step": optimizer._step,
                }, arrays)

        start_epoch = 0
        if checkpointing and resume and Path(checkpoint_path).exists():
            header, arrays = load_checkpoint(checkpoint_path)
            if header.get("fingerprint") != fingerprint:
                raise ValueError(
                    "checkpoint does not match this training run "
                    "(different members, data, or configuration)")
            for i, param in enumerate(params):
                param.data[:] = arrays[f"param/{i}"]
            best_state = [
                {key: arrays[f"best/{k}/{key}"].copy()
                 for key in best_state[k]}
                for k in range(size)]
            best_val = arrays["best_val"].astype(np.float64)
            optimizer._step = int(header["adam_step"])
            for i in range(len(params)):
                optimizer._m[i][:] = arrays[f"adam_m/{i}"]
                optimizer._v[i][:] = arrays[f"adam_v/{i}"]
            epochs_since_best = [int(n) for n
                                 in header["epochs_since_best"]]
            active = [bool(flag) for flag in header["active"]]
            for k, history in enumerate(histories):
                history.train_loss[:] = [
                    float(x) for x in arrays[f"hist/{k}/train"]]
                history.val_loss[:] = [
                    float(x) for x in arrays[f"hist/{k}/val"]]
                history.best_epoch = int(header["best_epoch"][k])
            start_epoch = int(header["epoch"])
            if header["completed"]:
                for k, member in enumerate(members):
                    member.network.load_state_dict(best_state[k])
                return histories

        for epoch in range(start_epoch, budget):
            if not any(active):
                break
            optimizer.lr = config.learning_rate * (
                config.lr_decay ** (epoch // config.lr_decay_every))
            order = schedule.epoch_order(epoch, sample_pool)
            epoch_loss = np.zeros(size)
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                rows = order[start:start + config.batch_size]
                batch = schedule.train_batch(graphs, rows)
                optimizer.zero_grad()
                if staged:
                    losses = stack.loss_and_grad(batch, labels[rows],
                                                 loss_kind)
                else:
                    loss = taped._loss(taped.network(batch),
                                       labels[rows])
                    loss.backward()
                    losses = loss.item()
                stacked_clip_grad_norm(params, config.grad_clip, size)
                optimizer.step()
                epoch_loss += losses
                n_batches += 1
            mean_loss = epoch_loss / max(n_batches, 1)
            val_losses = (stack.loss_over_batches(val_pairs, loss_kind)
                          if staged
                          else [taped._loss_over_batches(val_pairs)])
            for k in range(size):
                if not active[k]:
                    continue
                histories[k].train_loss.append(float(mean_loss[k]))
                histories[k].val_loss.append(float(val_losses[k]))
                if val_losses[k] < best_val[k] - 1e-6:
                    best_val[k] = val_losses[k]
                    best_state[k] = member_state(k)
                    histories[k].best_epoch = epoch
                    epochs_since_best[k] = 0
                else:
                    epochs_since_best[k] += 1
                    if epochs_since_best[k] >= config.patience:
                        active[k] = False
            stop = not any(active)
            if checkpointing and (stop or epoch + 1 == budget
                                  or (epoch + 1) % checkpoint_every
                                  == 0):
                save_fit_state(epoch + 1,
                               completed=stop or epoch + 1 == budget)
            if on_epoch_end is not None:
                on_epoch_end(epoch)

        for k, member in enumerate(members):
            member.network.load_state_dict(best_state[k])
        return histories
