"""Saving and loading trained COSTREAM models.

The paper ships trained models alongside its trace corpus; this module
gives the reproduction the same property.  A :class:`Costream` instance
round-trips through a single ``.npz`` file: a JSON header describing
the configuration (metrics, ensemble sizes, featurization mode,
training hyper-parameters) plus one array per network parameter.

:func:`save_checkpoint` / :func:`load_checkpoint` are the generic
building blocks underneath — a JSON header plus named arrays in one
``.npz``, written **atomically** (temp file + ``os.replace``) so a
process killed mid-write can never leave a truncated checkpoint
behind.  The training loop (``fit_cost_model``, which
``CostModel.fit`` runs) builds its epoch-granular resume on them
(PERFORMANCE.md §13).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .costream import Costream
from .ensemble import MetricEnsemble
from .features import Featurizer
from .training import TrainingConfig

__all__ = ["save_costream", "load_costream",
           "save_checkpoint", "load_checkpoint"]

_HEADER_KEY = "__costream_header__"
_CHECKPOINT_HEADER_KEY = "__checkpoint_header__"
#: Bumped whenever an older header's ``config`` no longer loads into
#: :class:`TrainingConfig`, so old files fail with a clear message.
_FORMAT_VERSION = 3


def save_checkpoint(path: str | Path, header: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    """Atomically write ``header`` (JSON) + ``arrays`` to one ``.npz``.

    The write goes to a sibling temp file first and is moved into
    place with ``os.replace`` — on every platform the destination is
    either the previous complete checkpoint or the new complete one,
    never a torn mix, which is what makes kill-anywhere resume safe.
    """
    path = Path(path)
    payload = dict(arrays)
    payload[_CHECKPOINT_HEADER_KEY] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        np.savez(handle, **payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str | Path
                    ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a :func:`save_checkpoint` file back as (header, arrays)."""
    with np.load(Path(path)) as archive:
        header = json.loads(
            bytes(archive[_CHECKPOINT_HEADER_KEY]).decode("utf-8"))
        arrays = {key: archive[key] for key in archive.files
                  if key != _CHECKPOINT_HEADER_KEY}
    return header, arrays


def save_costream(model: Costream, path: str | Path) -> None:
    """Persist a trained model to ``path`` (single .npz file)."""
    header = {
        "format_version": _FORMAT_VERSION,
        "featurizer_mode": model.featurizer.mode,
        "config": dataclasses.asdict(model.config),
        "ensembles": {
            metric: {"size": ensemble.size,
                     "seeds": [m.seed for m in ensemble.members]}
            for metric, ensemble in model.ensembles.items()},
    }
    arrays: dict[str, np.ndarray] = {
        _HEADER_KEY: np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    for metric, ensemble in model.ensembles.items():
        for index, member in enumerate(ensemble.members):
            for key, value in member.network.state_dict().items():
                arrays[f"{metric}/{index}/{key}"] = value
    with Path(path).open("wb") as handle:
        np.savez(handle, **arrays)


def load_costream(path: str | Path) -> Costream:
    """Rebuild a :func:`save_costream`-persisted model."""
    with np.load(Path(path)) as archive:
        header = json.loads(bytes(archive[_HEADER_KEY]).decode("utf-8"))
        if header["format_version"] != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format {header['format_version']}")
        config = TrainingConfig(**header["config"])
        featurizer = Featurizer(header["featurizer_mode"])
        metrics = tuple(header["ensembles"])
        model = Costream(metrics=metrics, ensemble_size=1, config=config,
                         featurizer=featurizer)
        for metric, info in header["ensembles"].items():
            ensemble = MetricEnsemble(metric, size=info["size"],
                                      config=config,
                                      featurizer=featurizer)
            for index, member in enumerate(ensemble.members):
                member.seed = info["seeds"][index]
                state = {
                    key.split("/", 2)[2]: archive[key]
                    for key in archive.files
                    if key.startswith(f"{metric}/{index}/")}
                member.network.load_state_dict(state)
            model.ensembles[metric] = ensemble
    return model
