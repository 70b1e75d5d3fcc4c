"""Tests for model persistence (save/load round trips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (Costream, TrainingConfig, load_costream,
                        save_costream)
from repro.core.dataset import GraphDataset


@pytest.fixture(scope="module")
def trained(tiny_corpus):
    config = TrainingConfig(hidden_dim=12, epochs=4, patience=4)
    model = Costream(metrics=("throughput", "backpressure"),
                     ensemble_size=2, config=config, seed=5)
    return model.fit(tiny_corpus[:100])


class TestRoundTrip:
    def test_predictions_identical(self, trained, tiny_corpus, tmp_path):
        path = tmp_path / "model.npz"
        save_costream(trained, path)
        loaded = load_costream(path)
        dataset = GraphDataset.from_traces(tiny_corpus[:15],
                                           trained.featurizer)
        for metric in ("throughput", "backpressure"):
            np.testing.assert_array_equal(
                trained.predict_metric(metric, dataset.graphs),
                loaded.predict_metric(metric, dataset.graphs))

    def test_metadata_restored(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_costream(trained, path)
        loaded = load_costream(path)
        assert loaded.metrics == trained.metrics
        assert loaded.featurizer.mode == trained.featurizer.mode
        assert loaded.config == trained.config
        assert loaded.ensembles["throughput"].size == 2

    def test_full_prediction_path(self, trained, tiny_corpus, tmp_path):
        path = tmp_path / "model.npz"
        save_costream(trained, path)
        loaded = load_costream(path)
        trace = tiny_corpus[0]
        a = trained.predict(trace.plan, trace.placement, trace.cluster,
                            trace.selectivities)
        b = loaded.predict(trace.plan, trace.placement, trace.cluster,
                           trace.selectivities)
        assert a == b

    def test_bad_format_version_rejected(self, trained, tmp_path):
        import json
        path = tmp_path / "model.npz"
        save_costream(trained, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        header = json.loads(
            bytes(arrays["__costream_header__"]).decode())
        header["format_version"] = 999
        arrays["__costream_header__"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8)
        with (tmp_path / "bad.npz").open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError):
            load_costream(tmp_path / "bad.npz")

    @staticmethod
    def _with_old_header(trained, tmp_path, version, field, value):
        """``trained`` saved under an older format ``version`` whose
        config still carries ``field``."""
        import json
        path = tmp_path / "model.npz"
        save_costream(trained, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        header = json.loads(
            bytes(arrays["__costream_header__"]).decode())
        header["format_version"] = version
        header["config"][field] = value
        arrays["__costream_header__"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8)
        old = tmp_path / f"v{version}.npz"
        with old.open("wb") as handle:
            np.savez(handle, **arrays)
        return old

    def test_previous_format_version_rejected(self, trained, tmp_path):
        """A version-1 file (its config still carries the ``dropout``
        field) fails with the format message, not a ``TypeError``
        from ``TrainingConfig``."""
        old = self._with_old_header(trained, tmp_path, 1, "dropout", 0.0)
        with pytest.raises(ValueError, match="unsupported model format 1"):
            load_costream(old)

    def test_version_2_rejected(self, trained, tmp_path):
        """A version-2 file (its config still carries
        ``member_training``) fails with the format message, not a
        ``TypeError`` from ``TrainingConfig``."""
        old = self._with_old_header(trained, tmp_path, 2,
                                    "member_training", "per_member")
        with pytest.raises(ValueError, match="unsupported model format 2"):
            load_costream(old)
