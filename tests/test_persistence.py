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
            np.testing.assert_allclose(
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

    def test_previous_format_version_rejected(self, trained, tmp_path):
        """A version-1 file (its config still carries the ``dropout``
        field) fails with the format message, not a ``TypeError``
        from ``TrainingConfig``."""
        import json
        path = tmp_path / "model.npz"
        save_costream(trained, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        header = json.loads(
            bytes(arrays["__costream_header__"]).decode())
        header["format_version"] = 1
        header["config"]["dropout"] = 0.0
        arrays["__costream_header__"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8)
        with (tmp_path / "old.npz").open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="unsupported model format 1"):
            load_costream(tmp_path / "old.npz")


class TestStackedTrainingRoundTrip:
    """ISSUE-5: persistence after *stacked* ensemble training."""

    @pytest.fixture(scope="class")
    def stacked_trained(self, tiny_corpus):
        config = TrainingConfig(hidden_dim=12, epochs=3, patience=3,
                                member_training="stacked")
        model = Costream(metrics=("throughput", "backpressure"),
                         ensemble_size=2, config=config, seed=5)
        return model.fit(tiny_corpus[:100])

    def test_predictions_bitwise_equal(self, stacked_trained,
                                       tiny_corpus, tmp_path):
        path = tmp_path / "stacked.npz"
        save_costream(stacked_trained, path)
        loaded = load_costream(path)
        dataset = GraphDataset.from_traces(tiny_corpus[:15],
                                           stacked_trained.featurizer)
        for metric in ("throughput", "backpressure"):
            np.testing.assert_array_equal(
                stacked_trained.predict_metric(metric, dataset.graphs),
                loaded.predict_metric(metric, dataset.graphs))

    def test_member_stacks_rebuilt_after_load(self, stacked_trained,
                                              tiny_corpus, tmp_path,
                                              tape_predictions):
        """Inference stacks must invalidate/rebuild across the round
        trip: stack predictions equal the members' taped forwards on
        the loaded model, and re-loading into a warm ensemble is
        caught by the identity-based staleness sweep."""
        path = tmp_path / "stacked.npz"
        save_costream(stacked_trained, path)
        loaded = load_costream(path)
        dataset = GraphDataset.from_traces(tiny_corpus[:10],
                                           stacked_trained.featurizer)
        ensemble = loaded.ensembles["throughput"]
        np.testing.assert_array_equal(
            ensemble._member_predictions(dataset.graphs),
            tape_predictions(ensemble, dataset.graphs))
        # Warm the stack, then replace weights via load_state_dict —
        # the next prediction must serve the fresh weights.
        warm = ensemble._member_predictions(dataset.graphs)
        for member, trained_member in zip(
                ensemble.members,
                stacked_trained.ensembles["throughput"].members):
            state = trained_member.network.state_dict()
            member.network.load_state_dict(
                {key: value + 0.1 for key, value in state.items()})
        shifted = ensemble._member_predictions(dataset.graphs)
        assert not np.array_equal(warm, shifted)
        np.testing.assert_array_equal(
            shifted, tape_predictions(ensemble, dataset.graphs))

    def test_member_training_mode_persisted(self, stacked_trained,
                                            tmp_path):
        path = tmp_path / "stacked.npz"
        save_costream(stacked_trained, path)
        loaded = load_costream(path)
        assert loaded.config.member_training == "stacked"
