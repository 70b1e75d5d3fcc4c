"""Tests for dataset handling, metric computation and model training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (CostModel, GraphDataset, TrainingConfig,
                        balance_classes, classification_accuracy, q_error,
                        q_error_percentiles, split_traces)
from repro.core.training import _oversampled_pool
from repro.training import BatchSchedule


class TestMetrics:
    def test_q_error_symmetry(self):
        errors = q_error(np.asarray([10.0]), np.asarray([20.0]))
        flipped = q_error(np.asarray([20.0]), np.asarray([10.0]))
        np.testing.assert_allclose(errors, flipped)
        np.testing.assert_allclose(errors, [2.0])

    def test_q_error_at_least_one(self, rng):
        true = rng.uniform(0.1, 100, 50)
        pred = rng.uniform(0.1, 100, 50)
        assert np.all(q_error(true, pred) >= 1.0)

    def test_q_error_perfect_is_one(self):
        values = np.asarray([1.0, 5.0, 100.0])
        np.testing.assert_allclose(q_error(values, values), 1.0)

    def test_percentiles(self):
        pct = q_error_percentiles(np.asarray([1, 1, 1, 1.0]),
                                  np.asarray([1, 2, 4, 8.0]))
        assert pct["q50"] == pytest.approx(3.0)
        assert pct["q95"] <= 8.0

    def test_classification_accuracy(self):
        acc = classification_accuracy(np.asarray([1, 0, 1, 1]),
                                      np.asarray([1, 1, 1, 0]))
        assert acc == pytest.approx(0.5)

    def test_balance_classes_equalizes(self, rng):
        labels = np.asarray([1] * 90 + [0] * 10)
        idx = balance_classes(labels, rng)
        assert labels[idx].sum() == 10
        assert (1 - labels[idx]).sum() == 10

    def test_balance_classes_single_class_passthrough(self, rng):
        labels = np.ones(20)
        idx = balance_classes(labels, rng)
        assert idx.size == 20

    def test_oversampled_pool_restores_parity(self):
        labels = np.asarray([1] * 90 + [0] * 10)
        pool = _oversampled_pool(labels)
        positives = (labels[pool] == 1).sum()
        negatives = (labels[pool] == 0).sum()
        assert 0.5 <= positives / negatives <= 2.0


class TestDataset:
    def test_split_fractions(self, tiny_corpus):
        train, val, test = split_traces(tiny_corpus, (0.8, 0.1, 0.1),
                                        seed=0)
        assert len(train) + len(val) + len(test) == len(tiny_corpus)
        assert len(train) == round(0.8 * len(tiny_corpus))

    def test_split_is_a_partition(self, tiny_corpus):
        train, val, test = split_traces(tiny_corpus, seed=1)
        ids = [id(t) for t in train + val + test]
        assert len(set(ids)) == len(tiny_corpus)

    def test_bad_fractions_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            split_traces(tiny_corpus, (0.5, 0.1, 0.1))

    def test_metric_view_filters_failures(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        graphs, labels = dataset.metric_view("throughput")
        assert len(graphs) == (dataset.labels["success"] > 0.5).sum()
        assert np.all(labels >= 0)

    def test_classification_view_keeps_everything(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        graphs, labels = dataset.metric_view("success")
        assert len(graphs) == len(tiny_corpus)

    def test_unknown_metric_rejected(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        with pytest.raises(KeyError):
            dataset.indices_for_metric("latency_of_doom")

    def test_subset(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        subset = dataset.subset(np.asarray([0, 2, 4]))
        assert len(subset) == 3
        assert subset.labels["throughput"].shape == (3,)


class TestCostModelTraining:
    @pytest.fixture(scope="class")
    def trained_throughput(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        config = TrainingConfig(hidden_dim=16, epochs=25, patience=25,
                                batch_size=32)
        model = CostModel("throughput", config, seed=0)
        graphs, labels = dataset.metric_view("throughput")
        history = model.fit(graphs, labels)
        return model, history, dataset

    def test_loss_decreases(self, trained_throughput):
        _, history, _ = trained_throughput
        assert history.train_loss[-1] < history.train_loss[0]

    def test_predictions_nonnegative(self, trained_throughput):
        model, _, dataset = trained_throughput
        graphs, _ = dataset.metric_view("throughput")
        predictions = model.predict(graphs)
        assert np.all(predictions >= 0)
        assert np.all(np.isfinite(predictions))

    def test_better_than_constant_predictor(self, trained_throughput):
        model, _, dataset = trained_throughput
        graphs, labels = dataset.metric_view("throughput")
        predictions = model.predict(graphs)
        model_q50 = np.median(q_error(labels, predictions))
        constant = np.full_like(labels, np.median(labels))
        constant_q50 = np.median(q_error(labels, constant))
        assert model_q50 < constant_q50

    def test_classifier_outputs_probabilities(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        config = TrainingConfig(hidden_dim=12, epochs=6)
        model = CostModel("backpressure", config, seed=0)
        graphs, labels = dataset.metric_view("backpressure")
        model.fit(graphs, labels)
        probs = model.predict(graphs)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_early_stopping_restores_best(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        config = TrainingConfig(hidden_dim=12, epochs=30, patience=3)
        model = CostModel("throughput", config, seed=0)
        graphs, labels = dataset.metric_view("throughput")
        history = model.fit(graphs, labels)
        assert history.best_epoch >= 0
        # With patience 3 it must not run further than best + 3 + 1.
        assert len(history.val_loss) <= history.best_epoch + 4

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            CostModel("vibes")

    def test_fine_tune_changes_weights(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        config = TrainingConfig(hidden_dim=12, epochs=4)
        model = CostModel("throughput", config, seed=0)
        graphs, labels = dataset.metric_view("throughput")
        model.fit(graphs, labels)
        before = model.network.state_dict()
        model.fine_tune(graphs[:40], labels[:40], epochs=3)
        after = model.network.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_mse_loss_mode_runs(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus)
        config = TrainingConfig(hidden_dim=8, epochs=3, loss="mse")
        model = CostModel("throughput", config, seed=0)
        graphs, labels = dataset.metric_view("throughput")
        model.fit(graphs, labels)
        assert np.all(np.isfinite(model.predict(graphs[:5])))


def _corrupt(values, index, value):
    values = np.array(values, dtype=np.float64)
    values[index] = value
    return values


# (metric, fit arguments from the (graphs, labels) view, message).
_BAD_INPUTS = {
    "empty": ("throughput", lambda g, y: ([], np.array([])),
              "empty training set"),
    "nan-label": ("throughput",
                  lambda g, y: (g, _corrupt(y, 3, np.nan)),
                  "training label 3 is not finite"),
    "inf-label": ("throughput",
                  lambda g, y: (g, _corrupt(y, 5, np.inf)),
                  "training label 5 is not finite"),
    "negative-msle": ("throughput",
                      lambda g, y: (g, _corrupt(y, 2, -1.0)),
                      "training label 2 is negative"),
    "bce-above-one": ("backpressure",
                      lambda g, y: (g, _corrupt(y, 4, 2.0)),
                      r"training label 4 is outside \[0, 1\]"),
    "labels-longer": ("throughput",
                      lambda g, y: (g, np.concatenate([y, y[:5]])),
                      "labels for"),
    "labels-shorter": ("throughput", lambda g, y: (g, y[:-5]),
                       "labels for"),
    "val-graphs-only": ("throughput",
                        lambda g, y: (g, y, g[:10], None),
                        "given together"),
    "val-labels-only": ("throughput",
                        lambda g, y: (g, y, None, y[:10]),
                        "given together"),
    "val-length-mismatch": ("throughput",
                            lambda g, y: (g, y, g[:10], y[:12]),
                            "12 validation labels for 10 validation"),
    "val-nan": ("throughput",
                lambda g, y: (g, y, g[:10], _corrupt(y[:10], 1, np.nan)),
                "validation label 1 is not finite"),
    # The holdout would take the only graph and train on nothing.
    "one-graph": ("throughput", lambda g, y: (g[:1], y[:1]),
                  "at least 2 graphs"),
}


class TestFitInputValidation:
    """Malformed training inputs raise ``ValueError`` at the training
    loop's single entry, ``CostModel.fit``, naming the problem, before
    any draw or collation."""

    @pytest.fixture(scope="class")
    def dataset(self, tiny_corpus):
        return GraphDataset.from_traces(tiny_corpus[:80])

    # Single-valued: the parameter keeps the test ids stable.
    @pytest.mark.parametrize("entry", ["cost_model"])
    @pytest.mark.parametrize("case", list(_BAD_INPUTS))
    def test_rejected_before_training(self, dataset, case, entry):
        metric, make_args, message = _BAD_INPUTS[case]
        args = make_args(*dataset.metric_view(metric))
        model = CostModel(metric, TrainingConfig(hidden_dim=8, epochs=3))
        schedule = BatchSchedule(0)
        with pytest.raises(ValueError, match=message):
            model.fit(*args, schedule=schedule)
        assert schedule._split_order is None
        assert not schedule._epoch_perms
        assert model.history.train_loss == []


class TestRunArgumentValidation:
    """An ``epochs`` override or a ``checkpoint_every`` below 1 raises
    ``ValueError`` naming the argument before any draw, collation or
    checkpoint — not a fit that trains nothing, a crash after a full
    epoch, or a checkpoint every epoch."""

    @pytest.fixture(scope="class")
    def view(self, tiny_corpus):
        return GraphDataset.from_traces(tiny_corpus[:40]) \
            .metric_view("throughput")

    @pytest.mark.parametrize("argument, value", [
        ("epochs", 0), ("epochs", -3),
        ("checkpoint_every", 0), ("checkpoint_every", -1)])
    def test_rejected_before_training(self, view, tmp_path, argument,
                                      value):
        model = CostModel("throughput",
                          TrainingConfig(hidden_dim=8, epochs=2))
        initial = model.network.state_dict()
        schedule = BatchSchedule(0)
        checkpoint = tmp_path / "fit.ckpt"
        with pytest.raises(ValueError,
                           match=f"{argument} must be at least 1"):
            model.fit(*view, schedule=schedule,
                      checkpoint_path=checkpoint, **{argument: value})
        assert schedule._split_order is None
        assert not schedule._epoch_perms
        assert model.history.train_loss == []
        assert not checkpoint.exists()
        for key, array in model.network.state_dict().items():
            np.testing.assert_array_equal(array, initial[key])

    def test_fine_tune_rejects_zero_epochs(self, view):
        from repro.core.ensemble import MetricEnsemble

        ensemble = MetricEnsemble("throughput", size=1,
                                  config=TrainingConfig(hidden_dim=8))
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            ensemble.fine_tune(*view, epochs=0)


class TestTrainingConfigValidation:
    """A value no run can train with raises at construction, naming
    the field — not deep inside collation or the first epoch, and not
    a fit that silently keeps its initial weights."""

    @pytest.mark.parametrize("field, value", [
        ("hidden_dim", 0), ("epochs", 0), ("batch_size", 0),
        ("lr_decay_every", 0), ("patience", 0),
        ("learning_rate", float("nan")), ("lr_decay", 0.0),
        ("grad_clip", -1.0), ("weight_decay", -1e-5),
        ("val_fraction", -0.1), ("loss", "foo"), ("scheme", "gat"),
    ])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"TrainingConfig.{field} "):
            TrainingConfig(**{field: value})


class TestPredictEmpty:
    def test_cost_model_predict_no_graphs(self):
        predictions = CostModel("throughput",
                                TrainingConfig(hidden_dim=8)).predict([])
        assert predictions.shape == (0,)
        assert predictions.dtype == np.float64
