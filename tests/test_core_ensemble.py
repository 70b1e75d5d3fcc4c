"""Tests for metric ensembles and the Costream facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Costream, MetricEnsemble, TrainingConfig
from repro.core.dataset import GraphDataset


@pytest.fixture(scope="module")
def tiny_config():
    return TrainingConfig(hidden_dim=12, epochs=5, patience=5)


class TestMetricEnsemble:
    def test_size_validated(self):
        with pytest.raises(ValueError):
            MetricEnsemble("throughput", size=0)

    def test_regression_mean_combination(self, tiny_corpus, tiny_config):
        dataset = GraphDataset.from_traces(tiny_corpus)
        ensemble = MetricEnsemble("throughput", size=2, config=tiny_config)
        graphs, labels = dataset.metric_view("throughput")
        ensemble.fit(graphs, labels)
        combined = ensemble.predict(graphs[:10])
        members = np.stack([m.predict(graphs[:10])
                            for m in ensemble.members])
        np.testing.assert_allclose(combined, members.mean(axis=0))

    def test_majority_vote(self, tiny_corpus, tiny_config):
        dataset = GraphDataset.from_traces(tiny_corpus)
        ensemble = MetricEnsemble("backpressure", size=3,
                                  config=tiny_config)
        graphs, labels = dataset.metric_view("backpressure")
        ensemble.fit(graphs, labels)
        votes = ensemble.predict(graphs[:20])
        assert set(np.unique(votes)).issubset({0.0, 1.0})
        member_votes = np.stack([m.predict(graphs[:20]) >= 0.5
                                 for m in ensemble.members])
        expected = member_votes.sum(axis=0) * 2 > 3
        np.testing.assert_array_equal(votes.astype(bool), expected)

    def test_predict_proba_regression_rejected(self, tiny_config):
        ensemble = MetricEnsemble("throughput", size=1, config=tiny_config)
        with pytest.raises(ValueError):
            ensemble.predict_proba([])

    def test_members_have_distinct_seeds(self, tiny_config):
        ensemble = MetricEnsemble("throughput", size=3, config=tiny_config)
        seeds = {m.seed for m in ensemble.members}
        assert len(seeds) == 3

    @pytest.mark.parametrize("metric", ["throughput", "backpressure"])
    def test_predict_no_graphs(self, tiny_config, metric):
        ensemble = MetricEnsemble(metric, size=3, config=tiny_config)
        predictions = ensemble.predict([])
        assert predictions.shape == (0,)
        assert predictions.dtype == np.float64

    def test_predict_proba_no_graphs(self, tiny_config):
        ensemble = MetricEnsemble("backpressure", size=3,
                                  config=tiny_config)
        probabilities = ensemble.predict_proba([])
        assert probabilities.shape == (0,)
        assert probabilities.dtype == np.float64


class TestCostreamFacade:
    @pytest.fixture(scope="class")
    def trained(self, tiny_corpus):
        config = TrainingConfig(hidden_dim=12, epochs=5, patience=5)
        model = Costream(metrics=("throughput", "success"),
                         ensemble_size=1, config=config, seed=3)
        model.fit(tiny_corpus[:100], tiny_corpus[100:120])
        return model

    def test_predict_returns_metrics(self, trained, tiny_corpus):
        trace = tiny_corpus[0]
        predicted = trained.predict(trace.plan, trace.placement,
                                    trace.cluster, trace.selectivities)
        assert predicted.throughput >= 0.0
        assert isinstance(predicted.success, bool)

    def test_metrics_property(self, trained):
        assert trained.metrics == ("throughput", "success")

    def test_predict_metric_batches(self, trained, tiny_corpus):
        graphs = [trained.build_graph(t.plan, t.placement, t.cluster,
                                      t.selectivities)
                  for t in tiny_corpus[:7]]
        out = trained.predict_metric("throughput", graphs)
        assert out.shape == (7,)

    @pytest.mark.parametrize("metric", ["throughput", "success"])
    def test_predict_metric_no_graphs(self, trained, metric):
        out = trained.predict_metric(metric, [])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_fine_tune_runs(self, trained, tiny_corpus):
        trained.fine_tune(tiny_corpus[:30], epochs=2)
