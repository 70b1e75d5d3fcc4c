"""Tests for the training engine (repro.training).

Every cost model trains through one loop, ``CostModel.fit``; the
staged scheme steps a one-member :class:`TrainableMemberStack`, whose
step, validation forward and state are checked here against the taped
network and the inference :class:`MemberStack`, bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import GraphDataset
from repro.core.ensemble import MetricEnsemble
from repro.core.model import TrainableMemberStack
from repro.core.training import CostModel, TrainingConfig
from repro.nn import Adam
from repro.training import BatchSchedule, TrainingCorpus


@pytest.fixture(scope="module")
def corpus_data(tiny_corpus):
    return GraphDataset.from_traces(tiny_corpus[:120])


class TestStackedBitwiseEquivalence:
    def test_explicit_validation_set_and_epoch_budget(self, corpus_data):
        """The fine-tune path: an explicit validation set draws no
        split, the epoch budget overrides the config, and the loss
        recorded at the best epoch is the taped loss of the restored
        weights on that set, bit for bit."""
        graphs, labels = corpus_data.metric_view("processing_latency")
        val_graphs, val_labels = graphs[:25], labels[:25]
        config = TrainingConfig(hidden_dim=10, epochs=10, patience=9)
        model = CostModel("processing_latency", config=config, seed=0)
        schedule = BatchSchedule(5)
        history = model.fit(graphs, labels, val_graphs, val_labels,
                            epochs=3, schedule=schedule)
        assert schedule._split_order is None
        assert len(history.train_loss) == len(history.val_loss) == 3
        assert history.val_loss[history.best_epoch] \
            == model.evaluate_loss(val_graphs, val_labels)

    def test_single_member_stack(self, corpus_data):
        """Without a schedule, a fit draws from
        ``BatchSchedule(model.seed)``."""
        graphs, labels = corpus_data.metric_view("throughput")
        config = TrainingConfig(hidden_dim=10, epochs=3, patience=3)
        plain = CostModel("throughput", config=config, seed=4)
        plain.fit(graphs, labels)
        scheduled = CostModel("throughput", config=config, seed=4)
        scheduled.fit(graphs, labels, schedule=BatchSchedule(4))
        assert plain.history == scheduled.history
        state = scheduled.network.state_dict()
        for key, value in plain.network.state_dict().items():
            np.testing.assert_array_equal(value, state[key])


class TestBatchSchedule:
    def test_draws_are_deterministic_and_cached(self):
        a = BatchSchedule(3)
        b = BatchSchedule(3)
        pool = np.arange(50)
        np.testing.assert_array_equal(a.split_order(50),
                                      b.split_order(50))
        for epoch in range(3):
            np.testing.assert_array_equal(a.epoch_order(epoch, pool),
                                          b.epoch_order(epoch, pool))
        # Cached: asking again returns the same draw.
        np.testing.assert_array_equal(a.epoch_order(1, pool),
                                      b.epoch_order(1, pool))

    def test_matches_cost_model_rng(self):
        """The schedule replays CostModel.fit's exact RNG sequence."""
        schedule = BatchSchedule(17)
        rng = np.random.default_rng(17)
        np.testing.assert_array_equal(schedule.split_order(80),
                                      rng.permutation(80))
        pool = np.arange(64)
        for epoch in range(2):
            np.testing.assert_array_equal(
                schedule.epoch_order(epoch, pool),
                pool[rng.permutation(64)])

    def test_split_after_epoch_draw_rejected(self):
        schedule = BatchSchedule(0)
        schedule.epoch_order(0, np.arange(10))
        with pytest.raises(RuntimeError):
            schedule.split_order(10)

    def test_mismatched_sizes_rejected(self):
        schedule = BatchSchedule(0)
        schedule.split_order(10)
        with pytest.raises(ValueError):
            schedule.split_order(11)
        schedule.epoch_order(0, np.arange(10))
        with pytest.raises(ValueError):
            schedule.epoch_order(0, np.arange(12))

    def test_val_pairs_collated_once(self, corpus_data):
        schedule = BatchSchedule(0)
        labels = corpus_data.labels["throughput"]
        first = schedule.val_pairs(corpus_data.graphs[:20], labels[:20],
                                   batch_size=8)
        second = schedule.val_pairs(corpus_data.graphs[:20],
                                    labels[:20], batch_size=8)
        assert first is second
        assert sum(batch.n_graphs for batch, _ in first) == 20


class TestTrainingCorpus:
    def test_metric_views_cached(self, tiny_corpus):
        corpus = TrainingCorpus.from_traces(tiny_corpus[:60])
        graphs_a, labels_a = corpus.metric_view("throughput")
        graphs_b, labels_b = corpus.metric_view("throughput")
        assert graphs_a is graphs_b
        assert labels_a is labels_b
        assert len(corpus) == 60

    def test_metric_view_semantics_unchanged(self, tiny_corpus):
        corpus = TrainingCorpus.from_traces(tiny_corpus[:60])
        graphs, labels = corpus.metric_view("processing_latency")
        success = corpus.dataset.labels["success"]
        assert len(graphs) == int((success > 0.5).sum())
        assert len(labels) == len(graphs)


class TestEnsembleRouting:
    def test_per_member_default_unchanged(self, tiny_corpus):
        """An ensemble trains each member through ``member.fit`` under
        its own member-seeded schedule."""
        dataset = GraphDataset.from_traces(tiny_corpus[:80])
        graphs, labels = dataset.metric_view("processing_latency")
        config = TrainingConfig(hidden_dim=10, epochs=2, patience=2)
        ensemble = MetricEnsemble("processing_latency", size=2,
                                  config=config, seed=0)
        ensemble.fit(graphs, labels)
        reference = [CostModel("processing_latency", config=config,
                               seed=1000 * i) for i in range(2)]
        for member in reference:
            member.fit(graphs, labels)
        for member, ref in zip(ensemble.members, reference):
            assert member.history.train_loss == ref.history.train_loss


class TestTrainableMemberStack:
    def test_member_state_round_trip(self):
        model = CostModel("throughput", TrainingConfig(hidden_dim=10),
                          seed=1000)
        state = TrainableMemberStack(model.network).member_state()
        reference = model.network.state_dict()
        assert set(state) == set(reference)
        for key in reference:
            assert state[key].shape == reference[key].shape
            np.testing.assert_array_equal(state[key], reference[key])

    def test_single_step_matches_per_member(self, corpus_data):
        """One step on a corpus batch equals the taped forward plus
        ``loss.backward()``: loss value and every gradient."""
        from repro.core.graph import collate

        graphs, labels = corpus_data.metric_view("throughput")
        model = CostModel("throughput", TrainingConfig(hidden_dim=12),
                          seed=2000)
        batch = collate(graphs[:16])
        chunk = labels[:16]
        stack = TrainableMemberStack(model.network)
        loss_value = stack.loss_and_grad(batch, chunk, "msle")
        loss = model._loss(model.network(batch), chunk)
        loss.backward()
        assert loss_value == loss.item()
        for ours, param in zip(stack.parameters(),
                               model.network.parameters()):
            np.testing.assert_array_equal(
                ours.grad.reshape(param.grad.shape), param.grad)

    def test_loss_over_batches_matches_members(self, corpus_data):
        from repro.core.training import paired_batches

        graphs, labels = corpus_data.metric_view("throughput")
        model = CostModel("throughput", TrainingConfig(hidden_dim=12),
                          seed=1000)
        stack = TrainableMemberStack(model.network)
        pairs = paired_batches(graphs[:40], labels[:40], 16)
        assert stack.loss_over_batches(pairs, "msle") \
            == model._loss_over_batches(pairs)


class TestFoldedValidationForward:
    """The trainable stack validates through its inherited
    ``forward_arrays``: its weights are live aliases of the stepped
    parameter Tensors, so the forward equals an inference stack built
    from the member's current state."""

    @pytest.mark.parametrize("metric", ["throughput", "success"])
    def test_matches_inference_stack(self, corpus_data, metric):
        from repro.core.model import MemberStack
        from repro.core.training import paired_batches

        graphs, labels = corpus_data.metric_view(metric)
        model = CostModel(metric, TrainingConfig(hidden_dim=12), seed=0)
        trainable = TrainableMemberStack(model.network)
        pairs = paired_batches(graphs[:48], labels[:48], 16)
        optimizer = Adam(trainable.parameters(), lr=1e-2)
        trainable.loss_and_grad(*pairs[0],
                                "msle" if metric == "throughput"
                                else "bce")
        optimizer.step()  # in place: the stacks must see the new values
        model.network.load_state_dict(trainable.member_state())
        inference = MemberStack([model.network], dtype=np.float64)
        for batch, _ in pairs:
            np.testing.assert_array_equal(
                trainable.forward_arrays(batch),
                inference.forward_arrays(batch))


class TestFlatArena:
    """The staged step's parameters, gradients and Adam state live in
    flat buffers: no per-tensor gradient is allocated per step, and one
    ``adam_update`` steps every touched tensor."""

    def test_one_buffer_each_and_one_update_per_step(self, corpus_data):
        from repro.core.graph import collate
        from repro.nn import ComputeBackend, compute_backend

        class Counting(ComputeBackend):
            updates = 0

            def adam_update(self, *args):
                Counting.updates += 1
                return super().adam_update(*args)

        graphs, labels = corpus_data.metric_view("throughput")
        model = CostModel("throughput", TrainingConfig(hidden_dim=12),
                          seed=0)
        stack = TrainableMemberStack(model.network)
        params = stack.parameters()
        optimizer = Adam(params, lr=1e-2)
        assert optimizer._m.shape == optimizer._v.shape \
            == optimizer._s1.shape == optimizer._s2.shape \
            == params.data.shape == (params.data.size,)
        for mlp in stack._stacked_mlps():
            for array in mlp.weights + mlp.biases:
                assert np.shares_memory(array, params.data)
        batch = collate(graphs)
        assert len(batch.type_rows) == 6  # every node type: all touched
        for step in range(2):
            optimizer.zero_grad()
            assert all(param.grad is None for param in params)
            stack.loss_and_grad(batch, labels, "msle")
            for param, view in zip(params, params.grads):
                assert param.grad is view
                assert np.shares_memory(param.grad, params.grad)
            with compute_backend(Counting()):
                optimizer.step()
            assert Counting.updates == step + 1
