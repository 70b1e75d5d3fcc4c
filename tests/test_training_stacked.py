"""Tests for the stacked-ensemble training engine (repro.training).

The contract under test: under a shared :class:`BatchSchedule`, the
:class:`StackedTrainer` is **bitwise identical** to the retained
sequential reference (:func:`fit_members_sequential`, i.e. the
``CostModel.fit`` loop) — per-member train/val loss trajectories,
early-stopping epochs, and final parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import GraphDataset
from repro.core.ensemble import MetricEnsemble
from repro.core.model import TrainableMemberStack
from repro.core.training import CostModel, TrainingConfig
from repro.data import BenchmarkCollector
from repro.nn import MLP, Adam, StackedAdam, Tensor, clip_grad_norm, \
    StackedMLP, stacked_clip_grad_norm
from repro.training import (BatchSchedule, StackedTrainer,
                            TrainingCorpus, fit_members_sequential)


@pytest.fixture(scope="module")
def corpus_data(tiny_corpus):
    return GraphDataset.from_traces(tiny_corpus[:120])


def _members(metric, config, size=3):
    return [CostModel(metric, config=config, seed=1000 * i)
            for i in range(size)]


def _assert_members_identical(sequential, stacked):
    for seq, stk in zip(sequential, stacked):
        assert seq.history.train_loss == stk.history.train_loss
        assert seq.history.val_loss == stk.history.val_loss
        assert seq.history.best_epoch == stk.history.best_epoch
        seq_state = seq.network.state_dict()
        stk_state = stk.network.state_dict()
        for key in seq_state:
            np.testing.assert_array_equal(seq_state[key],
                                          stk_state[key])


class TestStackedBitwiseEquivalence:
    @pytest.mark.parametrize("metric", ["processing_latency", "success"])
    def test_matches_sequential_reference(self, corpus_data, metric):
        """Regression AND binary (oversampled-pool) metrics: loss
        trajectories and final parameters bitwise equal."""
        graphs, labels = corpus_data.metric_view(metric)
        config = TrainingConfig(hidden_dim=12, epochs=4, patience=3)
        sequential = _members(metric, config)
        fit_members_sequential(sequential, graphs, labels,
                               schedule=BatchSchedule(0))
        stacked = _members(metric, config)
        StackedTrainer(stacked).fit(graphs, labels,
                                    schedule=BatchSchedule(0))
        _assert_members_identical(sequential, stacked)

    def test_early_stopping_per_member(self, corpus_data):
        """Members stopping at different epochs keep exactly the
        sequential loop's history lengths and best epochs."""
        graphs, labels = corpus_data.metric_view("throughput")
        config = TrainingConfig(hidden_dim=10, epochs=14, patience=2)
        sequential = _members("throughput", config, size=4)
        fit_members_sequential(sequential, graphs, labels,
                               schedule=BatchSchedule(11))
        stacked = _members("throughput", config, size=4)
        StackedTrainer(stacked).fit(graphs, labels,
                                    schedule=BatchSchedule(11))
        lengths = {len(m.history.train_loss) for m in sequential}
        assert len(lengths) > 1, "members should stop at different epochs"
        _assert_members_identical(sequential, stacked)

    def test_explicit_validation_set_and_epoch_budget(self, corpus_data):
        """The fine-tune path: explicit val data + epochs override."""
        graphs, labels = corpus_data.metric_view("processing_latency")
        val_graphs, val_labels = graphs[:25], labels[:25]
        config = TrainingConfig(hidden_dim=10, epochs=10, patience=9)
        sequential = _members("processing_latency", config, size=2)
        fit_members_sequential(sequential, graphs, labels, val_graphs,
                               val_labels, epochs=3,
                               schedule=BatchSchedule(5))
        stacked = _members("processing_latency", config, size=2)
        StackedTrainer(stacked).fit(graphs, labels, val_graphs,
                                    val_labels, epochs=3,
                                    schedule=BatchSchedule(5))
        _assert_members_identical(sequential, stacked)

    def test_single_member_stack(self, corpus_data):
        graphs, labels = corpus_data.metric_view("throughput")
        config = TrainingConfig(hidden_dim=10, epochs=3, patience=3)
        plain = CostModel("throughput", config=config, seed=0)
        plain.fit(graphs, labels, schedule=BatchSchedule(0))
        stacked = CostModel("throughput", config=config, seed=0)
        StackedTrainer([stacked]).fit(graphs, labels,
                                      schedule=BatchSchedule(0))
        _assert_members_identical([plain], [stacked])

    def test_unsupported_configuration_rejected(self, corpus_data):
        graphs, labels = corpus_data.metric_view("throughput")
        config = TrainingConfig(hidden_dim=8, epochs=2, dropout=0.3)
        trainer = StackedTrainer(_members("throughput", config, size=2))
        assert not trainer.supported()
        with pytest.raises(ValueError, match="stacked training"):
            trainer.fit(graphs, labels)


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


class TestStackedAdamEquivalence:
    def _mlps(self, size=3):
        return [MLP(6, [8], 4, np.random.default_rng(100 + i))
                for i in range(size)]

    def test_state_and_params_match_per_member_adam(self):
        """Satellite: K independent Adams vs one StackedAdam — moments
        and parameters bitwise equal after several clipped steps."""
        rng = np.random.default_rng(0)
        size = 3
        sequential = self._mlps(size)
        stacked_mlps = self._mlps(size)
        stack = StackedMLP.from_mlps(stacked_mlps).make_trainable()
        stacked_params = stack.trainable_parameters()
        seq_params = [mlp.parameters() for mlp in sequential]
        seq_opts = [Adam(params, lr=1e-2, weight_decay=1e-4)
                    for params in seq_params]
        stacked_opt = StackedAdam(stacked_params, size, lr=1e-2,
                                  weight_decay=1e-4)
        for _ in range(5):
            grads = [[rng.standard_normal(p.data.shape) * 3.0
                      for p in params] for params in seq_params]
            for params, opt, member_grads in zip(seq_params, seq_opts,
                                                 grads):
                for param, grad in zip(params, member_grads):
                    param.grad = grad.copy()
                clip_grad_norm(params, 1.0)
                opt.step()
                opt.zero_grad()
            for i, param in enumerate(stacked_params):
                param.grad = np.stack([member[i] for member in grads])
                # bias stacks carry a broadcast axis: (K, 1, out)
                param.grad = param.grad.reshape(param.data.shape)
            stacked_clip_grad_norm(stacked_params, 1.0, size)
            stacked_opt.step()
            stacked_opt.zero_grad()
        for k in range(size):
            member_params = seq_params[k]
            member_opt = seq_opts[k]
            moments = stacked_opt.member_state(k)
            for i, param in enumerate(member_params):
                np.testing.assert_array_equal(
                    stacked_params[i].data[k].reshape(param.data.shape),
                    param.data)
                np.testing.assert_array_equal(
                    moments[i][0].reshape(param.data.shape),
                    member_opt._m[i])
                np.testing.assert_array_equal(
                    moments[i][1].reshape(param.data.shape),
                    member_opt._v[i])

    def test_clip_norms_match(self):
        rng = np.random.default_rng(1)
        size = 3
        stacked = [Tensor(rng.standard_normal((size, 5, 4)),
                          requires_grad=True)]
        grads = rng.standard_normal((size, 5, 4)) * 4.0
        stacked[0].grad = grads.copy()
        norms = stacked_clip_grad_norm(stacked, 2.0, size)
        for k in range(size):
            member = [Tensor(np.zeros((5, 4)), requires_grad=True)]
            member[0].grad = grads[k].copy()
            norm = clip_grad_norm(member, 2.0)
            assert norms[k] == norm
            np.testing.assert_array_equal(stacked[0].grad[k],
                                          member[0].grad)

    def test_mismatched_leading_axis_rejected(self):
        param = Tensor(np.zeros((2, 3, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            StackedAdam([param], size=3)


class TestEnsembleRouting:
    def test_stacked_opt_in_matches_sequential_schedule(self, tiny_corpus):
        """MetricEnsemble.fit with member_training='stacked' equals the
        sequential loop under the ensemble-seeded shared schedule."""
        dataset = GraphDataset.from_traces(tiny_corpus[:90])
        graphs, labels = dataset.metric_view("processing_latency")
        stacked_config = TrainingConfig(hidden_dim=10, epochs=3,
                                        patience=3,
                                        member_training="stacked")
        ensemble = MetricEnsemble("processing_latency", size=2,
                                  config=stacked_config, seed=0)
        assert ensemble._stacked_training_supported()
        ensemble.fit(graphs, labels)
        reference_config = TrainingConfig(hidden_dim=10, epochs=3,
                                          patience=3)
        reference = [CostModel("processing_latency",
                               config=reference_config, seed=1000 * i)
                     for i in range(2)]
        fit_members_sequential(reference, graphs, labels,
                               schedule=BatchSchedule(0))
        for member, ref in zip(ensemble.members, reference):
            assert member.history.train_loss == ref.history.train_loss
            state = member.network.state_dict()
            ref_state = ref.network.state_dict()
            for key in state:
                np.testing.assert_array_equal(state[key],
                                              ref_state[key])

    def test_stacked_fit_invalidates_member_stacks(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus[:80])
        graphs, labels = dataset.metric_view("processing_latency")
        config = TrainingConfig(hidden_dim=10, epochs=2, patience=2,
                                member_training="stacked")
        ensemble = MetricEnsemble("processing_latency", size=2,
                                  config=config, seed=0)
        before = ensemble._member_predictions(graphs[:10])
        ensemble.fit(graphs, labels)
        after = ensemble._member_predictions(graphs[:10])
        assert not np.array_equal(before, after)
        # The rebuilt stack serves the trained weights bitwise.
        np.testing.assert_array_equal(
            after, ensemble._member_predictions_reference(graphs[:10]))

    def test_stacked_fine_tune_changes_weights(self, tiny_corpus):
        dataset = GraphDataset.from_traces(tiny_corpus[:80])
        graphs, labels = dataset.metric_view("processing_latency")
        config = TrainingConfig(hidden_dim=10, epochs=2, patience=4,
                                member_training="stacked")
        ensemble = MetricEnsemble("processing_latency", size=2,
                                  config=config, seed=0)
        ensemble.fit(graphs, labels)
        before = ensemble.members[0].network.state_dict()
        ensemble.fine_tune(graphs[:30], labels[:30], epochs=2)
        after = ensemble.members[0].network.state_dict()
        assert any(not np.array_equal(before[k], after[k])
                   for k in before)

    def test_per_member_default_unchanged(self, tiny_corpus):
        """The default config keeps the historical member-seeded loop:
        same results as calling member.fit directly."""
        dataset = GraphDataset.from_traces(tiny_corpus[:80])
        graphs, labels = dataset.metric_view("processing_latency")
        config = TrainingConfig(hidden_dim=10, epochs=2, patience=2)
        ensemble = MetricEnsemble("processing_latency", size=2,
                                  config=config, seed=0)
        assert not ensemble._stacked_training_supported()
        ensemble.fit(graphs, labels)
        reference = [CostModel("processing_latency", config=config,
                               seed=1000 * i) for i in range(2)]
        for member in reference:
            member.fit(graphs, labels)
        for member, ref in zip(ensemble.members, reference):
            assert member.history.train_loss == ref.history.train_loss


class TestTrainableMemberStack:
    def test_member_state_round_trip(self, corpus_data):
        config = TrainingConfig(hidden_dim=10)
        members = _members("throughput", config, size=2)
        stack = TrainableMemberStack([m.network for m in members])
        for k, member in enumerate(members):
            state = stack.member_state(k)
            reference = member.network.state_dict()
            assert set(state) == set(reference)
            for key in reference:
                np.testing.assert_array_equal(state[key],
                                              reference[key])

    def test_single_step_matches_per_member(self, corpus_data):
        from repro.core.graph import collate

        graphs, labels = corpus_data.metric_view("throughput")
        config = TrainingConfig(hidden_dim=12)
        members = _members("throughput", config, size=3)
        batch = collate(graphs[:16])
        chunk = labels[:16]
        stack = TrainableMemberStack([m.network for m in members])
        losses = stack.loss_and_grad(batch, chunk, "msle")
        stacked_params = stack.parameters()
        for k, member in enumerate(members):
            member.network.zero_grad()
            loss = member.network.loss_and_grad(batch, chunk, "msle")
            assert losses[k] == loss
            for i, param in enumerate(member.network.parameters()):
                np.testing.assert_array_equal(
                    stacked_params[i].grad[k].reshape(param.grad.shape),
                    param.grad)

    def test_loss_over_batches_matches_members(self, corpus_data):
        graphs, labels = corpus_data.metric_view("throughput")
        config = TrainingConfig(hidden_dim=12)
        members = _members("throughput", config, size=2)
        stack = TrainableMemberStack([m.network for m in members])
        from repro.core.training import paired_batches

        pairs = paired_batches(graphs[:40], labels[:40], 16)
        stacked_losses = stack.loss_over_batches(pairs, "msle")
        for k, member in enumerate(members):
            assert stacked_losses[k] == member._loss_over_batches(pairs)


class TestFoldedValidationForward:
    """``forward_members`` (the training-plan validation forward) is
    bitwise identical to the inference ``MemberStack`` forward."""

    @pytest.mark.parametrize("metric", ["throughput", "success"])
    def test_matches_inference_stack(self, corpus_data, metric):
        from repro.core.model import MemberStack
        from repro.core.training import paired_batches

        graphs, labels = corpus_data.metric_view(metric)
        config = TrainingConfig(hidden_dim=12)
        members = _members(metric, config, size=3)
        networks = [m.network for m in members]
        trainable = TrainableMemberStack(networks)
        inference = MemberStack(networks, dtype=np.float64)
        for batch, _ in paired_batches(graphs[:48], labels[:48], 16):
            np.testing.assert_array_equal(
                trainable.forward_members(batch),
                inference.forward_arrays(batch))

    def test_loss_over_batches_uses_training_plan(self, corpus_data):
        """Validation batches should build the (cheap) training-plan
        caches, not the member-tiled inference indexes."""
        from repro.core.training import paired_batches

        graphs, labels = corpus_data.metric_view("throughput")
        config = TrainingConfig(hidden_dim=12)
        members = _members("throughput", config, size=2)
        stack = TrainableMemberStack([m.network for m in members])
        pairs = paired_batches(graphs[:32], labels[:32], 16)
        stack.loss_over_batches(pairs, "msle")
        for batch, _ in pairs:
            # The training-plan caches were built...
            assert "_member_train_plan" in batch.__dict__
            # ...and the member-tiled inference indexes were not.
            assert "_member_plan" not in batch.__dict__
            assert "_member_flat_gid" not in batch.__dict__
