"""Tests for the COSTREAM GNN forward/backward pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Featurizer, build_graph, collate
from repro.core.model import (MESSAGE_SCHEMES, CostreamGNN,
                              TrainableMemberStack)
from repro.hardware import Placement
from repro.nn import bce_with_logits_loss, msle_loss


@pytest.fixture
def graphs(linear_plan, join_plan, agg_plan, small_cluster,
           full_placement):
    featurizer = Featurizer("full")
    return [build_graph(plan, full_placement(plan), small_cluster,
                        featurizer)
            for plan in (linear_plan, join_plan, agg_plan)]


class TestForward:
    @pytest.mark.parametrize("scheme", MESSAGE_SCHEMES)
    def test_output_shape_per_graph(self, graphs, scheme):
        model = CostreamGNN(Featurizer("full"), hidden_dim=16, seed=0,
                            scheme=scheme)
        batch = collate(graphs)
        out = model(batch)
        assert out.shape == (3,)
        assert np.all(np.isfinite(out.numpy()))

    def test_batch_equals_individual(self, graphs):
        model = CostreamGNN(Featurizer("full"), hidden_dim=16, seed=0)
        batched = model(collate(graphs)).numpy()
        singles = [float(model(collate([g])).numpy()[0]) for g in graphs]
        np.testing.assert_allclose(batched, singles, rtol=1e-10)

    def test_placement_changes_prediction(self, linear_plan, small_cluster):
        featurizer = Featurizer("full")
        model = CostreamGNN(featurizer, hidden_dim=16, seed=0)
        packed = build_graph(
            linear_plan,
            Placement({o: "edge1" for o in linear_plan.topological_order()}),
            small_cluster, featurizer)
        spread = build_graph(
            linear_plan,
            Placement({"src1": "edge1", "filter1": "fog1",
                       "sink": "cloud1"}),
            small_cluster, featurizer)
        a = float(model(collate([packed])).numpy()[0])
        b = float(model(collate([spread])).numpy()[0])
        assert a != pytest.approx(b)

    def test_query_only_mode_runs(self, linear_plan, small_cluster,
                                  full_placement):
        featurizer = Featurizer("query_only")
        model = CostreamGNN(featurizer, hidden_dim=8, seed=1)
        graph = build_graph(linear_plan, full_placement(linear_plan),
                            small_cluster, featurizer)
        out = model(collate([graph]))
        assert out.shape == (1,)

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            CostreamGNN(scheme="psychic")


class TestBackward:
    def test_gradients_reach_every_parameter_staged(self, graphs):
        model = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=0)
        out = model(collate(graphs))
        (out * out).sum().backward()
        with_grad = [p for p in model.parameters() if p.grad is not None]
        # All encoders/combiners that saw data plus the readout get
        # gradients; at minimum most parameters must be reached.
        assert len(with_grad) >= 0.7 * len(model.parameters())
        for param in with_grad:
            assert np.all(np.isfinite(param.grad))

    def test_seed_controls_initialization(self, graphs):
        a = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=0)
        b = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=1)
        batch = collate(graphs)
        assert not np.allclose(a(batch).numpy(), b(batch).numpy())

    def test_same_seed_same_output(self, graphs):
        a = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=5)
        b = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=5)
        batch = collate(graphs)
        np.testing.assert_allclose(a(batch).numpy(), b(batch).numpy())

    def test_state_dict_round_trip_preserves_output(self, graphs):
        a = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=0)
        b = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=9)
        batch = collate(graphs)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(batch).numpy(), b(batch).numpy())


class TestManualStep:
    """The stacked step trains every staged model as a one-member
    stack.  It must replay the taped forward + ``loss.backward()`` bit
    for bit."""

    @pytest.mark.parametrize("loss_kind, loss_fn, labels", [
        ("msle", msle_loss, np.array([12.5, 300.0, 0.7])),
        ("bce", bce_with_logits_loss, np.array([0.0, 1.0, 1.0])),
    ])
    def test_matches_tape_bitwise(self, graphs, loss_kind, loss_fn,
                                  labels):
        batch = collate(graphs)
        stack = TrainableMemberStack(
            CostreamGNN(Featurizer("full"), hidden_dim=8, seed=0))
        loss_value = stack.loss_and_grad(batch, labels, loss_kind)
        taped = CostreamGNN(Featurizer("full"), hidden_dim=8, seed=0)
        loss = loss_fn(taped(batch), labels)
        loss.backward()
        assert loss_value == loss.item()
        for ours, tape in zip(stack.parameters(), taped.parameters()):
            assert (ours.grad is None) == (tape.grad is None)
            if tape.grad is not None:
                np.testing.assert_array_equal(
                    ours.grad.reshape(tape.grad.shape), tape.grad)


class TestMessagePassingSemantics:
    def test_staged_scheme_propagates_source_to_sink(self, join_plan,
                                                     small_cluster,
                                                     full_placement):
        """Changing a source feature must influence the readout (the
        SOURCES->OPS sweep carries it to the sink)."""
        featurizer = Featurizer("full")
        model = CostreamGNN(featurizer, hidden_dim=8, seed=0)
        graph = build_graph(join_plan, full_placement(join_plan),
                            small_cluster, featurizer)
        base = float(model(collate([graph])).numpy()[0])

        modified = build_graph(join_plan, full_placement(join_plan),
                               small_cluster, featurizer)
        source_row = modified.op_index["src1"]
        modified.features[source_row][0] += 1.0  # bump log event rate
        changed = float(model(collate([modified])).numpy()[0])
        assert base != pytest.approx(changed)

    def test_host_features_influence_prediction(self, join_plan,
                                                small_cluster,
                                                full_placement):
        featurizer = Featurizer("full")
        model = CostreamGNN(featurizer, hidden_dim=8, seed=0)
        graph = build_graph(join_plan, full_placement(join_plan),
                            small_cluster, featurizer)
        base = float(model(collate([graph])).numpy()[0])
        modified = build_graph(join_plan, full_placement(join_plan),
                               small_cluster, featurizer)
        host_row = next(iter(modified.host_index.values()))
        modified.features[host_row][0] += 2.0
        changed = float(model(collate([modified])).numpy()[0])
        assert base != pytest.approx(changed)
