"""Batched-GEMM ensemble inference vs the per-member taped forward.

The float64 member stack must be **bitwise** identical to each
member's taped forward (every batched kernel — stacked matmul,
member-tiled bincount scatter-add — replays the taped kernel per
slice); float32 stacks must stay within the documented tolerance.  The
reordering optimizer's fused direct batching must reproduce the
per-ordering graph-object path exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Costream, MemberStack, MetricEnsemble, \
    TrainingConfig
from repro.core.dataset import GraphDataset
from repro.experiments.hotpaths import FLOAT32_TOLERANCE
from repro.nn import MLP, StackedMLP, float32_inference, inference_dtype
from repro.nn.autodiff import legacy_kernels
from repro.optimizations import ReorderingOptimizer
from repro.query import DataType, Filter, QueryPlan, Sink, Source, \
    TupleSchema


@pytest.fixture(scope="module")
def tiny_config():
    # batch_size 16 forces the multi-batch concatenation path.
    return TrainingConfig(hidden_dim=12, epochs=4, patience=4,
                          batch_size=16)


@pytest.fixture(scope="module")
def dataset(tiny_corpus):
    return GraphDataset.from_traces(tiny_corpus)


@pytest.fixture(scope="module")
def trained(dataset, tiny_config):
    ensembles = {}
    for metric in ("processing_latency", "backpressure"):
        ensemble = MetricEnsemble(metric, size=3, config=tiny_config,
                                  seed=1)
        graphs, labels = dataset.metric_view(metric)
        ensemble.fit(graphs, labels)
        ensembles[metric] = ensemble
    return ensembles


class TestFloat64Bitwise:
    @pytest.mark.parametrize("metric", ["processing_latency",
                                        "backpressure"])
    def test_trained_multi_batch_bitwise(self, trained, dataset, metric,
                                         tape_predictions):
        ensemble = trained[metric]
        graphs, _ = dataset.metric_view(metric)
        fast = ensemble._member_predictions(graphs[:50])
        reference = tape_predictions(ensemble, graphs[:50])
        np.testing.assert_array_equal(fast, reference)

    def test_untrained_single_batch_bitwise(self, dataset, tiny_config,
                                            tape_predictions):
        ensemble = MetricEnsemble("e2e_latency", size=2,
                                  config=tiny_config, seed=7)
        graphs, _ = dataset.metric_view("e2e_latency")
        np.testing.assert_array_equal(
            ensemble._member_predictions(graphs[:10]),
            tape_predictions(ensemble, graphs[:10]))

    def test_matches_member_predict_loop(self, trained, dataset):
        ensemble = trained["processing_latency"]
        graphs, _ = dataset.metric_view("processing_latency")
        combined = ensemble.predict(graphs[:20])
        members = np.stack([m.predict(graphs[:20])
                            for m in ensemble.members])
        np.testing.assert_array_equal(combined, members.mean(axis=0))

    def test_predict_proba_batched(self, trained, dataset,
                                   tape_predictions):
        ensemble = trained["backpressure"]
        graphs, _ = dataset.metric_view("backpressure")
        proba = ensemble.predict_proba(graphs[:20])
        reference = tape_predictions(ensemble, graphs[:20])
        np.testing.assert_array_equal(proba, reference.mean(axis=0))

    def test_legacy_kernels_fall_back(self, trained, dataset):
        ensemble = trained["processing_latency"]
        graphs, _ = dataset.metric_view("processing_latency")
        expected = ensemble.predict(graphs[:8])
        with legacy_kernels():
            np.testing.assert_allclose(ensemble.predict(graphs[:8]),
                                       expected, rtol=0, atol=1e-9)


class TestFloat32Mode:
    def test_within_documented_tolerance(self, trained, dataset):
        ensemble = trained["processing_latency"]
        graphs, _ = dataset.metric_view("processing_latency")
        float64 = ensemble._member_predictions(graphs[:50])
        with float32_inference():
            float32 = ensemble._member_predictions(graphs[:50])
        relative = np.max(np.abs(float32 - float64)
                          / (np.abs(float64) + 1e-9))
        assert relative <= FLOAT32_TOLERANCE
        assert not np.array_equal(float32, float64)  # it IS float32

    def test_outputs_stay_float64(self, trained, dataset):
        # Label-space predictions are float64 regardless of the
        # inference dtype; float32 covers the forward only.
        ensemble = trained["backpressure"]
        graphs, _ = dataset.metric_view("backpressure")
        with float32_inference():
            assert ensemble._member_predictions(graphs[:5]).dtype \
                == np.float64

    def test_context_manager_restores(self):
        assert inference_dtype() == np.float64
        with float32_inference():
            assert inference_dtype() == np.float32
            with float32_inference():
                assert inference_dtype() == np.float32
            assert inference_dtype() == np.float32
        assert inference_dtype() == np.float64

    def test_stacks_cached_per_dtype(self, trained):
        ensemble = trained["processing_latency"]
        stack64 = ensemble.member_stack()
        with float32_inference():
            stack32 = ensemble.member_stack()
            assert stack32 is not stack64
            assert stack32.dtype == np.float32
            # Both dtypes stay cached side by side.
            assert ensemble.member_stack(np.float64) is stack64
        assert ensemble.member_stack() is stack64


class TestStackCacheInvalidation:
    def test_stack_reused_across_predictions(self, trained):
        ensemble = trained["processing_latency"]
        assert ensemble.member_stack() is ensemble.member_stack()

    def test_fit_invalidates(self, dataset, tiny_config,
                             tape_predictions):
        ensemble = MetricEnsemble("throughput", size=2,
                                  config=tiny_config, seed=3)
        graphs, labels = dataset.metric_view("throughput")
        ensemble.fit(graphs[:60], labels[:60])
        before = ensemble.member_stack()
        ensemble.fine_tune(graphs[:20], labels[:20], epochs=1)
        after = ensemble.member_stack()
        assert after is not before
        np.testing.assert_array_equal(
            ensemble._member_predictions(graphs[:10]),
            tape_predictions(ensemble, graphs[:10]))

    def test_in_place_mutation_requires_invalidate(self, dataset,
                                                   tiny_config,
                                                   tape_predictions):
        """The documented escape hatch for in-place ``param.data``
        writes: the identity sweep cannot see them (same array
        object), so the cached stack serves STALE predictions until
        ``invalidate_stacks()`` is called — after which the stack is
        rebuilt and matches the live taped forward again.
        Nothing in the repository mutates parameters in place between
        predictions; external callers that do must use the hatch.
        """
        ensemble = MetricEnsemble("throughput", size=2,
                                  config=tiny_config, seed=7)
        graphs, _ = dataset.metric_view("throughput")
        stale = ensemble._member_predictions(graphs[:10])

        for member in ensemble.members:
            for param in member.network.parameters():
                param.data *= 1.5  # in-place: array identity unchanged

        # The stack snapshot has not noticed: predictions are stale
        # (bitwise equal to pre-mutation), while the live taped
        # forward already sees the new weights.
        np.testing.assert_array_equal(
            ensemble._member_predictions(graphs[:10]), stale)
        reference = tape_predictions(ensemble, graphs[:10])
        assert np.max(np.abs(reference - stale)) > 0.0

        ensemble.invalidate_stacks()
        np.testing.assert_array_equal(
            ensemble._member_predictions(graphs[:10]), reference)

    def test_member_level_load_invalidates(self, dataset, tiny_config,
                                           tape_predictions):
        # A member's load_state_dict replaces its parameter arrays;
        # the identity check must catch it without an explicit
        # invalidate_stacks() call.
        ensemble = MetricEnsemble("throughput", size=2,
                                  config=tiny_config, seed=5)
        before = ensemble.member_stack()
        state = ensemble.members[0].network.state_dict()
        state["p0"] = state["p0"] + 1.0
        ensemble.members[0].network.load_state_dict(state)
        after = ensemble.member_stack()
        assert after is not before
        graphs, _ = dataset.metric_view("throughput")
        np.testing.assert_array_equal(
            ensemble._member_predictions(graphs[:10]),
            tape_predictions(ensemble, graphs[:10]))


class TestStackValidation:
    def test_mismatched_mlps_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            StackedMLP.from_mlps([MLP(4, [8], 2, rng),
                                  MLP(4, [6], 2, rng)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            StackedMLP.from_mlps([])

    def test_traditional_scheme_rejected(self, tiny_config):
        from dataclasses import replace
        config = replace(tiny_config, scheme="traditional")
        ensemble = MetricEnsemble("throughput", size=2, config=config)
        with pytest.raises(ValueError):
            MemberStack([m.network for m in ensemble.members])
        # ...and the ensemble routes around it via the members' tape.
        assert not ensemble._supports_batched()


def _chain_plan(selectivities):
    operators = [Source("src1", 1000.0, TupleSchema.of("int", "double"))]
    edges = []
    previous = "src1"
    for index, selectivity in enumerate(selectivities):
        op_id = f"f{index + 1}"
        operators.append(Filter(op_id, "<", DataType.DOUBLE,
                                selectivity))
        edges.append((previous, op_id))
        previous = op_id
    operators.append(Sink("sink"))
    edges.append((previous, "sink"))
    return QueryPlan(operators, edges)


class TestReorderingDirectBatching:
    @pytest.fixture(scope="class")
    def model(self, tiny_corpus):
        config = TrainingConfig(hidden_dim=12, epochs=4, patience=4)
        model = Costream(
            metrics=("processing_latency", "success", "backpressure"),
            ensemble_size=2, config=config, seed=0)
        return model.fit(tiny_corpus[:110])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_fused_matches_graph_object_path(self, model, small_cluster,
                                             seed):
        plan = _chain_plan((0.9, 0.1, 0.5))
        optimizer = ReorderingOptimizer(model)
        fused = optimizer.optimize(plan, small_cluster, n_candidates=6,
                                   seed=seed)
        reference = optimizer.optimize_reference(
            plan, small_cluster, n_candidates=6, seed=seed)
        assert fused.plan.edges == reference.plan.edges
        assert dict(fused.placement.items()) \
            == dict(reference.placement.items())
        assert fused.predicted_objective \
            == reference.predicted_objective
        assert fused.rewrites_evaluated == reference.rewrites_evaluated
        assert fused.reordered == reference.reordered

    def test_no_filter_chain_single_rewrite(self, model, small_cluster,
                                            join_plan):
        optimizer = ReorderingOptimizer(model)
        fused = optimizer.optimize(join_plan, small_cluster,
                                   n_candidates=5, seed=1)
        reference = optimizer.optimize_reference(
            join_plan, small_cluster, n_candidates=5, seed=1)
        assert not fused.reordered
        assert fused.predicted_objective \
            == reference.predicted_objective
