"""Property-style equivalence of the vectorized and reference collation.

The fast path rewrote :func:`repro.core.collate` from per-node Python
loops to numpy array operations; the original implementation is
retained as :func:`repro.core.collate_reference` and every field of the
produced :class:`GraphBatch` must match exactly on randomized
query/cluster graphs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Featurizer, build_graph, collate,
                        collate_candidates, collate_chunks,
                        collate_reference, featurize_hosts, featurize_plan)
from repro.core.graph import GraphBatch, StageSlice
from repro.hardware import sample_cluster
from repro.placement.enumeration import HeuristicPlacementEnumerator
from repro.query.generator import QueryGenerator


def _assert_slices_equal(fast: dict[str, StageSlice],
                         slow: dict[str, StageSlice]) -> None:
    assert list(fast) == list(slow)  # same types, same order
    for node_type in slow:
        np.testing.assert_array_equal(fast[node_type].recv_rows,
                                      slow[node_type].recv_rows)
        np.testing.assert_array_equal(fast[node_type].edge_src,
                                      slow[node_type].edge_src)
        np.testing.assert_array_equal(fast[node_type].edge_seg,
                                      slow[node_type].edge_seg)


def assert_batches_equal(fast: GraphBatch, slow: GraphBatch) -> None:
    assert fast.n_nodes == slow.n_nodes
    assert fast.n_graphs == slow.n_graphs
    np.testing.assert_array_equal(fast.graph_id, slow.graph_id)
    assert list(fast.type_rows) == list(slow.type_rows)
    for node_type in slow.type_rows:
        np.testing.assert_array_equal(fast.type_rows[node_type],
                                      slow.type_rows[node_type])
        np.testing.assert_array_equal(fast.type_features[node_type],
                                      slow.type_features[node_type])
    _assert_slices_equal(fast.ops_to_hw, slow.ops_to_hw)
    _assert_slices_equal(fast.hw_to_ops, slow.hw_to_ops)
    assert len(fast.flow_levels) == len(slow.flow_levels)
    for fast_level, slow_level in zip(fast.flow_levels, slow.flow_levels):
        _assert_slices_equal(fast_level, slow_level)
    _assert_slices_equal(fast.neighbor_rounds, slow.neighbor_rounds)
    # The checks above give granular diagnostics; the shared
    # repro.core.batches_equal (which the CI-gated benchmark verdict
    # uses) is THE definition — finishing with it guarantees a field
    # added only there still fails the test suite.
    from repro.core import batches_equal
    assert batches_equal(fast, slow)


def _random_graphs(seed: int, n_graphs: int, mode: str = "full"):
    """Randomized (plan, placement, cluster) graphs, one per trace."""
    rng = np.random.default_rng(seed)
    generator = QueryGenerator(seed=rng)
    featurizer = Featurizer(mode)
    graphs = []
    for _ in range(n_graphs):
        plan = generator.generate()
        cluster = sample_cluster(rng, int(rng.integers(3, 8)))
        enumerator = HeuristicPlacementEnumerator(cluster, seed=rng)
        placement = enumerator.sample(plan)
        graphs.append(build_graph(plan, placement, cluster, featurizer))
    return graphs


class TestCollateEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_batches(self, seed):
        graphs = _random_graphs(seed, n_graphs=12)
        assert_batches_equal(collate(graphs), collate_reference(graphs))

    @pytest.mark.parametrize("mode", ["full", "placement_only",
                                      "query_only"])
    def test_featurization_modes(self, mode):
        graphs = _random_graphs(7, n_graphs=6, mode=mode)
        assert_batches_equal(collate(graphs), collate_reference(graphs))

    def test_single_graph_and_repeats(self):
        graphs = _random_graphs(11, n_graphs=1)
        assert_batches_equal(collate(graphs), collate_reference(graphs))
        repeated = graphs * 5
        assert_batches_equal(collate(repeated),
                             collate_reference(repeated))

    def test_corpus_traces(self, tiny_corpus):
        featurizer = Featurizer()
        graphs = [build_graph(t.plan, t.placement, t.cluster, featurizer,
                              t.selectivities) for t in tiny_corpus[:40]]
        assert_batches_equal(collate(graphs), collate_reference(graphs))
        for batch, start in zip(collate_chunks(graphs, 16),
                                range(0, len(graphs), 16)):
            assert_batches_equal(batch,
                                 collate_reference(graphs[start:start + 16]))


def _index_arrays(batch: GraphBatch) -> list[np.ndarray]:
    """Every index array of a batch."""
    arrays = [batch.graph_id, *batch.type_rows.values()]
    for slices in (batch.ops_to_hw, batch.hw_to_ops, *batch.flow_levels,
                   batch.neighbor_rounds):
        for stage in slices.values():
            arrays += [stage.recv_rows, stage.edge_src, stage.edge_seg]
    return arrays


def _assert_same_dtypes(fast: GraphBatch, slow: GraphBatch) -> None:
    """What :func:`assert_batches_equal` does not check: int64 indices
    and the reference's feature dtypes."""
    assert all(array.dtype == np.int64 for array in _index_arrays(fast))
    for node_type, features in slow.type_features.items():
        assert fast.type_features[node_type].dtype == features.dtype


class TestCollateSweep:
    """Generated batches: any graph count, index order and repeats, and
    every featurization mode, field for field and dtype for dtype."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 16), n_graphs=st.integers(1, 24),
           mode=st.sampled_from(["full", "placement_only", "query_only"]),
           data=st.data())
    def test_matches_reference(self, seed, n_graphs, mode, data):
        graphs = _random_graphs(seed, n_graphs, mode)
        order = data.draw(st.lists(st.integers(0, n_graphs - 1),
                                   min_size=1, max_size=32))
        batch = [graphs[i] for i in order]
        fast, slow = collate(batch), collate_reference(batch)
        assert_batches_equal(fast, slow)
        _assert_same_dtypes(fast, slow)

    @pytest.mark.parametrize("float32", [False, True])
    def test_mixed_dtype_graphs(self, float32):
        """Graphs featurized inside and outside ``float32_inference``
        collate as if each graph were cast to the target dtype first."""
        from repro.nn import float32_inference

        graphs = _random_graphs(31, n_graphs=5)
        with float32_inference():
            graphs += _random_graphs(32, n_graphs=5)
        batch = [graphs[i] for i in (7, 0, 3, 9, 1, 7, 5)]
        slow = collate_reference(batch)
        if float32:
            with float32_inference():
                fast = collate(batch)
            slow = dataclasses.replace(slow, type_features={
                node_type: features.astype(np.float32)
                for node_type, features in slow.type_features.items()})
        else:
            fast = collate(batch)
        assert_batches_equal(fast, slow)
        _assert_same_dtypes(fast, slow)
        expected = np.float32 if float32 else np.float64
        assert all(features.dtype == expected
                   for features in fast.type_features.values())


class TestCollateCandidates:
    """The optimizer's direct candidate batching must equal the
    reference collation of per-candidate graphs, field for field."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        plan = QueryGenerator(seed=rng).generate()
        cluster = sample_cluster(rng, int(rng.integers(3, 8)))
        enumerator = HeuristicPlacementEnumerator(cluster, seed=rng)
        placements = enumerator.enumerate(plan, 12)
        featurizer = Featurizer()
        fast = collate_candidates(
            featurize_plan(plan, featurizer),
            placements, featurize_hosts(cluster, featurizer))
        slow = collate_reference(
            [build_graph(plan, p, cluster, featurizer)
             for p in placements])
        assert_batches_equal(fast, slow)

    def test_partial_placement_rejected(self):
        rng = np.random.default_rng(3)
        plan = QueryGenerator(seed=rng).generate()
        cluster = sample_cluster(rng, 4)
        placement = HeuristicPlacementEnumerator(cluster, seed=0) \
            .sample(plan)
        partial = dict(placement.items())
        partial.pop(next(iter(partial)))
        from repro.hardware import Placement
        featurizer = Featurizer()
        with pytest.raises(ValueError):
            collate_candidates(featurize_plan(plan, featurizer),
                               [Placement(partial)],
                               featurize_hosts(cluster, featurizer))


class TestFloat32Collation:
    """float32 end-to-end collation (see PERFORMANCE.md section 6)."""

    def test_collate_inside_context_is_float32_native(self):
        from repro.nn import float32_inference

        graphs = _random_graphs(21, n_graphs=6)
        with float32_inference():
            batch = collate(graphs)
        for node_type, features in batch.type_features.items():
            assert features.dtype == np.float32
            np.testing.assert_array_equal(batch.type_rows[node_type].dtype,
                                          np.int64)
        # The float32 matrices are the one-step cast of the float64
        # ones — identical to casting at forward time.
        reference = collate(graphs)
        for node_type in reference.type_features:
            np.testing.assert_array_equal(
                batch.type_features[node_type],
                reference.type_features[node_type].astype(np.float32))
        # Index/stage arrays are untouched by the dtype.
        _assert_slices_equal(batch.hw_to_ops, reference.hw_to_ops)
        _assert_slices_equal(batch.ops_to_hw, reference.ops_to_hw)

    def test_float64_path_unchanged(self):
        """Outside the context nothing changes: native float64."""
        graphs = _random_graphs(22, n_graphs=5)
        batch = collate(graphs)
        for features in batch.type_features.values():
            assert features.dtype == np.float64
        assert_batches_equal(batch, collate_reference(graphs))

    def test_graphs_built_inside_context_are_float32_native(self):
        from repro.nn import float32_inference

        with float32_inference():
            graphs = _random_graphs(23, n_graphs=4)
            batch = collate(graphs)
        for graph in graphs:
            assert all(f.dtype == np.float32 for f in graph.features)
        for features in batch.type_features.values():
            assert features.dtype == np.float32


class TestPlanFeaturizationCache:
    def test_cached_build_matches_fresh_build(self, tiny_corpus):
        """build_graph with precomputed plan/host features is identical."""
        featurizer = Featurizer()
        for trace in tiny_corpus[:20]:
            fresh = build_graph(trace.plan, trace.placement, trace.cluster,
                                featurizer, trace.selectivities)
            cached = build_graph(
                trace.plan, trace.placement, trace.cluster, featurizer,
                trace.selectivities,
                plan_features=featurize_plan(trace.plan, featurizer,
                                             trace.selectivities),
                host_features=featurize_hosts(trace.cluster, featurizer))
            assert fresh.node_types == cached.node_types
            assert fresh.flow_edges == cached.flow_edges
            assert fresh.placement_edges == cached.placement_edges
            assert fresh.flow_depth == cached.flow_depth
            assert fresh.op_index == cached.op_index
            assert fresh.host_index == cached.host_index
            for a, b in zip(fresh.features, cached.features):
                np.testing.assert_array_equal(a, b)
            assert_batches_equal(collate([cached]),
                                 collate_reference([fresh]))
