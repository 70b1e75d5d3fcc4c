"""Compact candidate scoring: the member stack runs a candidate batch's
encoders and both placement stages once per distinct row.

Contract (PERFORMANCE.md §18):

* GEMMs with >= 2 rows are row-invariant on the running BLAS — each
  output row depends on its own input row only.  The compact prefix
  rests on this property, so it is pinned here for every encoder and
  combiner of a model, in float64 and float32;
* the keyed forward (``batch.candidates`` set) equals each member's
  taped forward over the full batch fields bit for bit — decide-shaped
  batches, a single host, a single candidate, an operator type with
  one operator, pinned repair candidates, candidate columns out of
  plan order, and plans too large for a 64-bit column mask — and in
  float32 it equals the float32 full path;
* candidate batches are never fused into a mega-batch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import Costream, TrainingConfig, collate
from repro.hardware.cluster import sample_cluster
from repro.hardware.placement import IndexCandidates
from repro.nn import float32_inference, no_grad
from repro.placement.enumeration import HeuristicPlacementEnumerator
from repro.placement.repair import PlacementRepairer
from repro.query import DataType, Filter, QueryPlan, Sink, Source, \
    TupleSchema
from repro.query.generator import QueryGenerator

_METRICS = ("processing_latency", "success", "backpressure")


def _model(hidden_dim: int = 16, size: int = 3) -> Costream:
    config = TrainingConfig(hidden_dim=hidden_dim)
    return Costream(metrics=_METRICS, ensemble_size=size, config=config,
                    seed=0)


def _unkeyed(batch):
    return dataclasses.replace(batch, candidates=None)


def _taped(model: Costream, metric: str, batch) -> np.ndarray:
    """``(K, n_graphs)`` raw outputs of each member's taped forward —
    the full batch fields, no compact prefix."""
    with no_grad():
        return np.stack([member.network(batch).numpy()
                         for member in model.ensembles[metric].members])


def _assert_keyed_equals_taped(model: Costream, batches) -> None:
    for batch in batches:
        assert batch.candidates is not None
        for metric in _METRICS:
            stack = model.ensembles[metric].member_stack()
            np.testing.assert_array_equal(stack.forward_arrays(batch),
                                          _taped(model, metric, batch))


def _decisions(n: int, seed: int, n_nodes: int, n_candidates: int):
    rng = np.random.default_rng(seed)
    generator = QueryGenerator(seed=rng)
    for index in range(n):
        plan = generator.generate()
        cluster = sample_cluster(rng, n_nodes)
        candidates = HeuristicPlacementEnumerator(
            cluster, seed=index).enumerate_indices(plan, n_candidates)
        yield plan, cluster, candidates


def _chain_plan(n_filters: int) -> QueryPlan:
    operators = [Source("src", 500.0, TupleSchema.of("int", "double"))]
    operators += [Filter(f"f{i}", "<", DataType.DOUBLE, 0.9)
                  for i in range(n_filters)]
    operators.append(Sink("sink"))
    ids = [op.op_id for op in operators]
    return QueryPlan(operators, list(zip(ids, ids[1:])), name="chain")


class TestRowInvariance:
    """Rows of a >= 2-row GEMM equal the same rows inside a larger
    one.  A one-row GEMM may take another kernel, which is why the
    compact prefix pads a lone distinct row to two."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_encoders_and_combiners(self, dtype):
        model = _model(hidden_dim=48)
        stack = model.ensembles["processing_latency"].member_stack(dtype)
        rng = np.random.default_rng(5)
        subsets = [np.arange(2), np.arange(3, 5), np.arange(7, 40),
                   np.asarray([0, 57]), np.asarray([12, 3, 44, 9])]
        mlps = [(mlp, False) for mlp in stack.encoders.values()]
        mlps += [(mlp, True) for mlp in stack.combiners.values()]
        for mlp, per_member in mlps:
            fan_in = mlp.weights[0].shape[1]
            shape = (stack.size, 60, fan_in) if per_member else (60, fan_in)
            full_input = rng.normal(size=shape).astype(dtype)
            full = mlp.forward_array(full_input)
            for rows in subsets:
                part = mlp.forward_array(np.ascontiguousarray(
                    full_input[..., rows, :]))
                np.testing.assert_array_equal(part, full[:, rows])


class TestCompactForward:
    def test_decide_shaped_batches(self):
        """The perfbench decide shape: K=3, hidden 48, 30 candidates
        on 10-node clusters — with far fewer compact than batch rows."""
        model = _model(hidden_dim=48)
        for plan, cluster, candidates in _decisions(3, 11, 10, 30):
            batches = model.collate_placements(plan, candidates, cluster)
            for batch in batches:
                classes = batch.compact_classes()
                assert classes.n_compact < batch.n_nodes
            _assert_keyed_equals_taped(model, batches)

    def test_single_host(self):
        """Every candidate uses one node: one host class, padded host
        encoder and ops -> hw GEMMs."""
        model = _model()
        plan, cluster, candidates = next(_decisions(1, 3, 5, 6))
        pinned = IndexCandidates(
            np.full(candidates.assignment.shape, 2, dtype=np.int64),
            candidates.op_ids, candidates.node_ids)
        batches = model.collate_placements(plan, pinned, cluster)
        classes = batches[0].compact_classes()
        assert classes.n_host_classes == 1
        assert classes.n_stage1 == 2
        assert classes.host_rows.size == 2
        _assert_keyed_equals_taped(model, batches)

    def test_single_candidate(self):
        """One candidate: every full-batch GEMM keeps its own row count,
        one-row GEMMs included, so nothing is padded."""
        model = _model()
        for plan, cluster, candidates in _decisions(3, 4, 6, 1):
            batches = model.collate_placements(plan, candidates, cluster)
            assert batches[0].n_graphs == 1
            classes = batches[0].compact_classes()
            assert all(n_rows == n_slots
                       for _, n_rows, n_slots in classes.op_inputs)
            _assert_keyed_equals_taped(model, batches)

    def test_operator_type_with_one_operator(self):
        """A lone source and a lone sink: their encoders read two
        identical rows, and each keeps one slot."""
        model = _model()
        plan = _chain_plan(3)
        cluster = sample_cluster(np.random.default_rng(8), 5)
        candidates = HeuristicPlacementEnumerator(
            cluster, seed=0).enumerate_indices(plan, 12)
        batches = model.collate_placements(plan, candidates, cluster)
        inputs = {node_type: (n_rows, n_slots) for node_type, n_rows,
                  n_slots in batches[0].compact_classes().op_inputs}
        assert inputs["source"] == (2, 1)
        assert inputs["sink"] == (2, 1)
        _assert_keyed_equals_taped(model, batches)

    def test_pinned_repair_candidates(self):
        """Repair candidates pin every unaffected operator, so most rows
        repeat across candidates."""
        model = _model()
        repairer = PlacementRepairer(model)
        repaired = 0
        for plan, cluster, candidates in _decisions(3, 21, 8, 20):
            placement = candidates[0]
            affected = [placement.used_nodes()[0]]
            pinned, _ = repairer.repair_candidates(plan, cluster,
                                                   placement, affected,
                                                   n_candidates=20)
            if len(pinned) == 0:
                continue
            batches = model.collate_placements(plan, pinned, cluster)
            _assert_keyed_equals_taped(model, batches)
            repaired += 1
        assert repaired

    def test_columns_out_of_plan_order(self):
        """Candidates whose columns are not the plan's operator order
        (``CandidateLayout.columns`` set): operator slots, the expand
        map and the ops -> hw summation order follow the columns."""
        model = _model(hidden_dim=48)
        rng = np.random.default_rng(23)
        for plan, cluster, candidates in _decisions(3, 19, 10, 30):
            order = rng.permutation(candidates.n_ops)
            if np.array_equal(order, np.sort(order)):
                order = order[::-1]
            shuffled = IndexCandidates(
                candidates.assignment[:, order],
                tuple(candidates.op_ids[j] for j in order),
                candidates.node_ids)
            batches = model.collate_placements(plan, shuffled, cluster)
            assert all(batch.candidates.columns is not None
                       for batch in batches)
            _assert_keyed_equals_taped(model, batches)

    def test_plan_wider_than_a_machine_word(self):
        """Host classes key on a packed column mask of any width: a
        72-operator chain keys without overflow."""
        model = _model(size=2)
        plan = _chain_plan(70)
        cluster = sample_cluster(np.random.default_rng(9), 4)
        rng = np.random.default_rng(10)
        op_ids = tuple(plan.topological_order())
        assignment = rng.integers(0, 2, size=(5, len(op_ids)))
        assignment[:, 60:] = 3      # columns beyond bit 63 co-locate
        candidates = IndexCandidates(assignment, op_ids,
                                     cluster.node_ids)
        batches = model.collate_placements(plan, candidates, cluster)
        _assert_keyed_equals_taped(model, batches)

    def test_float32_matches_float32_full_path(self):
        model = _model(hidden_dim=48)
        with float32_inference():
            for plan, cluster, candidates in _decisions(3, 13, 10, 30):
                for batch in model.collate_placements(plan, candidates,
                                                      cluster):
                    for metric in _METRICS:
                        stack = model.ensembles[metric].member_stack()
                        assert stack.dtype == np.float32
                        np.testing.assert_array_equal(
                            stack.forward_arrays(batch),
                            stack.forward_arrays(_unkeyed(batch)))


class TestUnfused:
    def test_candidate_batches_pass_through_unmerged(self):
        model = _model()
        batches = []
        for plan, cluster, candidates in _decisions(3, 17, 6, 10):
            batches.extend(model.collate_placements(plan, candidates,
                                                    cluster))
        assert len(batches) == 3
        assert model.merged_inference_batches(batches) is batches

    def test_training_collation_is_unkeyed(self, small_cluster,
                                           linear_plan):
        """Training, ``collate()`` and the reference collation keep
        the full path: only candidate collation attaches a layout."""
        model = _model()
        placement = HeuristicPlacementEnumerator(
            small_cluster, seed=0).sample(linear_plan)
        graphs = model.build_graphs(linear_plan, [placement] * 2,
                                    small_cluster)
        assert collate(graphs).candidates is None
