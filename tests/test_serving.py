"""Cross-decision serving: waves, float32 end-to-end, the loop.

The throughput engine's contract (PERFORMANCE.md):

* float64 wave decisions are bitwise identical to sequential
  :meth:`PlacementOptimizer.optimize` calls — chosen placements,
  per-candidate objectives, feasibility counts;
* :func:`repro.core.graph.merge_batches` produces exactly the batch a
  joint collation would (staged fields), and merged predictions equal
  per-batch predictions bit for bit (candidate batches score on their
  compact rows and are not fused by serving);
* under :class:`repro.nn.float32_inference` featurization/collation
  are float32 end-to-end, bitwise equal to the old cast-at-forward
  path and within the documented decision-level tolerance of float64;
* pre-enumerated candidates that do not fit their request's plan and
  cluster are rejected before scoring, naming what is wrong;
* the serving loop decides each request on arrival, bitwise equal to
  sequential ``optimize``, under concurrent submitters, cancellation
  and backpressure.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.costream import Costream
from repro.core.graph import (collate, collate_chunks, mega_mergeable,
                              merge_batches)
from repro.core.training import TrainingConfig
from repro.hardware.cluster import sample_cluster
from repro.hardware.placement import IndexCandidates, Placement
from repro.nn import float32_inference
from repro.placement.enumeration import HeuristicPlacementEnumerator
from repro.placement.optimizer import PlacementOptimizer
from repro.query.generator import QueryGenerator
from repro.serving import (BackpressureError, DecisionBatcher,
                           DecisionRequest, ServingLoop)

# Per-test deadline (enforced by pytest-timeout in CI): serving-loop
# tests block on threads and must never wedge the suite.
pytestmark = pytest.mark.timeout(120)

_METRICS = ("processing_latency", "success", "backpressure")


def _model(hidden_dim: int = 16, size: int = 2,
           scheme: str = "staged") -> Costream:
    config = TrainingConfig(hidden_dim=hidden_dim, scheme=scheme)
    return Costream(metrics=_METRICS, ensemble_size=size, config=config,
                    seed=0)


def _requests(n: int, seed: int = 7,
              n_candidates: int = 10) -> list[DecisionRequest]:
    rng = np.random.default_rng(seed)
    generator = QueryGenerator(seed=rng)
    return [DecisionRequest(plan=generator.generate(),
                            cluster=sample_cluster(
                                rng, int(rng.integers(4, 8))),
                            n_candidates=n_candidates, seed=index)
            for index in range(n)]


def _assert_decisions_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.placement == b.placement
        assert a.predicted_objective == b.predicted_objective
        assert a.objective == b.objective
        assert a.candidates_evaluated == b.candidates_evaluated
        assert a.feasible_candidates == b.feasible_candidates


class TestMegaBatchedWave:
    def test_wave_bitwise_equals_sequential(self):
        model = _model()
        batcher = DecisionBatcher(model)
        optimizer = PlacementOptimizer(model)
        requests = _requests(6)
        batched = batcher.decide(requests)
        sequential = [optimizer.optimize(r.plan, r.cluster,
                                         n_candidates=r.n_candidates,
                                         seed=r.seed)
                      for r in requests]
        _assert_decisions_equal(batched, sequential)

    def test_wave_objectives_bitwise(self):
        """Per-candidate objective values and masks, not just argmins."""
        model = _model()
        batcher = DecisionBatcher(model)
        optimizer = PlacementOptimizer(model)
        requests = _requests(5, seed=11)
        candidates = [batcher._candidates_for(r) for r in requests]
        values, feasible, bounds = batcher.score_wave(requests,
                                                      candidates)
        for index, request in enumerate(requests):
            batches = model.collate_placements(
                request.plan, candidates[index], request.cluster)
            seq_values, seq_feasible = optimizer.score(batches)
            lo, hi = bounds[index], bounds[index + 1]
            np.testing.assert_array_equal(values[lo:hi], seq_values)
            np.testing.assert_array_equal(feasible[lo:hi], seq_feasible)

    def test_pre_enumerated_candidates(self):
        model = _model()
        batcher = DecisionBatcher(model)
        requests = _requests(4, seed=3)
        enumerated = [
            DecisionRequest(plan=r.plan, cluster=r.cluster,
                            seed=r.seed,
                            candidates=tuple(batcher._candidates_for(r)))
            for r in requests]
        _assert_decisions_equal(batcher.decide(requests),
                                batcher.decide(enumerated))

    def test_empty_wave(self):
        assert DecisionBatcher(_model()).decide([]) == []

    def test_traditional_scheme_falls_back(self):
        """Without a member stack the wave scores per-request batches —
        still identical to sequential optimization."""
        model = _model(scheme="traditional")
        batcher = DecisionBatcher(model)
        optimizer = PlacementOptimizer(model)
        requests = _requests(3, seed=5)
        sequential = [optimizer.optimize(r.plan, r.cluster,
                                         n_candidates=r.n_candidates,
                                         seed=r.seed)
                      for r in requests]
        _assert_decisions_equal(batcher.decide(requests), sequential)


class TestMergeBatches:
    def _graphs(self, seed: int, n: int):
        rng = np.random.default_rng(seed)
        generator = QueryGenerator(seed=rng)
        model = _model()
        graphs = []
        for _ in range(n):
            plan = generator.generate()
            cluster = sample_cluster(rng, int(rng.integers(3, 6)))
            placement = HeuristicPlacementEnumerator(
                cluster, seed=rng).sample(plan)
            graphs.append(model.build_graph(plan, placement, cluster))
        return graphs

    def test_merged_equals_joint_collation(self):
        """Staged fields of the merged batch match collating all the
        source graphs jointly, field for field."""
        graphs = self._graphs(0, 9)
        chunks = collate_chunks(graphs, 3)
        merged = merge_batches(chunks)
        joint = collate(graphs)
        assert merged.n_nodes == joint.n_nodes
        assert merged.n_graphs == joint.n_graphs
        np.testing.assert_array_equal(merged.graph_id, joint.graph_id)
        assert list(merged.type_rows) == list(joint.type_rows)
        for node_type in joint.type_rows:
            np.testing.assert_array_equal(merged.type_rows[node_type],
                                          joint.type_rows[node_type])
            np.testing.assert_array_equal(
                merged.type_features[node_type],
                joint.type_features[node_type])
        for merged_slices, joint_slices in (
                (merged.ops_to_hw, joint.ops_to_hw),
                (merged.hw_to_ops, joint.hw_to_ops),
                *zip(merged.flow_levels, joint.flow_levels)):
            assert list(merged_slices) == list(joint_slices)
            for node_type in joint_slices:
                fast = merged_slices[node_type]
                slow = joint_slices[node_type]
                np.testing.assert_array_equal(fast.recv_rows,
                                              slow.recv_rows)
                np.testing.assert_array_equal(fast.edge_src,
                                              slow.edge_src)
                np.testing.assert_array_equal(fast.edge_seg,
                                              slow.edge_seg)
        np.testing.assert_array_equal(merged.readout_segments,
                                      np.asarray([3, 3, 3]))
        # neighbor_rounds edges are grouped per source batch: same
        # receivers, same edge multiset (order differs).
        assert list(merged.neighbor_rounds) == list(joint.neighbor_rounds)
        for node_type in joint.neighbor_rounds:
            fast = merged.neighbor_rounds[node_type]
            slow = joint.neighbor_rounds[node_type]
            np.testing.assert_array_equal(fast.recv_rows, slow.recv_rows)
            fast_edges = sorted(zip(fast.edge_src.tolist(),
                                    fast.edge_seg.tolist()))
            slow_edges = sorted(zip(slow.edge_src.tolist(),
                                    slow.edge_seg.tolist()))
            assert fast_edges == slow_edges

    def test_merged_predictions_bitwise(self):
        """Candidate batches of different plans (the serving shape):
        the fused mega-batch, which runs the full path, predicts bit
        for bit what each batch predicts on its own compact rows.
        Serving never fuses batches; the merge is called
        directly."""
        model = _model()
        chunks = []
        for request in _requests(4, seed=41):
            candidates = DecisionBatcher(model)._candidates_for(request)
            chunks.extend(model.collate_placements(
                request.plan, candidates, request.cluster))
        assert all(chunk.candidates is not None for chunk in chunks)
        merged = [merge_batches(chunks)]
        assert merged[0].candidates is None
        for metric in _METRICS:
            separate = np.concatenate(
                [model.predict_metric(metric, [chunk])
                 for chunk in chunks])
            np.testing.assert_array_equal(
                model.predict_metric(metric, merged), separate)

    def test_single_graph_batches_not_merged(self):
        graphs = self._graphs(6, 3)
        chunks = collate_chunks(graphs, 1)
        assert not mega_mergeable(chunks[0])
        model = _model()
        assert model.merged_inference_batches(chunks) is chunks

    def test_merge_requires_batches(self):
        with pytest.raises(ValueError):
            merge_batches([])


class TestFloat32EndToEnd:
    def test_collation_native_float32(self):
        model = _model()
        requests = _requests(2, seed=13)
        request = requests[0]
        candidates = DecisionBatcher(model)._candidates_for(request)
        with float32_inference():
            batches = model.collate_placements(request.plan, candidates,
                                               request.cluster)
        for features in batches[0].type_features.values():
            assert features.dtype == np.float32
        for rows in batches[0].type_rows.values():
            assert rows.dtype == np.int64  # index arrays untouched

    def test_e2e_equals_cast_at_forward(self):
        """Casting per-vector at featurize time and per-matrix at
        forward time round the same float64 values once — predictions
        must match bit for bit."""
        model = _model()
        request = _requests(1, seed=17)[0]
        candidates = DecisionBatcher(model)._candidates_for(request)
        float64_batches = model.collate_placements(
            request.plan, candidates, request.cluster)
        with float32_inference():
            e2e_batches = model.collate_placements(
                request.plan, candidates, request.cluster)
            for metric in _METRICS:
                np.testing.assert_array_equal(
                    model.predict_metric(metric, e2e_batches),
                    model.predict_metric(metric, float64_batches))

    def test_cross_context_host_cache_normalized(self):
        """Host features cached outside the context must not smuggle a
        float64 matrix into a float32 batch: build_graph re-casts
        cached vectors, so the batch is uniformly float32 and equal to
        the all-inside-the-context build."""
        from repro.core.graph import featurize_hosts

        model = _model()
        request = _requests(1, seed=43)[0]
        candidates = DecisionBatcher(model)._candidates_for(request)
        outside_hosts = featurize_hosts(request.cluster,
                                        model.featurizer)  # float64
        with float32_inference():
            graphs = model.build_graphs(request.plan, candidates,
                                        request.cluster)
            from repro.core.graph import build_graph, collate, \
                featurize_plan
            plan_features = featurize_plan(request.plan,
                                           model.featurizer)
            cached_graphs = [build_graph(request.plan, placement,
                                         request.cluster,
                                         model.featurizer,
                                         plan_features=plan_features,
                                         host_features=outside_hosts)
                             for placement in candidates]
            batch = collate(cached_graphs)
            reference = collate(graphs)
        for node_type, features in batch.type_features.items():
            assert features.dtype == np.float32
            np.testing.assert_array_equal(
                features, reference.type_features[node_type])

    def test_decision_level_tolerance(self):
        from repro.experiments.hotpaths import FLOAT32_TOLERANCE

        model = _model()
        batcher = DecisionBatcher(model)
        requests = _requests(5, seed=19)
        candidates = [batcher._candidates_for(r) for r in requests]
        values, _, _ = batcher.score_wave(requests, candidates)
        with float32_inference():
            f32_values, _, _ = batcher.score_wave(requests, candidates)
        rel = np.max(np.abs(f32_values - values)
                     / (np.abs(values) + 1e-9))
        assert rel <= FLOAT32_TOLERANCE


def _optimize(model, requests):
    optimizer = PlacementOptimizer(model)
    return [optimizer.optimize(r.plan, r.cluster,
                               n_candidates=r.n_candidates,
                               selectivities=r.selectivities, seed=r.seed)
            for r in requests]


def _wait_for_dispatch(loop, waves: int = 1) -> None:
    """Block until the dispatcher has taken ``waves`` requests."""
    deadline = time.monotonic() + 30
    while loop.stats.waves < waves:
        assert time.monotonic() < deadline
        time.sleep(0.001)


class _GatedBatcher:
    """Holds every decide call until ``gate`` is set, or for at most
    ``timeout`` seconds per call."""

    def __init__(self, inner: DecisionBatcher, timeout: float = 30.0):
        self.inner = inner
        self.gate = threading.Event()
        self.timeout = timeout

    def decide(self, wave):
        self.gate.wait(timeout=self.timeout)
        return self.inner.decide(wave)


class _SteppedBatcher:
    """Signals ``entered`` on each decide call and holds the call until
    one ``step`` is released for it."""

    def __init__(self, inner: DecisionBatcher):
        self.inner = inner
        self.entered = threading.Semaphore(0)
        self.step = threading.Semaphore(0)

    def decide(self, wave):
        self.entered.release()
        assert self.step.acquire(timeout=30)
        return self.inner.decide(wave)


class TestServingLoop:
    def test_chunking_invariance(self):
        """The loop decides each request alone; its decisions equal one
        direct wave of the whole stream and sequential ``optimize``,
        bitwise."""
        model = _model()
        requests = _requests(9, seed=67)
        reference = DecisionBatcher(model).decide(requests)
        with ServingLoop(DecisionBatcher(model), max_queue=32) as loop:
            served = loop.serve(requests)
        _assert_decisions_equal(served, reference)
        _assert_decisions_equal(served, _optimize(model, requests))
        assert loop.stats.waves == loop.stats.served == 9

    def test_full_wave_dispatch(self):
        """``full_waves`` counts the dispatches that left requests
        queued behind them (the loop was backlogged)."""
        model = _model()
        requests = _requests(4, seed=71)
        batcher = _GatedBatcher(DecisionBatcher(model))
        loop = ServingLoop(batcher, max_queue=16)
        try:
            futures = [loop.submit(requests[0])]
            _wait_for_dispatch(loop)  # taken from an otherwise empty queue
            futures += [loop.submit(request) for request in requests[1:]]
        finally:
            batcher.gate.set()
            loop.close()
        _assert_decisions_equal([f.result(timeout=30) for f in futures],
                                _optimize(model, requests))
        # Requests 1 and 2 left requests queued; 0 and 3 did not.
        assert loop.stats.waves == loop.stats.served == 4
        assert loop.stats.full_waves == 2

    def test_single_request_dispatches_on_arrival(self):
        model = _model()
        request = _requests(1, seed=73)[0]
        reference = DecisionBatcher(model).decide([request])
        with ServingLoop(DecisionBatcher(model), max_queue=128) as loop:
            decision = loop.submit(request).result(timeout=30)
            assert loop.stats.waves == 1
        _assert_decisions_equal([decision], reference)
        assert loop.stats.full_waves == 0

    def test_each_future_resolves_before_the_next_decision(self):
        """Request 0's future is done while the dispatcher is still
        deciding request 1: no request waits for another's decision."""
        model = _model()
        requests = _requests(2, seed=75)
        batcher = _SteppedBatcher(DecisionBatcher(model))
        loop = ServingLoop(batcher, max_queue=16)
        try:
            first, second = [loop.submit(request) for request in requests]
            assert batcher.entered.acquire(timeout=30)
            batcher.step.release()
            assert batcher.entered.acquire(timeout=10)
            assert first.done() and not second.done()
        finally:
            batcher.step.release()
            batcher.step.release()
            loop.close()
        _assert_decisions_equal([first.result(), second.result()],
                                _optimize(model, requests))

    def test_cancelled_queued_future_is_skipped(self):
        """A future cancelled while queued is never decided, and the
        dispatcher keeps serving the requests behind it."""
        model = _model()
        requests = _requests(3, seed=77)
        batcher = _GatedBatcher(DecisionBatcher(model))
        loop = ServingLoop(batcher, max_queue=16)
        try:
            futures = [loop.submit(requests[0])]
            _wait_for_dispatch(loop)
            futures += [loop.submit(request) for request in requests[1:]]
            assert futures[1].cancel()
            batcher.gate.set()
            last = futures[2].result(timeout=5)
            assert loop._thread.is_alive()
        finally:
            batcher.gate.set()
            loop.close()
        assert futures[1].cancelled()
        _assert_decisions_equal([futures[0].result(), last],
                                _optimize(model, requests[::2]))
        stats = loop.stats
        assert (stats.cancelled, stats.served, stats.failed) == (1, 2, 0)
        assert stats.submitted == stats.served + stats.failed \
            + stats.cancelled

    def test_failing_request_fails_alone(self):
        """A request whose decision raises rejects its own future only;
        its neighbours still equal ``optimize`` bitwise."""
        model = _model()
        good = _requests(2, seed=79)
        bad = dataclasses.replace(
            good[0], plan=QueryGenerator(seed=1).generate_linear(),
            selectivities={"filter1": float("nan")})
        batcher = _GatedBatcher(DecisionBatcher(model))
        loop = ServingLoop(batcher, max_queue=16)
        try:
            futures = [loop.submit(good[0])]
            _wait_for_dispatch(loop)
            futures += [loop.submit(bad), loop.submit(good[1])]
        finally:
            batcher.gate.set()
            loop.close()
        with pytest.raises(ValueError, match="'filter1'"):
            futures[1].result(timeout=30)
        _assert_decisions_equal(
            [futures[0].result(timeout=30), futures[2].result(timeout=30)],
            _optimize(model, good))
        assert (loop.stats.served, loop.stats.failed) == (2, 1)

    def test_backpressure_rejects_when_full(self):
        model = _model()
        requests = _requests(4, seed=79)
        batcher = _GatedBatcher(DecisionBatcher(model))
        loop = ServingLoop(batcher, max_queue=2)
        try:
            futures = [loop.submit(requests[0])]
            # Wait until the dispatcher holds request 0 (blocked on the
            # gate) so the queue capacity is entirely ours to fill.
            _wait_for_dispatch(loop)
            futures.append(loop.submit(requests[1]))
            futures.append(loop.submit(requests[2]))
            with pytest.raises(BackpressureError):
                loop.submit(requests[3])
            assert loop.stats.rejected == 1
        finally:
            batcher.gate.set()
            loop.close()
        assert all(future.result(timeout=30) is not None
                   for future in futures)
        assert loop.stats.served == 3

    def test_close_drains_and_rejects_late_submits(self):
        model = _model()
        requests = _requests(4, seed=83)
        loop = ServingLoop(DecisionBatcher(model), max_queue=16)
        futures = [loop.submit(request) for request in requests]
        loop.close()  # must serve everything already admitted
        assert all(future.done() for future in futures)
        assert loop.stats.served == 4
        with pytest.raises(RuntimeError):
            loop.submit(requests[0])
        loop.close()  # idempotent

    def test_invalid_configuration_rejected(self):
        model = _model()
        with pytest.raises(ValueError):
            ServingLoop(DecisionBatcher(model), max_queue=0)
        # The loop takes no wave size or deadline.
        with pytest.raises(TypeError):
            ServingLoop(DecisionBatcher(model), max_wave=8)
        with pytest.raises(TypeError):
            ServingLoop(DecisionBatcher(model), deadline_s=0.02)


class TestSelectivityValidation:
    """A non-finite or negative selectivity fails at featurization,
    naming the operator, on both decision paths."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    @pytest.mark.parametrize("path", ["optimize", "decide"])
    def test_rejected_with_the_operator_named(self, path, value):
        model = _model()
        plan = QueryGenerator(seed=1).generate_linear()
        cluster = sample_cluster(np.random.default_rng(0), 6)
        selectivities = {"filter1": value}
        with pytest.raises(ValueError, match="'filter1'"):
            if path == "optimize":
                PlacementOptimizer(model).optimize(
                    plan, cluster, selectivities=selectivities)
            else:
                DecisionBatcher(model).decide([DecisionRequest(
                    plan=plan, cluster=cluster,
                    selectivities=selectivities)])


def _stale_index_candidates(plan, cluster):
    """Candidates enumerated before one of their nodes left."""
    candidates = HeuristicPlacementEnumerator(
        cluster, seed=0).enumerate_indices(plan, 10)
    cluster.remove_node("host1")
    return candidates


def _on_one_node(plan, node_id="host2"):
    return {op_id: node_id for op_id in plan.topological_order()}


class TestCandidateValidation:
    """Pre-enumerated candidates are checked against the request's plan
    and cluster before any of them is scored: a bad set raises
    ``ValueError`` naming what is wrong, instead of failing inside
    collation or scoring a placement that leaves operators unplaced."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda plan, cluster: (), "candidates are empty",
                     id="empty-tuple"),
        pytest.param(lambda plan, cluster: IndexCandidates(
            np.empty((0, len(plan)), dtype=np.int64),
            plan.topological_order(), cluster.node_ids),
            "candidates are empty", id="empty-index-matrix"),
        pytest.param(lambda plan, cluster: (Placement(
            {**_on_one_node(plan), "sink": "other1"}),),
            r"unknown nodes: \['other1'\]", id="node-not-in-cluster"),
        pytest.param(lambda plan, cluster: (Placement(
            {**_on_one_node(plan), "ghost": "host2"}),),
            r"unknown operators: \['ghost'\]", id="operator-not-in-plan"),
        pytest.param(_stale_index_candidates,
                     r"unknown nodes: \['host1'\]",
                     id="index-matrix-node-removed"),
        pytest.param(lambda plan, cluster: (Placement({"src1": "host2"}),),
                     r"operators without a node: \['src2', 'filter2_1', "
                     r"'join1', 'agg1', 'sink'\]",
                     id="partial-placement"),
    ])
    def test_rejected_before_scoring(self, make, message):
        plan = QueryGenerator(seed=3).generate_two_way()
        cluster = sample_cluster(np.random.default_rng(0), 5)
        assert len(plan) == 6
        candidates = make(plan, cluster)
        request = DecisionRequest(plan=plan, cluster=cluster,
                                  candidates=candidates)
        with pytest.raises(ValueError, match=message):
            DecisionBatcher(_model()).decide([request])


class TestServiceLatencyStats:
    def test_empty_percentiles_are_zero(self):
        from repro.serving.service import ServiceStats

        stats = ServiceStats()
        assert stats.latency_percentiles() == {
            "latency_p50_ms": 0.0, "latency_p95_ms": 0.0,
            "latency_p99_ms": 0.0}
        snapshot = stats.as_dict()
        assert snapshot["latency_count"] == 0
        assert "latencies_s" not in snapshot

    def test_percentiles_match_numpy(self):
        from repro.serving.service import ServiceStats

        stats = ServiceStats()
        samples = [0.001, 0.002, 0.004, 0.008, 0.016]
        stats.record_latencies(samples)
        p50, p95, p99 = np.percentile(np.asarray(samples),
                                      (50.0, 95.0, 99.0))
        percentiles = stats.latency_percentiles()
        assert percentiles["latency_p50_ms"] == p50 * 1e3
        assert percentiles["latency_p95_ms"] == p95 * 1e3
        assert percentiles["latency_p99_ms"] == p99 * 1e3
        assert stats.as_dict()["latency_count"] == 5

    def test_window_is_bounded(self):
        from repro.serving.service import _LATENCY_WINDOW, ServiceStats

        stats = ServiceStats()
        stats.record_latencies([0.0] * (_LATENCY_WINDOW + 10))
        assert len(stats.latencies_s) == _LATENCY_WINDOW

    def test_loop_records_one_latency_per_served_request(self):
        model = _model()
        requests = _requests(6, seed=101)
        with ServingLoop(DecisionBatcher(model), max_queue=16) as loop:
            loop.serve(requests)
        stats = loop.stats
        assert len(stats.latencies_s) == stats.served == 6
        percentiles = stats.latency_percentiles()
        assert 0.0 < percentiles["latency_p50_ms"] \
            <= percentiles["latency_p95_ms"] \
            <= percentiles["latency_p99_ms"]
        snapshot = loop.health_snapshot()["service"]
        assert snapshot["latency_p99_ms"] \
            == percentiles["latency_p99_ms"]


class TestConcurrentSubmitters:
    """Many producer threads against one loop: no response may be
    lost or duplicated, and every decision must equal the per-request
    reference regardless of how the producers interleaved."""

    @pytest.mark.parametrize("stall_s", [0.002, 60.0])
    def test_no_lost_or_duplicated_responses(self, stall_s):
        """Each decision stalls up to ``stall_s`` while the producers
        run: 2 ms keeps the dispatcher racing them, 60 s holds it on
        its first request until the whole race has queued."""
        model = _model()
        requests = _requests(12, seed=103)
        reference = DecisionBatcher(model).decide(requests)
        batcher = _GatedBatcher(DecisionBatcher(model), timeout=stall_s)
        loop = ServingLoop(batcher, max_queue=64)
        futures: dict[int, object] = {}
        lock = threading.Lock()
        try:
            def producer(indices):
                for index in indices:
                    future = loop.submit(requests[index], block=True)
                    with lock:
                        assert index not in futures
                        futures[index] = future

            threads = [threading.Thread(target=producer,
                                        args=(range(start, 12, 3),))
                       for start in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            batcher.gate.set()
            loop.close()
        decisions = [futures[index].result(timeout=30)
                     for index in range(12)]
        assert loop.stats.submitted == loop.stats.served == 12
        assert loop.stats.rejected == loop.stats.failed == 0
        assert len(loop.stats.latencies_s) == 12
        if stall_s == 60.0:
            # The held dispatcher left the other 11 requests queued.
            assert loop.stats.max_queue_depth >= 11
        _assert_decisions_equal(decisions, reference)

    def test_cancellations_racing_the_dispatcher(self):
        """Producers cancel each odd-indexed future one submit later,
        when the dispatcher may or may not have taken it yet: each
        request is either decided or counted cancelled, never both and
        never lost."""
        model = _model()
        requests = _requests(16, seed=109)
        reference = DecisionBatcher(model).decide(requests)
        futures: dict[int, object] = {}
        lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingLoop(DecisionBatcher(model), max_queue=4) as loop:
                def producer(indices):
                    pending = None
                    for index in indices:
                        future = loop.submit(requests[index], block=True)
                        with lock:
                            futures[index] = future
                        if pending is not None:
                            pending.cancel()
                        pending = future if index % 2 else None
                    if pending is not None:
                        pending.cancel()

                threads = [threading.Thread(target=producer,
                                            args=(range(start, 16, 4),))
                           for start in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        cancelled = {index for index, future in futures.items()
                     if future.cancelled()}
        stats = loop.stats
        assert stats.cancelled == len(cancelled)
        assert stats.submitted == 16 == stats.served + stats.cancelled
        assert stats.waves == stats.served and stats.failed == 0
        for index, future in futures.items():
            if index not in cancelled:
                _assert_decisions_equal([future.result(timeout=30)],
                                        [reference[index]])

    def test_backpressure_accounting_under_contention(self):
        model = _model()
        requests = _requests(10, seed=107)
        reference = DecisionBatcher(model).decide(requests)
        batcher = _GatedBatcher(DecisionBatcher(model))
        loop = ServingLoop(batcher, max_queue=3)
        accepted: dict[int, object] = {}
        rejections = []
        lock = threading.Lock()
        try:
            first = loop.submit(requests[0])
            # Wait until the dispatcher holds request 0 at the gate so
            # the queue capacity is exactly max_queue for the race.
            _wait_for_dispatch(loop)

            def producer(indices):
                for index in indices:
                    try:
                        future = loop.submit(requests[index])
                    except BackpressureError:
                        with lock:
                            rejections.append(index)
                    else:
                        with lock:
                            accepted[index] = future

            threads = [threading.Thread(target=producer,
                                        args=(range(start, 10, 3),))
                       for start in range(1, 4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            batcher.gate.set()
            loop.close()
        # Everything admitted was served; everything else was counted
        # as rejected — nothing lost, nothing double-counted.
        assert len(accepted) <= 3
        assert len(accepted) + len(rejections) == 9
        assert loop.stats.rejected == len(rejections)
        assert loop.stats.submitted == len(accepted) + 1
        assert loop.stats.served == len(accepted) + 1
        _assert_decisions_equal([first.result(timeout=30)],
                                [reference[0]])
        for index, future in accepted.items():
            _assert_decisions_equal([future.result(timeout=30)],
                                    [reference[index]])
