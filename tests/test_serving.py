"""Cross-decision serving: mega-batching, float32 end-to-end, pool.

The throughput engine's contract (PERFORMANCE.md):

* float64 wave decisions are bitwise identical to sequential
  :meth:`PlacementOptimizer.optimize` calls — chosen placements,
  per-candidate objectives, feasibility counts;
* :func:`repro.core.graph.merge_batches` produces exactly the batch a
  joint collation would (staged fields), and merged predictions equal
  per-batch predictions bit for bit;
* under :class:`repro.nn.float32_inference` featurization/collation
  are float32 end-to-end, bitwise equal to the old cast-at-forward
  path and within the documented decision-level tolerance of float64;
* the worker pool returns decisions identical to the single-process
  wave in every backend (fork and serial fallback), under any active
  compute backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costream import Costream
from repro.core.graph import (collate, collate_chunks, mega_mergeable,
                              merge_batches)
from repro.core.training import TrainingConfig
from repro.hardware.cluster import sample_cluster
from repro.nn import ComputeBackend, compute_backend, float32_inference
from repro.placement.enumeration import HeuristicPlacementEnumerator
from repro.placement.optimizer import PlacementOptimizer
from repro.query.generator import QueryGenerator
from repro.serving import (BackpressureError, DecisionBatcher,
                           DecisionRequest, ServingLoop, WorkerPool)
from repro.serving.pool import _SharedBlock, _fork_available

# Per-test deadline (enforced by pytest-timeout in CI): pool and
# serving-loop tests must never wedge the suite.
pytestmark = pytest.mark.timeout(120)

_METRICS = ("processing_latency", "success", "backpressure")


def _model(hidden_dim: int = 16, size: int = 2,
           scheme: str = "staged") -> Costream:
    config = TrainingConfig(hidden_dim=hidden_dim, scheme=scheme)
    model = Costream(metrics=_METRICS, ensemble_size=size, config=config,
                     seed=0)
    for ensemble in model.ensembles.values():
        for member in ensemble.members:
            member.network.eval()
    return model


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
        merged predictions equal per-batch predictions bit for bit."""
        model = _model()
        chunks = []
        for request in _requests(4, seed=41):
            candidates = DecisionBatcher(model)._candidates_for(request)
            chunks.extend(model.collate_placements(
                request.plan, candidates, request.cluster))
        merged = model.merged_inference_batches(chunks)
        assert len(merged) == 1
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


class TestWorkerPool:
    def test_serial_fallback_matches_single_process(self):
        model = _model()
        requests = _requests(5, seed=23)
        plain = DecisionBatcher(model).decide(requests)
        with WorkerPool(processes=2, serial=True) as pool:
            pooled = DecisionBatcher(model, pool=pool).decide(requests)
        _assert_decisions_equal(plain, pooled)

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_fork_pool_matches_single_process(self):
        model = _model()
        requests = _requests(5, seed=29)
        plain = DecisionBatcher(model).decide(requests)
        with WorkerPool(processes=2) as pool:
            assert not pool.serial
            batcher = DecisionBatcher(model, pool=pool)
            _assert_decisions_equal(plain, batcher.decide(requests))
            # Persistent workers: a second wave reuses them.
            _assert_decisions_equal(plain, batcher.decide(requests))

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_fork_pool_honours_float32_context(self):
        """The inference dtype is a per-process global: each wave task
        carries the parent's active dtype, so pooled waves match the
        serial path both inside and outside ``float32_inference`` even
        though the workers forked outside the context."""
        model = _model()
        requests = _requests(4, seed=37)
        with WorkerPool(processes=2) as pool:
            batcher = DecisionBatcher(model, pool=pool)
            batcher.decide(requests)  # fork workers in float64 mode
            serial = DecisionBatcher(model)
            with float32_inference():
                _assert_decisions_equal(batcher.decide(requests),
                                        serial.decide(requests))
            # ... and back out: the workers must not stay float32.
            _assert_decisions_equal(batcher.decide(requests),
                                    serial.decide(requests))

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_fork_pool_under_custom_compute_backend(self):
        """An installed ComputeBackend subclass (like perfbench's
        TimingBackend, which carries a ``name`` of its own) must not
        push a fault-free wave onto the recovery path."""

        class Tagged(ComputeBackend):
            name = "tagged"

        model = _model()
        requests = _requests(6, seed=61)
        plain = DecisionBatcher(model).decide(requests)
        with compute_backend(Tagged()):
            with WorkerPool(processes=2) as pool:
                pooled = DecisionBatcher(model, pool=pool).decide(
                    requests)
        _assert_decisions_equal(plain, pooled)
        assert pool.health.retries == 0
        assert pool.health.crashes == 0
        assert pool.health.degraded_shards == 0

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_pool_reforks_after_weight_replacement(self):
        """Staleness follows the MemberStack rules: any parameter-array
        replacement since the last fork is detected, so pooled
        decisions never serve stale weights."""
        model = _model()
        requests = _requests(4, seed=31)
        with WorkerPool(processes=2) as pool:
            batcher = DecisionBatcher(model, pool=pool)
            batcher.decide(requests)  # workers forked with seed-0 weights
            for ensemble in model.ensembles.values():
                for member in ensemble.members:
                    state = member.network.state_dict()
                    shifted = {key: value + 0.05
                               for key, value in state.items()}
                    member.network.load_state_dict(shifted)
            fresh = DecisionBatcher(model).decide(requests)
            _assert_decisions_equal(batcher.decide(requests), fresh)

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_staleness_refresh_is_in_place(self):
        """ISSUE-5: a weight replacement on the SAME model refreshes
        the workers through the shared-memory parameter block instead
        of reforking — the executor object survives, and repeated
        refreshes keep serving fresh weights."""
        model = _model()
        requests = _requests(4, seed=41)
        with WorkerPool(processes=2) as pool:
            batcher = DecisionBatcher(model, pool=pool)
            batcher.decide(requests)
            executor = pool._executor
            assert executor is not None
            for shift in (0.03, -0.02):
                for ensemble in model.ensembles.values():
                    for member in ensemble.members:
                        state = member.network.state_dict()
                        member.network.load_state_dict(
                            {key: value + shift
                             for key, value in state.items()})
                fresh = DecisionBatcher(model).decide(requests)
                _assert_decisions_equal(batcher.decide(requests), fresh)
                assert pool._executor is executor, \
                    "refresh should not refork the workers"

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_different_model_still_reforks(self):
        """Shared-memory refresh only covers the registered model: a
        different model (or objective) restarts the workers."""
        model = _model()
        other = _model()
        for ensemble in other.ensembles.values():
            for member in ensemble.members:
                state = member.network.state_dict()
                member.network.load_state_dict(
                    {key: value + 0.2 for key, value in state.items()})
        requests = _requests(3, seed=43)
        with WorkerPool(processes=2) as pool:
            DecisionBatcher(model, pool=pool).decide(requests)
            executor = pool._executor
            other_batcher = DecisionBatcher(other, pool=pool)
            pooled = other_batcher.decide(requests)
            assert pool._executor is not executor
            _assert_decisions_equal(
                pooled, DecisionBatcher(other).decide(requests))

    def test_shard_indices_cover_everything(self):
        pool = WorkerPool(processes=3, serial=True)
        shards = pool.shard_indices(8)
        assert sorted(np.concatenate(shards).tolist()) == list(range(8))
        assert all(shard.size for shard in shards)
        assert len(pool.shard_indices(2)) == 2

    def test_close_is_idempotent(self):
        model = _model()
        requests = _requests(3, seed=47)
        pool = WorkerPool(processes=2, serial=True)
        DecisionBatcher(model, pool=pool).decide(requests)
        pool.close()
        pool.close()  # second close must be a no-op, not an error
        with pool:
            pass  # __exit__ is a third close

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_fork_close_is_idempotent_and_releases(self):
        from repro.serving.pool import _FORK_MODELS

        model = _model()
        requests = _requests(3, seed=53)
        pool = WorkerPool(processes=2)
        DecisionBatcher(model, pool=pool).decide(requests)
        token = pool._token
        assert token in _FORK_MODELS
        pool.close()
        assert token not in _FORK_MODELS, \
            "close must drop the fork registration that pins the model"
        pool.close()
        assert pool._executor is None

    def test_repro_serial_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        assert WorkerPool(processes=2).serial
        monkeypatch.setenv("REPRO_SERIAL", "0")
        pool = WorkerPool(processes=2)
        assert pool.serial == (not _fork_available())
        monkeypatch.setenv("REPRO_SERIAL", "1")
        # An explicit serial= argument still wins over the env.
        assert not WorkerPool(processes=2, serial=False).serial

    def test_repro_serial_env_results_identical(self, monkeypatch):
        model = _model()
        requests = _requests(4, seed=59)
        plain = DecisionBatcher(model).decide(requests)
        monkeypatch.setenv("REPRO_SERIAL", "1")
        with WorkerPool(processes=2) as pool:
            assert pool.serial
            _assert_decisions_equal(
                plain, DecisionBatcher(model, pool=pool).decide(requests))


class TestSharedBlock:
    def _arrays(self, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((3, 4)),
                rng.standard_normal(5).astype(np.float32),
                rng.standard_normal((2, 2, 2))]

    def test_write_then_generation_bump_ordering(self):
        """A reader that observes generation N is guaranteed to see
        the values of write N: the construction write already bumps
        the generation once, and every later write copies every array
        before the counter moves."""
        arrays = self._arrays()
        block = _SharedBlock(arrays)
        assert block.generation == 1  # construction performed write #1
        for view, array in zip(block.views, arrays):
            np.testing.assert_array_equal(view, array)
        fresh = self._arrays(seed=1)
        block.write(fresh)
        assert block.generation == 2
        for view, array in zip(block.views, fresh):
            np.testing.assert_array_equal(view, array)

    def test_matches_is_shape_dtype_not_identity(self):
        arrays = self._arrays()
        block = _SharedBlock(arrays)
        assert block.matches(arrays)
        # Different array objects, same slots: still a match (the
        # block is reusable across parameter replacement).
        assert block.matches(self._arrays(seed=9))
        # Changed shape, dtype, or count: no match.
        wrong_shape = self._arrays()
        wrong_shape[0] = wrong_shape[0].reshape(4, 3)
        assert not block.matches(wrong_shape)
        wrong_dtype = self._arrays()
        wrong_dtype[1] = wrong_dtype[1].astype(np.float64)
        assert not block.matches(wrong_dtype)
        assert not block.matches(arrays[:-1])

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_worker_resync_after_refresh_racing_dispatch(self):
        """ISSUE-6 satellite: an in-place weight refresh immediately
        followed by a wave dispatch must never serve stale weights —
        the workers see the generation bump on the very next shard
        they compute (write precedes bump, so the sync is complete)."""
        model = _model()
        requests = _requests(4, seed=61)
        with WorkerPool(processes=2) as pool:
            batcher = DecisionBatcher(model, pool=pool)
            batcher.decide(requests)  # fork with the seed-0 weights
            for shift in (0.04, -0.03, 0.01):
                for ensemble in model.ensembles.values():
                    for member in ensemble.members:
                        state = member.network.state_dict()
                        member.network.load_state_dict(
                            {key: value + shift
                             for key, value in state.items()})
                # No settling time: refresh and dispatch back-to-back.
                pooled = batcher.decide(requests)
                fresh = DecisionBatcher(model).decide(requests)
                _assert_decisions_equal(pooled, fresh)


class TestServingLoop:
    def test_chunking_invariance(self):
        """The adaptive-wave oracle: however the loop chunks the
        stream, decisions equal direct wave service bitwise."""
        model = _model()
        requests = _requests(9, seed=67)
        reference = DecisionBatcher(model).decide(requests)
        for max_wave in (1, 4, 16):
            with ServingLoop(DecisionBatcher(model), max_wave=max_wave,
                             deadline_s=0.005, max_queue=32) as loop:
                _assert_decisions_equal(loop.serve(requests), reference)

    def test_full_wave_dispatch(self):
        model = _model()
        requests = _requests(6, seed=71)
        with ServingLoop(DecisionBatcher(model), max_wave=3,
                         deadline_s=60.0, max_queue=16) as loop:
            decisions = loop.serve(requests)
        assert len(decisions) == 6
        # A 60s deadline never expires in-test: both waves were full.
        assert loop.stats.full_waves == 2
        assert loop.stats.served == 6

    def test_deadline_dispatch(self):
        model = _model()
        request = _requests(1, seed=73)[0]
        reference = DecisionBatcher(model).decide([request])
        with ServingLoop(DecisionBatcher(model), max_wave=64,
                         deadline_s=0.01, max_queue=128) as loop:
            future = loop.submit(request)
            decision = future.result(timeout=30)
        _assert_decisions_equal([decision], reference)
        # The wave could never fill; only the deadline dispatched it.
        assert loop.stats.deadline_waves == 1
        assert loop.stats.full_waves == 0

    def test_backpressure_rejects_when_full(self):
        import threading
        import time as time_module

        model = _model()
        requests = _requests(4, seed=79)
        gate = threading.Event()
        inner = DecisionBatcher(model)

        class GatedBatcher:
            pool = None

            def decide(self, wave):
                gate.wait(timeout=30)
                return inner.decide(wave)

        loop = ServingLoop(GatedBatcher(), max_wave=1,
                           deadline_s=60.0, max_queue=2)
        try:
            futures = [loop.submit(requests[0])]
            # Wait until the dispatcher holds request 0 (blocked on the
            # gate) so the queue capacity is entirely ours to fill.
            deadline = time_module.monotonic() + 30
            while loop.stats.waves < 1:
                assert time_module.monotonic() < deadline
                time_module.sleep(0.001)
            futures.append(loop.submit(requests[1]))
            futures.append(loop.submit(requests[2]))
            with pytest.raises(BackpressureError):
                loop.submit(requests[3])
            assert loop.stats.rejected == 1
        finally:
            gate.set()
            loop.close()
        assert all(future.result(timeout=30) is not None
                   for future in futures)
        assert loop.stats.served == 3

    def test_close_drains_and_rejects_late_submits(self):
        model = _model()
        requests = _requests(4, seed=83)
        loop = ServingLoop(DecisionBatcher(model), max_wave=16,
                           deadline_s=60.0, max_queue=16)
        futures = [loop.submit(request) for request in requests]
        loop.close()  # must serve everything already admitted
        assert all(future.done() for future in futures)
        assert loop.stats.served == 4
        with pytest.raises(RuntimeError):
            loop.submit(requests[0])
        loop.close()  # idempotent

    def test_health_snapshot_merges_pool_health(self):
        model = _model()
        requests = _requests(4, seed=89)
        with WorkerPool(processes=2, serial=True) as pool:
            with ServingLoop(DecisionBatcher(model, pool=pool),
                             max_wave=4, deadline_s=0.01,
                             max_queue=16) as loop:
                loop.serve(requests)
                snapshot = loop.health_snapshot()
        assert snapshot["service"]["served"] == 4
        assert "pool" in snapshot
        assert snapshot["pool"]["degraded_waves"] == 0

    def test_invalid_configuration_rejected(self):
        model = _model()
        with pytest.raises(ValueError):
            ServingLoop(DecisionBatcher(model), max_wave=0)
        with pytest.raises(ValueError):
            ServingLoop(DecisionBatcher(model), max_wave=8, max_queue=4)


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
        with ServingLoop(DecisionBatcher(model), max_wave=3,
                         deadline_s=0.005, max_queue=16) as loop:
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
    reference regardless of how the waves chunked the race."""

    @pytest.mark.parametrize("deadline_s", [0.002, 60.0])
    def test_no_lost_or_duplicated_responses(self, deadline_s):
        import threading

        model = _model()
        requests = _requests(12, seed=103)
        reference = DecisionBatcher(model).decide(requests)
        with ServingLoop(DecisionBatcher(model), max_wave=4,
                         deadline_s=deadline_s, max_queue=64) as loop:
            futures: dict[int, object] = {}
            lock = threading.Lock()

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
                thread.join()
            decisions = [futures[index].result(timeout=30)
                         for index in range(12)]
        assert loop.stats.submitted == loop.stats.served == 12
        assert loop.stats.rejected == loop.stats.failed == 0
        assert len(loop.stats.latencies_s) == 12
        _assert_decisions_equal(decisions, reference)

    def test_backpressure_accounting_under_contention(self):
        import threading
        import time as time_module

        model = _model()
        requests = _requests(10, seed=107)
        reference = DecisionBatcher(model).decide(requests)
        gate = threading.Event()
        inner = DecisionBatcher(model)

        class GatedBatcher:
            pool = None

            def decide(self, wave):
                gate.wait(timeout=30)
                return inner.decide(wave)

        loop = ServingLoop(GatedBatcher(), max_wave=1,
                           deadline_s=60.0, max_queue=3)
        accepted: dict[int, object] = {}
        rejections = []
        lock = threading.Lock()
        try:
            first = loop.submit(requests[0])
            # Wait until the dispatcher holds request 0 at the gate so
            # the queue capacity is exactly max_queue for the race.
            deadline = time_module.monotonic() + 30
            while loop.stats.waves < 1:
                assert time_module.monotonic() < deadline
                time_module.sleep(0.001)

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
            gate.set()
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
