"""Cluster churn: mutation API, seeded plans, incremental repair.

The churn-resilience contract (PERFORMANCE.md §16):

* :class:`Cluster` mutations (add/remove/degrade) bump the monotonic
  ``version`` and every derived cache — enumerator capability tables,
  host feature matrices, wave host caches — is keyed on
  ``(cluster, version)`` so a mutated cluster never serves
  pre-mutation state;
* :class:`ChurnPlan` / :class:`ChurnTrace` replay deterministically:
  the same plan against identically-built clusters yields identical
  records and identical final cluster states;
* :class:`PlacementRepairer` pins every unaffected operator and
  re-enumerates only the repair set — strictly less enumeration work
  than a from-scratch re-placement, bitwise reproducible under a fixed
  seed, and *recording* (never raising) a full-re-placement fallback
  when no rule-valid pinned candidate exists;
* :class:`ClusterMonitor` repairs every affected deployment through
  the serving machinery, and its :class:`ChurnHealth`
  counters stay all-zero on a churn-free run (the CI perf gate
  asserts the benchmark snapshot).

The seeded random sweeps at the bottom ride the nightly chaos lane
(``REPRO_CHAOS=1``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.costream import Costream
from repro.core.graph import featurize_hosts
from repro.core.training import TrainingConfig
from repro.hardware.churn import (ChurnEvent, ChurnPlan, ChurnTrace,
                                  apply_event)
from repro.hardware.cluster import Cluster, sample_cluster
from repro.hardware.node import HardwareNode
from repro.hardware.placement import Placement
from repro.placement.enumeration import HeuristicPlacementEnumerator
from repro.placement.optimizer import PlacementOptimizer
from repro.placement.repair import PlacementRepairer, repair_set
from repro.query.generator import QueryGenerator
from repro.serving import ClusterMonitor, DecisionBatcher, ServingLoop

pytestmark = pytest.mark.timeout(120)

nightly_chaos = pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS") != "1",
    reason="nightly chaos lane (set REPRO_CHAOS=1)")

_METRICS = ("processing_latency", "success", "backpressure")


def _model(hidden_dim: int = 16, size: int = 2) -> Costream:
    config = TrainingConfig(hidden_dim=hidden_dim, scheme="staged")
    return Costream(metrics=_METRICS, ensemble_size=size, config=config,
                    seed=0)


def _cluster(seed: int = 0, size: int = 6) -> Cluster:
    return sample_cluster(np.random.default_rng(seed), size)


def _plan(seed: int = 7):
    return QueryGenerator(seed=np.random.default_rng(seed)).generate()


class TestClusterMutation:
    def test_version_bumps_monotonically(self):
        cluster = _cluster()
        assert cluster.version == 0
        cluster.add_node(HardwareNode("late1", cpu=200, ram_mb=4000,
                                      bandwidth_mbits=200, latency_ms=5))
        assert cluster.version == 1
        cluster.degrade_node("late1", cpu_factor=0.5)
        assert cluster.version == 2
        cluster.remove_node("late1")
        assert cluster.version == 3
        assert "late1" not in cluster

    def test_add_duplicate_rejected(self):
        cluster = _cluster()
        existing = cluster.node_ids[0]
        with pytest.raises(ValueError):
            cluster.add_node(HardwareNode(existing, cpu=1, ram_mb=1,
                                          bandwidth_mbits=1,
                                          latency_ms=1))
        assert cluster.version == 0  # failed mutation leaves no trace

    def test_remove_unknown_and_last_node(self):
        cluster = _cluster(size=2)
        with pytest.raises(KeyError):
            cluster.remove_node("nope")
        removed = cluster.remove_node(cluster.node_ids[0])
        assert removed.node_id not in cluster
        with pytest.raises(ValueError):
            cluster.remove_node(cluster.node_ids[0])
        assert len(cluster) == 1

    def test_degrade_scales_resources(self):
        cluster = _cluster()
        target = cluster.node_ids[0]
        before = cluster.node(target)
        after = cluster.degrade_node(target, cpu_factor=0.5,
                                     bandwidth_factor=0.25,
                                     latency_factor=2.0)
        assert cluster.node(target) is after
        assert after.cpu == before.cpu * 0.5
        assert after.bandwidth_mbits == before.bandwidth_mbits * 0.25
        assert after.ram_mb == before.ram_mb
        assert after.latency_ms == before.latency_ms * 2.0

    def test_degrade_validates_factors(self):
        cluster = _cluster()
        target = cluster.node_ids[0]
        nan, inf = float("nan"), float("inf")
        for kwargs in ({"cpu_factor": 0.0}, {"ram_factor": -1.0},
                       {"bandwidth_factor": 0.0},
                       {"latency_factor": -0.5},
                       {"cpu_factor": nan}, {"ram_factor": nan},
                       {"bandwidth_factor": nan},
                       {"latency_factor": nan}, {"cpu_factor": inf}):
            with pytest.raises(ValueError):
                cluster.degrade_node(target, **kwargs)
        assert cluster.version == 0


class TestCacheStaleness:
    """A mutated cluster must never serve pre-mutation derived state."""

    def test_enumerator_tables_rebuild_after_mutation(self):
        cluster = _cluster(seed=3)
        first = HeuristicPlacementEnumerator(cluster, seed=0)
        cached = cluster.__dict__["_enumeration_tables"]
        assert cached[0] == cluster.version
        # A crushing degrade demotes the strongest host's bin; a stale
        # capability table would keep routing data flow toward it.
        strongest = first._strongest
        cluster.degrade_node(strongest, cpu_factor=1e-3,
                             bandwidth_factor=1e-3)
        fresh = HeuristicPlacementEnumerator(cluster, seed=0)
        assert fresh._bins[strongest] < first._bins[strongest]
        assert cluster.__dict__["_enumeration_tables"][0] \
            == cluster.version

    def test_featurize_hosts_reflects_degrade(self):
        model = _model()
        cluster = _cluster(seed=5)
        target = cluster.node_ids[0]
        before = featurize_hosts(cluster, model.featurizer)
        assert before.cluster_version == 0
        cluster.degrade_node(target, cpu_factor=0.25,
                             bandwidth_factor=0.25)
        after = featurize_hosts(cluster, model.featurizer)
        assert after.cluster_version == cluster.version == 1
        assert not np.array_equal(before[target], after[target])

    def test_wave_decisions_fresh_after_mutation(self):
        """Wave scoring after a degrade equals a from-scratch optimizer
        on the mutated cluster — no cache layer may smuggle the old
        hosts back in."""
        from repro.serving import DecisionRequest

        model = _model()
        batcher = DecisionBatcher(model)
        optimizer = PlacementOptimizer(model)
        cluster = _cluster(seed=9)
        requests = [DecisionRequest(plan=_plan(seed=i), cluster=cluster,
                                    n_candidates=10, seed=i)
                    for i in range(3)]
        batcher.decide(requests)  # warm every cache at version 0
        cluster.degrade_node(cluster.node_ids[0], cpu_factor=0.2,
                             bandwidth_factor=0.2)
        mutated = batcher.decide(requests)
        reference = [optimizer.optimize(r.plan, r.cluster,
                                        n_candidates=r.n_candidates,
                                        seed=r.seed)
                     for r in requests]
        for fast, slow in zip(mutated, reference):
            assert fast.placement == slow.placement
            assert fast.predicted_objective == slow.predicted_objective


class TestChurnPlan:
    def test_random_plan_deterministic(self):
        plan_a = ChurnPlan.random(seed=11, n_events=8)
        plan_b = ChurnPlan.random(seed=11, n_events=8)
        assert plan_a.events == plan_b.events
        assert ChurnPlan.random(seed=12, n_events=8).events \
            != plan_a.events

    def test_events_sorted_stably_by_tick(self):
        early = ChurnEvent("fail", 1, node_index=0)
        late = ChurnEvent("leave", 9, node_index=1)
        mid_a = ChurnEvent("degrade", 4, node_index=2, severity=0.5)
        mid_b = ChurnEvent("degrade", 4, node_index=3, severity=0.5)
        plan = ChurnPlan.of(late, mid_a, mid_b, early)
        assert plan.events == (early, mid_a, mid_b, late)
        assert plan.ticks == (1, 4, 9)
        assert plan.events_at(4) == (mid_a, mid_b)
        assert len(plan) == 4

    def test_event_validation(self):
        node = HardwareNode("j1", cpu=10, ram_mb=10, bandwidth_mbits=10,
                            latency_ms=10)
        with pytest.raises(ValueError):
            ChurnEvent("explode", 0, node_index=0)
        with pytest.raises(ValueError):
            ChurnEvent("fail", -1, node_index=0)
        with pytest.raises(ValueError):
            ChurnEvent("join", 0)  # join must carry the node
        with pytest.raises(ValueError):
            ChurnEvent("fail", 0)  # needs node_id or node_index
        with pytest.raises(ValueError):
            ChurnEvent("fail", 0, node_id="a", node_index=1)
        with pytest.raises(ValueError):
            ChurnEvent("degrade", 0, node_index=0, severity=0.0)
        with pytest.raises(ValueError):
            ChurnEvent("degrade", 0, node_index=0, severity=1.5)
        ChurnEvent("join", 0, node=node)
        ChurnEvent("degrade", 0, node_index=0, severity=1.0)

    def test_apply_event_skips_instead_of_raising(self):
        cluster = _cluster(size=1)
        # The last node may not leave.
        record = apply_event(cluster,
                             ChurnEvent("fail", 0, node_index=0))
        assert not record.applied and cluster.version == 0
        # A join with a taken id is skipped.
        taken = cluster.nodes[0]
        record = apply_event(cluster, ChurnEvent("join", 0, node=taken))
        assert not record.applied
        # A named host that is already gone is skipped.
        record = apply_event(cluster,
                             ChurnEvent("fail", 0, node_id="gone"))
        assert not record.applied and record.node_id is None

    def test_trace_replay_deterministic(self):
        plan = ChurnPlan.random(seed=21, n_events=10, max_tick=8)
        cluster_a, cluster_b = _cluster(seed=2), _cluster(seed=2)
        records_a = ChurnTrace(cluster_a, plan).play()
        records_b = ChurnTrace(cluster_b, plan).play()
        assert records_a == records_b
        assert cluster_a.nodes == cluster_b.nodes
        assert cluster_a.version == cluster_b.version

    def test_trace_step_and_exhaustion(self):
        plan = ChurnPlan.random(seed=23, n_events=3)
        trace = ChurnTrace(_cluster(seed=4), plan)
        assert not trace.exhausted
        for _ in range(3):
            trace.step()
        assert trace.exhausted
        with pytest.raises(IndexError):
            trace.step()
        assert len(trace.records) == 3


def _linear_plan():
    from repro.query import (DataType, Filter, QueryPlan, Sink, Source,
                             TupleSchema)

    source = Source("src1", 1000.0, TupleSchema.of("int", "double"))
    predicate = Filter("filter1", "<", DataType.DOUBLE, 0.4)
    sink = Sink("sink")
    return QueryPlan([source, predicate, sink],
                     [("src1", "filter1"), ("filter1", "sink")],
                     name="linear")


class TestRepair:
    def test_repair_set_covers_broken_links(self):
        plan = _linear_plan()
        placement = Placement({"src1": "edge2", "filter1": "fog1",
                               "sink": "cloud1"})
        # The middle host: both link endpoints must be repairable.
        assert repair_set(plan, placement, {"fog1"}) \
            == ("src1", "filter1", "sink")
        # A leaf host: only the sink and its upstream link endpoint.
        assert repair_set(plan, placement, {"cloud1"}) \
            == ("filter1", "sink")
        assert repair_set(plan, placement, {"elsewhere"}) == ()

    def test_repair_pins_unaffected_and_avoids_lost_host(self):
        model = _model()
        optimizer = PlacementOptimizer(model)
        repairer = PlacementRepairer(model)
        rng = np.random.default_rng(33)
        generator = QueryGenerator(seed=rng)
        repaired_some = False
        for q in range(4):
            plan = generator.generate()
            cluster = sample_cluster(rng, int(rng.integers(6, 9)))
            decision = optimizer.optimize(plan, cluster,
                                          n_candidates=20, seed=q)
            lost = decision.placement.used_nodes()[0]
            cluster.remove_node(lost)
            outcome = repairer.repair(plan, cluster, decision.placement,
                                      {lost}, n_candidates=20, seed=q)
            outcome.placement.validate(plan, cluster)
            assert lost not in outcome.placement.used_nodes()
            if not outcome.full_replacement:
                repaired_some = True
                for op_id in outcome.pinned_ops:
                    assert outcome.placement.node_of(op_id) \
                        == decision.placement.node_of(op_id)
                assert set(outcome.repaired_ops) \
                    == set(plan.topological_order()) \
                    - set(outcome.pinned_ops)
        assert repaired_some, "no query exercised the incremental path"

    def test_strictly_fewer_candidates_than_full(self, small_cluster):
        """The acceptance inequality, on a saturating crafted case:
        pinned enumeration explores a strict subset of the assignment
        space, so both the distinct candidates and the per-candidate
        sampling work stay strictly below the from-scratch path."""
        model = _model()
        plan = _linear_plan()
        placement = Placement({"src1": "edge2", "filter1": "fog1",
                               "sink": "cloud1"})
        small_cluster.remove_node("cloud1")
        repairer = PlacementRepairer(model)
        outcome = repairer.repair(plan, small_cluster, placement,
                                  {"cloud1"}, n_candidates=12, seed=0)
        assert not outcome.full_replacement and outcome.feasible
        assert outcome.repaired_ops == ("filter1", "sink")
        assert outcome.pinned_ops == ("src1",)
        full = PlacementOptimizer(model).optimize(
            plan, small_cluster, n_candidates=12, seed=0)
        assert outcome.candidates_enumerated \
            <= full.candidates_evaluated
        assert outcome.ops_sampled \
            < full.candidates_evaluated * len(plan)

    def test_pinned_columns_constant_across_candidates(self,
                                                       small_cluster):
        model = _model()
        plan = _linear_plan()
        placement = Placement({"src1": "edge2", "filter1": "fog1",
                               "sink": "cloud1"})
        small_cluster.remove_node("cloud1")
        candidates, meta = PlacementRepairer(model).repair_candidates(
            plan, small_cluster, placement, {"cloud1"},
            n_candidates=12, seed=0)
        assert meta["pinned_ops"] == ("src1",)
        assert len(candidates) > 0
        column = candidates.op_ids.index("src1")
        pinned_index = candidates.node_ids.index("edge2")
        assert (candidates.assignment[:, column] == pinned_index).all()
        enumerator = HeuristicPlacementEnumerator(small_cluster, seed=0)
        for row in candidates.assignment:
            assert enumerator.is_valid_assignment(
                plan, dict(zip(candidates.op_ids, row.tolist())))

    def test_repair_replay_bitwise(self):
        model = _model()
        optimizer = PlacementOptimizer(model)
        repairer = PlacementRepairer(model)
        rng = np.random.default_rng(41)
        plan = QueryGenerator(seed=rng).generate()
        cluster = sample_cluster(rng, 7)
        decision = optimizer.optimize(plan, cluster, n_candidates=16,
                                      seed=3)
        lost = decision.placement.used_nodes()[0]
        cluster.remove_node(lost)
        first = repairer.repair(plan, cluster, decision.placement,
                                {lost}, n_candidates=16, seed=3)
        replay = repairer.repair(plan, cluster, decision.placement,
                                 {lost}, n_candidates=16, seed=3)
        assert replay.placement == first.placement
        assert replay.objective == first.objective
        assert replay.repaired_ops == first.repaired_ops

    def test_infeasible_pinning_records_full_replacement(
            self, small_cluster):
        """A contradictory pinning (cloud parent, edge child, only the
        middle operator free) has no rule-valid repair: the fallback is
        recorded in the outcome, never raised."""
        bins = small_cluster.bins()
        assert bins["cloud1"] == 2 and bins["edge1"] == 0
        model = _model()
        plan = _linear_plan()
        placement = Placement({"src1": "cloud1", "filter1": "fog1",
                               "sink": "edge1"})
        outcome = PlacementRepairer(model).repair(
            plan, small_cluster, placement, set(),
            n_candidates=8, seed=0, repair_ops=("filter1",))
        assert outcome.full_replacement
        assert not outcome.feasible
        outcome.placement.validate(plan, small_cluster)

    def test_vanished_pinned_host_forces_full_replacement(
            self, small_cluster):
        """Stacked events: when a pinned operator's host is gone (but
        outside the declared repair set) the pinning is unusable and
        the repair falls back to a full re-placement."""
        model = _model()
        plan = _linear_plan()
        placement = Placement({"src1": "edge1", "filter1": "fog1",
                               "sink": "cloud1"})
        small_cluster.remove_node("edge1")
        small_cluster.remove_node("cloud1")
        outcome = PlacementRepairer(model).repair(
            plan, small_cluster, placement, set(),
            n_candidates=8, seed=0, repair_ops=("sink",))
        assert outcome.full_replacement and not outcome.feasible
        outcome.placement.validate(plan, small_cluster)


def _tracked_monitor(serving, model, cluster, n_deployments=3,
                     seed=51, n_candidates=16):
    """A monitor with ``n_deployments`` optimized deployments on
    ``cluster``; returns (monitor, deployment ids, decisions)."""
    optimizer = PlacementOptimizer(model)
    rng = np.random.default_rng(seed)
    generator = QueryGenerator(seed=rng)
    monitor = ClusterMonitor(serving)
    ids, decisions = [], []
    for index in range(n_deployments):
        plan = generator.generate()
        decision = optimizer.optimize(plan, cluster,
                                      n_candidates=n_candidates,
                                      seed=index)
        ids.append(monitor.track(plan, cluster, decision,
                                 n_candidates=n_candidates, seed=index))
        decisions.append(decision)
    return monitor, ids, decisions


class TestClusterMonitor:
    def test_quiet_monitor_all_zero(self):
        model = _model()
        cluster = _cluster(seed=13)
        with ServingLoop(DecisionBatcher(model), max_queue=16) as loop:
            monitor, _, _ = _tracked_monitor(loop, model, cluster)
            snapshot = loop.health_snapshot()
        assert all(v == 0 for v in monitor.health.as_dict().values())
        assert all(v == 0 for v in snapshot["churn"].values())

    def test_fail_repairs_affected_deployments(self):
        model = _model()
        cluster = _cluster(seed=17, size=7)
        with ServingLoop(DecisionBatcher(model), max_queue=32) as loop:
            monitor, ids, decisions = _tracked_monitor(
                loop, model, cluster)
            lost = decisions[0].placement.used_nodes()[0]
            affected = [i for i, d in zip(ids, decisions)
                        if lost in d.placement.used_nodes()]
            record, outcomes = monitor.observe(
                cluster, ChurnEvent("fail", 0, node_id=lost))
        assert record.applied and lost not in cluster
        assert sorted(outcomes) == sorted(affected)
        for deployment_id, outcome in outcomes.items():
            assert lost not in outcome.placement.used_nodes()
            assert monitor.placement_of(deployment_id) \
                == outcome.placement
        health = monitor.health
        assert health.churn_events == 1 and health.fails == 1
        assert health.replaced_deployments == len(outcomes)
        assert health.repairs + health.full_replacements \
            == len(outcomes)

    def test_join_repairs_nothing(self):
        model = _model()
        cluster = _cluster(seed=19)
        monitor, _, decisions = _tracked_monitor(
            DecisionBatcher(model), model, cluster)
        joining = HardwareNode("late1", cpu=500, ram_mb=16000,
                               bandwidth_mbits=5000, latency_ms=2)
        record, outcomes = monitor.observe(
            cluster, ChurnEvent("join", 0, node=joining))
        assert record.applied and "late1" in cluster
        assert outcomes == {}
        assert monitor.health.joins == 1
        assert monitor.health.replaced_deployments == 0
        for deployment, decision in zip(monitor.deployments, decisions):
            assert deployment.placement == decision.placement

    def test_loop_and_batcher_repairs_identical(self):
        """The serving path is a transport, not a policy: repairs
        through a ServingLoop (one request per decision) equal repairs
        through a bare batcher (one wave) on identically-built
        deployments, bitwise."""
        model = _model()
        event = ChurnEvent("degrade", 0, node_index=1, severity=0.25)
        results = []
        for serving_factory in (
                lambda: DecisionBatcher(model),
                lambda: ServingLoop(DecisionBatcher(model), max_queue=32)):
            cluster = _cluster(seed=23, size=6)
            serving = serving_factory()
            monitor, _, _ = _tracked_monitor(serving, model, cluster)
            _, outcomes = monitor.observe(cluster, event)
            if isinstance(serving, ServingLoop):
                serving.close()
            results.append(outcomes)
        batcher_outcomes, loop_outcomes = results
        assert sorted(batcher_outcomes) == sorted(loop_outcomes)
        for deployment_id, outcome in batcher_outcomes.items():
            other = loop_outcomes[deployment_id]
            assert other.placement == outcome.placement
            assert other.objective == outcome.objective
            assert other.full_replacement == outcome.full_replacement

    def test_untrack_stops_repairs(self):
        model = _model()
        cluster = _cluster(seed=31, size=6)
        monitor, ids, decisions = _tracked_monitor(
            DecisionBatcher(model), model, cluster, n_deployments=2)
        monitor.untrack(ids[0])
        lost = decisions[0].placement.used_nodes()[0]
        _, outcomes = monitor.observe(
            cluster, ChurnEvent("fail", 0, node_id=lost))
        assert ids[0] not in outcomes

    def test_monitor_replay_deterministic(self):
        """Two monitors replaying the same churn plan over identical
        deployments converge to identical records, placements and
        counters — the serving-layer determinism oracle."""
        model = _model()
        plan = ChurnPlan.random(seed=37, n_events=5, max_tick=4)
        runs = []
        for _ in range(2):
            cluster = _cluster(seed=43, size=7)
            monitor, ids, _ = _tracked_monitor(
                DecisionBatcher(model), model, cluster)
            records, outcomes = monitor.play(cluster, plan)
            runs.append((records, outcomes,
                         {i: monitor.placement_of(i) for i in ids},
                         monitor.health.as_dict(), cluster.nodes))
        first, second = runs
        assert first[0] == second[0]          # churn records
        assert sorted(first[1]) == sorted(second[1])
        for deployment_id, outcome in first[1].items():
            assert second[1][deployment_id].placement \
                == outcome.placement
            assert second[1][deployment_id].objective \
                == outcome.objective
        assert first[2] == second[2]          # final placements
        assert first[3] == second[3]          # health counters
        assert first[4] == second[4]          # final cluster state


@nightly_chaos
class TestChurnSweeps:
    """Seeded random churn schedules, replayed end to end twice."""

    @pytest.mark.parametrize("sweep_seed", [101, 202, 303])
    def test_random_churn_replay_identical(self, sweep_seed):
        model = _model()
        plan = ChurnPlan.random(seed=sweep_seed, n_events=8,
                                max_tick=6)
        runs = []
        for _ in range(2):
            cluster = _cluster(seed=sweep_seed, size=6)
            with ServingLoop(DecisionBatcher(model), max_queue=32) as loop:
                monitor, ids, _ = _tracked_monitor(
                    loop, model, cluster, seed=sweep_seed)
                records, _ = monitor.play(cluster, plan)
            runs.append((records,
                         {i: monitor.placement_of(i) for i in ids},
                         monitor.health.as_dict(), cluster.nodes))
        assert runs[0] == runs[1]
        health = runs[0][2]
        assert health["churn_events"] == len(plan)
        applied = sum(1 for record in runs[0][0] if record.applied)
        assert health["skipped_events"] == len(plan) - applied
        for deployment_placement in runs[0][1].values():
            used = set(deployment_placement.used_nodes())
            live = set(n.node_id for n in runs[0][3])
            assert used <= live
