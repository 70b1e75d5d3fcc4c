"""Self-test of the benchmark at a tiny size (seconds, not minutes)."""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers, workloads  # noqa: E402
from perfbench.run import run  # noqa: E402
from repro import (HeuristicPlacementEnumerator, QueryGenerator,  # noqa: E402
                   sample_cluster)
from repro.hardware import Placement  # noqa: E402

TINY = workloads.Sizes(
    setup_traces=24, setup_epochs=1, setup_repeats=1, decisions=16,
    schedule_s=0.4, train_traces=30, heldout_traces=12, train_epochs=1)


@pytest.fixture(scope="module")
def model():
    return workloads.train_setup_model(TINY)


def test_every_layer_metric_says_what_it_should_move():
    for name in layers.catalog("per_layer"):
        assert any(name.startswith(layer + ".")
                   for layer in layers.SHOULD_MOVE), name


@pytest.mark.parametrize("workload", ["decide", "serve", "train"])
def test_every_metric_prints_with_its_unit(workload):
    result, record = run(workload, seed=3, seconds=1, trace=False,
                         sizes=TINY, out_dir=None)
    assert result["correct"], record["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    catalog = layers.catalog("end_to_end")
    assert tuple(result["metrics"]) == tuple(catalog)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalog[name]["unit"]
        assert catalog[name]["better"] in ("lower", "higher")
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    env = record["environment"]
    assert env["seed"] == 3 and env["cpu_count"] and env["numpy"]


@pytest.mark.parametrize("workload", ["decide", "serve"])
def test_traced_run_reports_every_layer_metric(workload):
    result, record = run(workload, seed=3, seconds=1, trace=True,
                         sizes=TINY, out_dir=None)
    assert result["correct"], record["checks"]
    assert set(result["metrics"]) == set(layers.catalog("per_layer"))
    assert record["digests"][0] == record["digests"][1]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.ensemble.calls"] > 0
    assert values["nn.backend.mlp_forward.calls"] > 0
    assert values["nn.backend.ref_gflops"] > 0
    assert 0 <= values["trace.unattributed_frac"] \
        <= layers.UNATTRIBUTED_TOLERANCE
    # Only timed work is traced: the simulator runs off the clock on
    # decide, and serve's sequential replay adds no enumeration calls.
    assert values["simulator.runs"] == 0
    if workload == "serve":
        assert values["placement.enumeration.calls"] \
            == record["outputs"][1]["requests"]


def test_decide_outputs_repeat_for_a_seed_and_vary_across_seeds(model):
    first = workloads.run_decide(model, 5, TINY)
    again = workloads.run_decide(model, 5, TINY)
    other = workloads.run_decide(model, 6, TINY)
    assert first.digest == again.digest
    assert first.record == again.record
    assert first.digest != other.digest
    assert first.record["candidates"] > 0
    assert first.record["placement_speedup_p50"] \
        == again.record["placement_speedup_p50"]


def test_train_qerrors_repeat_for_a_seed_and_vary_across_seeds():
    sizes = dataclasses.replace(TINY, train_traces=16, heldout_traces=8)
    first = workloads.run_train(5, sizes)
    again = workloads.run_train(5, sizes)
    other = workloads.run_train(6, sizes)
    assert first.record["qerrors"] == again.record["qerrors"]
    assert first.digest == again.digest
    assert first.record["qerrors"] != other.record["qerrors"]


def test_checks_trip_on_a_wrong_decision(model):
    sizes = dataclasses.replace(TINY, schedule_s=0.2)
    requests, _ = workloads.serve_schedule(7, sizes)
    optimizer = workloads.PlacementOptimizer(model)
    decisions = [optimizer.optimize(r.plan, r.cluster, seed=r.seed)
                 for r in requests[:2]]
    assert workloads.same_decisions(decisions, list(decisions))
    wrong = [decisions[0], dataclasses.replace(
        decisions[1],
        predicted_objective=np.nextafter(
            decisions[1].predicted_objective, np.inf))]
    assert not workloads.same_decisions(decisions, wrong)

    # Downstream operators on a weaker host than their parent break
    # the increasing-capability rule.
    rng = np.random.default_rng(0)
    plan = QueryGenerator(seed=1).generate_linear()
    cluster = sample_cluster(rng, 8)
    bins = cluster.bins()
    strong = max(cluster.node_ids, key=bins.get)
    weak = min(cluster.node_ids, key=bins.get)
    assert bins[strong] > bins[weak]
    order = plan.topological_order()
    placement = Placement({op: strong if i == 0 else weak
                           for i, op in enumerate(order)})
    assert workloads.rule_check(plan, placement, cluster) == "invalid"
    valid = HeuristicPlacementEnumerator(cluster, seed=0).sample(plan)
    assert workloads.rule_check(plan, valid, cluster) in ("valid",
                                                          "fallback")


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
