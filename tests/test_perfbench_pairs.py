"""The paired-run driver's parsing and summaries, on canned output."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" \
    / "perfbench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_pairs", _PATH)
pairs_driver = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs_driver)

CATALOG = {"op_p90_ms": "lower", "qerror_p50.throughput": "lower",
           "placement.optimizer.feasible_frac": "higher",
           "simulator.self_ms": "lower", "simulator.runs": "lower",
           "core.training.self_ms": "lower"}


def _stdout(metrics, correct=True, failed=0, digests=("a", "b")):
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {name: {"value": value, "unit": "ms"}
                          for name, value in metrics.items()}}
    return "\n".join([
        "op_p90_ms = 3.3 ms (lower is better)",
        "record " + json.dumps({"workload": "train",
                                "digests": list(digests)}),
        json.dumps(result)])


def _run(metrics, **kwargs):
    return pairs_driver.parse_output(_stdout(metrics, **kwargs))


def _pair(seed, parent, change, trace=False):
    return {"seed": seed, "workload": "train", "trace": trace,
            "first": "parent", "parent": parent, "change": change}


class TestParsing:
    def test_seed_ranges(self):
        assert pairs_driver.parse_seeds("8101-8103,8110") \
            == [8101, 8102, 8103, 8110]
        assert pairs_driver.parse_seeds("7") == [7]

    def test_result_and_digests(self):
        run = _run({"op_p90_ms": 3.32}, failed=2, digests=("x", "y", "z"))
        assert run == {"correct": True, "attempted": 100, "failed": 2,
                       "metrics": {"op_p90_ms": 3.32},
                       "digests": ["x", "y", "z"]}

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            pairs_driver.parse_output("\n")

    def test_catalog_directions_from_benchmark_json(self):
        catalog = pairs_driver.load_catalog(_PATH.parent.parent)
        assert catalog["op_p90_ms"] == "lower"
        assert catalog["placement.optimizer.feasible_frac"] == "higher"


class TestSummary:
    def test_medians_wins_and_parent_iqr(self):
        parent = [5.0, 5.5, 6.0, 5.2, 5.8]
        change = [3.0, 3.4, 6.5, 3.1, 3.3]
        pairs = [_pair(i, _run({"op_p90_ms": p,
                                "placement.optimizer.feasible_frac": 0.5}),
                       _run({"op_p90_ms": c,
                             "placement.optimizer.feasible_frac": 0.6}))
                 for i, (p, c) in enumerate(zip(parent, change))]
        rows = {r["metric"]: r
                for r in pairs_driver.summarize(pairs, CATALOG)}
        p90 = rows["op_p90_ms"]
        assert p90["parent_median"] == 5.5
        assert p90["change_median"] == 3.3
        assert p90["change_won"] == 4 and p90["pairs"] == 5
        # numpy's linear percentiles of the parent runs: 5.8 - 5.2.
        assert p90["parent_iqr"] == pytest.approx(0.6)
        assert p90["beyond_iqr"]
        # "higher is better" metrics count the other way round.
        assert rows["placement.optimizer.feasible_frac"]["change_won"] == 5

    def test_ties_are_not_wins(self):
        pairs = [_pair(1, _run({"op_p90_ms": 2.0}), _run({"op_p90_ms": 2.0}))]
        (row,) = pairs_driver.summarize(pairs, CATALOG)
        assert row["change_won"] == 0 and not row["beyond_iqr"]

    def test_clean_pairs_raise_no_flag(self):
        metrics = {"op_p90_ms": 1.0, "qerror_p50.throughput": 1.25}
        pairs = [_pair(1, _run(metrics), _run(dict(metrics, op_p90_ms=0.9)))]
        assert pairs_driver.flags(pairs) == []
        assert "flags: none" in pairs_driver.report(pairs, CATALOG)

    def test_flags_incorrect_failed_and_differing_labels(self):
        parent = _run({"qerror_p50.throughput": 1.25})
        change = _run({"qerror_p50.throughput": 1.26}, correct=False,
                      failed=3, digests=("a", "c"))
        found = pairs_driver.flags([_pair(9, parent, change)])
        assert found == [
            "seed 9 change: not correct",
            "seed 9 change: 3 of 100 operations failed",
            "seed 9: qerror_p50.throughput differs (1.25 vs 1.26)",
            "seed 9: record digests differ"]


class TestTrace:
    def test_layer_that_moved_most(self):
        parent = _run({"simulator.self_ms": 900.0, "simulator.runs": 3802,
                       "core.training.self_ms": 20000.0})
        change = _run({"simulator.self_ms": 450.0, "simulator.runs": 3802,
                       "core.training.self_ms": 20100.0})
        rows, moved = pairs_driver.trace_deltas(
            _pair(1, parent, change, trace=True), CATALOG)
        assert moved == "simulator.self_ms"
        deltas = {r["metric"]: r["delta"] for r in rows}
        assert deltas == {"simulator.self_ms": -450.0, "simulator.runs": 0.0,
                          "core.training.self_ms": 100.0}
        text = pairs_driver.report([_pair(1, parent, change, trace=True)],
                                   CATALOG)
        assert "layer that moved most: simulator.self_ms (-450 ms)" in text
