"""Hot-path performance microbenchmark (fast path vs. pre-PR code).

Times the optimized hot paths against faithful slow-path replicas and
asserts that every fast path is numerically equivalent to its replica
(deltas within 1e-9, decisions agree) at every scale.  Speedups are
reported, not asserted: wall-clock ratios measured inside a long
pytest run are too noisy to gate on.  The
speedup floors live in ``scripts/check_perf_regression.py``, which
gates a fresh-process ``scripts/bench_hotpaths.py`` run (the CI
perf-gate job and the nightly).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from _harness import run_once

from repro.experiments.hotpaths import (EQUIVALENCE_TOLERANCE,
                                        run_hotpath_benchmarks)


def test_perf_hotpaths(benchmark, context, report, tmp_path):
    results = run_once(
        benchmark, lambda: run_hotpath_benchmarks(context.scale.name))

    # Written to an explicit target (or a temp dir) rather than the
    # repo root: the committed BENCH_hotpaths.json records small-scale
    # results and must not be silently overwritten by a tiny-scale
    # smoke run; use scripts/bench_hotpaths.py to regenerate it.
    out_path = Path(os.environ.get("BENCH_HOTPATHS_OUT",
                                   tmp_path / "BENCH_hotpaths.json"))
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nBENCH_hotpaths.json written to {out_path}")

    report([
        {"path": "collate",
         "speedup": results["collate"]["speedup"],
         "fast": f"{results['collate']['graphs_per_s_fast']:,.0f} graphs/s"},
        {"path": "candidate_collation",
         "speedup": results["candidate_collation"]["speedup"],
         "fast": f"{results['candidate_collation']['candidates_per_s_fast']:,.0f} cands/s"},
        {"path": "placement_decision",
         "speedup": results["placement_decision"]["speedup"],
         "fast": f"{1e3 * results['placement_decision']['fast_s_per_decision']:.1f} ms"},
        {"path": "epoch",
         "speedup": results["epoch"]["speedup"],
         "fast": f"{results['epoch']['fast_s_per_epoch']:.2f} s"},
    ], title="Hot-path speedups (vs pre-optimization code)")

    # Correctness is asserted at every scale: the fast path must be a
    # pure optimization.
    assert results["equivalence"]["max_abs_delta"] <= EQUIVALENCE_TOLERANCE
    assert results["equivalence"]["decisions_agree"]
    assert results["equivalence"]["pass"]
    throughput = results["decision_throughput"]
    assert throughput["float64_max_abs_delta"] <= EQUIVALENCE_TOLERANCE
    assert throughput["decisions_agree"]
    assert throughput["float32_max_rel_delta"] \
        <= throughput["float32_tolerance"]
    assert throughput["float32_decisions_agree"]
    assert throughput["service"]["decisions_match"]
    collation = results["candidate_collation"]
    assert collation["float64_max_abs_delta"] <= EQUIVALENCE_TOLERANCE
    assert collation["fields_equal"]
    assert collation["chosen_identical"]
