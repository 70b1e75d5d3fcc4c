#!/usr/bin/env python
"""Measure the hot-path speedups and emit ``BENCH_hotpaths.json``.

Usage::

    PYTHONPATH=src python scripts/bench_hotpaths.py [--scale small]
        [--out BENCH_hotpaths.json] [--profile] [--seed 7]

Benchmarks the fast predict/train stack against faithful replicas of
the pre-optimization code (see ``repro/experiments/hotpaths.py`` and
PERFORMANCE.md): vectorized collation throughput, end-to-end
placement-decision latency, and training epoch time.  The JSON also
records an equivalence check — fast- and slow-path predictions must
agree within 1e-9.

``--profile`` additionally prints a cProfile top-20 (cumulative time)
of one fast-path placement decision, to locate future regressions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.hotpaths import (profile_decision,  # noqa: E402
                                        run_hotpath_benchmarks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=None,
                        help="tiny / small / full (default: $REPRO_SCALE "
                             "or small)")
    parser.add_argument("--out", default="BENCH_hotpaths.json",
                        help="output JSON path")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus sampling seed")
    parser.add_argument("--profile", action="store_true",
                        help="print cProfile top-20s of one placement "
                             "decision and one decision wave")
    args = parser.parse_args(argv)

    if args.profile:
        profile_decision(args.scale)

    results = run_hotpath_benchmarks(args.scale, seed=args.seed)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    decision = results["placement_decision"]
    throughput = results["decision_throughput"]
    epoch = results["epoch"]
    ensemble = results["ensemble_batched"]
    collation = results["candidate_collation"]
    print(f"scale={results['scale']}")
    print(f"collate:   {results['collate']['speedup']:6.1f}x "
          f"({results['collate']['graphs_per_s_fast']:,.0f} graphs/s)")
    print(f"cand-coll: {collation['speedup']:6.1f}x index-native "
          f"({collation['candidates_per_s_fast']:,.0f} candidates/s, "
          f"delta {collation['float64_max_abs_delta']:.1e}, "
          f"chosen identical: {collation['chosen_identical']})")
    print(f"decision:  {decision['speedup']:6.1f}x "
          f"({1e3 * decision['fast_s_per_decision']:.1f} ms/decision, "
          f"{decision['n_candidates']} candidates)")
    print(f"throughput:{throughput['decisions_per_s_sequential']:,.0f} "
          f"decisions/s ({throughput['n_requests']} requests, "
          f"wave decisions agree: {throughput['decisions_agree']}, "
          f"f32 {throughput['float32_speedup']:.2f}x)")
    if "service" in throughput:
        service = throughput["service"]
        stats = service["stats"]
        churn_quiet = all(v == 0 for v in
                          service.get("churn", {}).values())
        print(f"serving:   {service['decisions_per_s_service']:,.0f} "
              f"decisions/s through the serving loop "
              f"(waves {stats['waves']}, rejected {stats['rejected']}, "
              f"failed {stats['failed']}, p99 "
              f"{stats['latency_p99_ms']:.1f} ms, matches direct "
              f"dispatch: {service['decisions_match']}, churn "
              f"counters quiet: {churn_quiet})")
    churn = results["churn_repair"]
    print(f"churn:     {churn['speedup']:6.2f}x incremental repair vs "
          f"full re-placement ({1e3 * churn['repair_s_per_event']:.1f} "
          f"ms/repair, {churn['repair_candidates']} vs "
          f"{churn['full_candidates']} candidate assignments, "
          f"objective ratio {churn['objective_ratio_q50']:.3f}, "
          f"deterministic: {churn['deterministic']})")
    print(f"ensemble:  {ensemble['speedup']:6.1f}x batched-GEMM "
          f"(K={ensemble['ensemble_size']}, "
          f"float32 {ensemble['float32_speedup']:.1f}x, "
          f"rel delta {ensemble['float32_max_rel_delta']:.1e})")
    print(f"epoch:     {epoch['speedup']:6.1f}x "
          f"({epoch['fast_s_per_epoch']:.2f} s/epoch, "
          f"{epoch['n_graphs']} graphs)")
    train = results["ensemble_train"]
    print(f"ens-train: {train['speedup']:6.2f}x stacked K="
          f"{train['ensemble_size']} "
          f"({1e3 * train['stacked_s_per_epoch']:.0f} ms/epoch, "
          f"loss delta {train['max_abs_train_loss_delta']:.1e}, "
          f"params equal: {train['params_equal']})")
    print(f"equivalence: max|delta|={results['equivalence']['max_abs_delta']:.2e}"
          f" pass={results['equivalence']['pass']}")
    print(f"wrote {args.out}")
    return 0 if results["equivalence"]["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
