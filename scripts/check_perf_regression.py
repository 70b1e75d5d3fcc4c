#!/usr/bin/env python
"""CI perf-regression gate over ``BENCH_hotpaths.json``.

Usage::

    python scripts/check_perf_regression.py --fresh fresh.json \
        [--baseline BENCH_hotpaths.json] \
        [--decision-floor 5.0] [--epoch-floor 2.0] [--collate-floor 2.0] \
        [--ensemble-floor 0.8] \
        [--candidate-collation-floor 2.0] [--tolerance 1e-9]

Compares a freshly measured benchmark JSON against the committed
baseline and **fails (exit 1)** when

* the placement-decision / epoch / collate speedups drop below the
  ROADMAP floors (>= 5x / >= 2x / >= 2x by default — override per
  runner: hosted CI runs the tiny scale on noisy hardware and passes
  relaxed floors; the nightly enforces the full floors at small scale),
* the batched-GEMM ensemble path regresses below ``--ensemble-floor``
  (1.0 means parity with the per-member loop),
* a decision wave's objectives drift from sequential ``optimize``
  calls (``decision_throughput``: the float64 delta must stay within
  ``--tolerance`` and every decision must agree; the wave decides each
  request through the sequential path, so the entry records no
  wave-vs-sequential timing),
* the index-native candidate collation regresses below
  ``--candidate-collation-floor`` against the retained per-candidate
  reference loop, its batches stop matching the reference field for
  field, or the placement chosen from the index-native batch differs
  from the reference batch's choice,
* the fast path stops being numerically equivalent to the slow-path
  replicas (``max_abs_delta`` > ``--tolerance``, decisions disagree, or
  the recorded equivalence verdict is False),
* the serving loop's decisions stop matching the direct wave
  dispatch, or it rejected, failed or cancelled a request,
* the serving loop's churn counters are non-zero on a no-churn run
  (the benchmark never mutates the cluster, so any repair activity
  means the monitor misfired), the ``churn_repair`` entry is missing,
  its repairs stop replaying bitwise-identically, the incremental
  repair stops enumerating strictly fewer candidate assignments than
  a full re-placement, or the per-request p99 wall latency of the
  serving loop exceeds ``--service-p99-ms``, or
* float32 inference drifts beyond the tolerance recorded in the
  benchmark itself (``float32_tolerance`` of ``ensemble_batched`` /
  ``decision_throughput``), or a float32 wave flips a decision.

The baseline is used for drift *reporting*: every metric is printed as
``fresh vs baseline`` so a regression that still clears the floor is
visible in the CI log before it becomes a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _speedup(results: dict, section: str) -> float:
    return float(results.get(section, {}).get("speedup", 0.0))


# The benchmark never mutates its clusters, so the attached
# ClusterMonitor must stay completely quiet: a non-zero counter means
# churn handling leaked into the no-churn hot path.
_CHURN_MUST_BE_ZERO = ("churn_events", "joins", "leaves", "fails",
                       "degrades", "skipped_events", "repairs",
                       "full_replacements", "infeasible",
                       "replaced_deployments")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="freshly measured benchmark JSON")
    parser.add_argument("--baseline", default="BENCH_hotpaths.json",
                        help="committed baseline JSON (drift reporting)")
    parser.add_argument("--decision-floor", type=float, default=5.0)
    parser.add_argument("--epoch-floor", type=float, default=2.0)
    parser.add_argument("--collate-floor", type=float, default=2.0)
    parser.add_argument("--ensemble-floor", type=float, default=0.8)
    parser.add_argument("--candidate-collation-floor", type=float,
                        default=2.0)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    # Generous by default: hosted CI shares noisy cores, so the gate
    # only catches order-of-magnitude stalls; the nightly passes a
    # tighter budget.
    parser.add_argument("--service-p99-ms", type=float, default=500.0,
                        help="per-request p99 wall-latency budget for "
                             "the serving loop (ms)")
    args = parser.parse_args(argv)

    fresh = json.loads(Path(args.fresh).read_text())
    baseline_path = Path(args.baseline)
    baseline = (json.loads(baseline_path.read_text())
                if baseline_path.exists() else {})

    floors = {
        "placement_decision": args.decision_floor,
        "epoch": args.epoch_floor,
        "collate": args.collate_floor,
        "candidate_collation": args.candidate_collation_floor,
        "ensemble_batched": args.ensemble_floor,
    }
    failures: list[str] = []

    # Drift ratios only mean something when both runs used the same
    # scale preset; a tiny-scale CI run against the committed
    # small-scale baseline still gates on the floors, but cross-scale
    # speedup ratios would read as phantom regressions.
    same_scale = fresh.get("scale") == baseline.get("scale")
    print(f"perf gate: fresh={args.fresh} (scale="
          f"{fresh.get('scale', '?')}) vs baseline={args.baseline} "
          f"(scale={baseline.get('scale', '?')})")
    if baseline and not same_scale:
        print("  (scales differ: drift column suppressed, floors "
              "still apply)")
    for section, floor in floors.items():
        speedup = _speedup(fresh, section)
        base = _speedup(baseline, section)
        drift = (f"{speedup / base:5.2f}x of baseline"
                 if base and same_scale else "drift n/a")
        status = "ok" if speedup >= floor else "FAIL"
        print(f"  {section:<20} {speedup:6.2f}x (floor {floor:.1f}x, "
              f"baseline {base:.2f}x, {drift}) {status}")
        if speedup < floor:
            failures.append(
                f"{section} speedup {speedup:.2f}x below floor "
                f"{floor:.1f}x")

    equivalence = fresh.get("equivalence", {})
    delta = float(equivalence.get("max_abs_delta", float("inf")))
    print(f"  equivalence          max|delta|={delta:.2e} "
          f"(tolerance {args.tolerance:.0e}) "
          f"{'ok' if delta <= args.tolerance else 'FAIL'}")
    if delta > args.tolerance:
        failures.append(f"equivalence delta {delta:.2e} exceeds "
                        f"{args.tolerance:.0e}")
    if not equivalence.get("decisions_agree", False):
        failures.append("fast/slow placement decisions disagree")
    if not equivalence.get("pass", False):
        failures.append("benchmark equivalence verdict is False")

    ensemble = fresh.get("ensemble_batched", {})
    if not ensemble:
        failures.append("fresh results lack the ensemble_batched entry")
    else:
        f64_delta = float(ensemble.get("float64_max_abs_delta",
                                       float("inf")))
        if f64_delta > args.tolerance:
            failures.append(
                f"float64 batched-GEMM delta {f64_delta:.2e} exceeds "
                f"{args.tolerance:.0e}")
        f32_delta = float(ensemble.get("float32_max_rel_delta",
                                       float("inf")))
        f32_budget = float(ensemble.get("float32_tolerance", 0.0))
        print(f"  float32              rel delta={f32_delta:.2e} "
              f"(tolerance {f32_budget:.0e}) "
              f"{'ok' if f32_delta <= f32_budget else 'FAIL'}")
        if f32_delta > f32_budget:
            failures.append(
                f"float32 rel delta {f32_delta:.2e} exceeds "
                f"{f32_budget:.0e}")

    collation = fresh.get("candidate_collation", {})
    if not collation:
        failures.append("fresh results lack the candidate_collation "
                        "entry")
    else:
        collation_delta = float(collation.get("float64_max_abs_delta",
                                              float("inf")))
        print(f"  cand. collation      max|delta|={collation_delta:.2e} "
              f"(tolerance {args.tolerance:.0e}) "
              f"{'ok' if collation_delta <= args.tolerance else 'FAIL'}")
        if collation_delta > args.tolerance:
            failures.append(
                f"index-native collation delta {collation_delta:.2e} "
                f"exceeds {args.tolerance:.0e}")
        if not collation.get("fields_equal", False):
            failures.append("index-native candidate batches are not "
                            "field-identical to the reference loop")
        if not collation.get("chosen_identical", False):
            failures.append("index-native collation changed the chosen "
                            "placement")

    throughput = fresh.get("decision_throughput", {})
    if not throughput:
        failures.append("fresh results lack the decision_throughput "
                        "entry")
    else:
        wave_delta = float(throughput.get("float64_max_abs_delta",
                                          float("inf")))
        if wave_delta > args.tolerance:
            failures.append(
                f"decision-wave delta {wave_delta:.2e} exceeds "
                f"{args.tolerance:.0e}")
        if not throughput.get("decisions_agree", False):
            failures.append("decision-wave decisions disagree with "
                            "the sequential path")
        wave_f32 = float(throughput.get("float32_max_rel_delta",
                                        float("inf")))
        wave_f32_budget = float(throughput.get("float32_tolerance", 0.0))
        print(f"  wave float32         rel delta={wave_f32:.2e} "
              f"(tolerance {wave_f32_budget:.0e}) "
              f"{'ok' if wave_f32 <= wave_f32_budget else 'FAIL'}")
        if wave_f32 > wave_f32_budget:
            failures.append(
                f"float32 wave rel delta {wave_f32:.2e} exceeds "
                f"{wave_f32_budget:.0e}")
        if not throughput.get("float32_decisions_agree", False):
            failures.append("float32 wave flipped a chosen placement")

    service = throughput.get("service")
    if service is not None:
        stats = service.get("stats", {})
        match = service.get("decisions_match", False)
        dropped = sum(int(stats.get(key, 0))
                      for key in ("rejected", "failed", "cancelled"))
        print(f"  serving loop         decisions_match={match}, "
              f"rejected+failed+cancelled={dropped} "
              f"{'ok' if match and dropped == 0 else 'FAIL'}")
        if not match:
            failures.append("serving-loop decisions diverge from the "
                            "direct wave dispatch")
        if dropped:
            failures.append(
                f"serving loop rejected/failed/cancelled {dropped} "
                f"requests on an uncontended run")
        p99 = float(stats.get("latency_p99_ms", float("inf")))
        print(f"  serving p99          {p99:.1f} ms "
              f"(budget {args.service_p99_ms:.0f} ms) "
              f"{'ok' if p99 <= args.service_p99_ms else 'FAIL'}")
        if p99 > args.service_p99_ms:
            failures.append(
                f"serving-loop p99 latency {p99:.1f} ms exceeds the "
                f"{args.service_p99_ms:.0f} ms budget")
        churn_health = service.get("churn")
        if churn_health is None:
            failures.append("serving-loop results lack the churn "
                            "health block")
        else:
            dirty = {key: churn_health.get(key, 0)
                     for key in _CHURN_MUST_BE_ZERO
                     if churn_health.get(key, 0)}
            print(f"  serving churn        "
                  f"{'all zero ok' if not dirty else f'{dirty} FAIL'}")
            if dirty:
                failures.append(
                    f"churn counters non-zero on a no-churn run: "
                    f"{dirty}")

    churn = fresh.get("churn_repair", {})
    if not churn:
        failures.append("fresh results lack the churn_repair entry")
    else:
        deterministic = churn.get("deterministic", False)
        fewer = churn.get("fewer_candidates", False)
        ratio = float(churn.get("speedup", 0.0))
        print(f"  churn repair         {ratio:6.2f}x vs full "
              f"re-placement, deterministic={deterministic}, "
              f"fewer_candidates={fewer} "
              f"{'ok' if deterministic and fewer else 'FAIL'}")
        if not deterministic:
            failures.append("incremental churn repairs stopped "
                            "replaying bitwise-identically")
        if not fewer:
            failures.append(
                "incremental repair no longer enumerates strictly "
                "fewer candidate assignments than full re-placement")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
