#!/usr/bin/env python
"""Run perfbench in alternating parent/change pairs and summarize them.

Usage (from the repository root)::

    python3 scripts/perfbench_pairs.py --parent ../parent --change . \\
        --workload train --seeds 8101-8110 --seconds 40 [--out runs.jsonl]
    python3 scripts/perfbench_pairs.py --parent ../parent --change . \\
        --workload train --seeds 8111 --trace
    python3 scripts/perfbench_pairs.py --load runs.jsonl

``--parent`` and ``--change`` are two checkouts, each with its own
``perfbench/run.py`` and ``BENCHMARK.json``.  Every seed is one pair:
both checkouts run ``perfbench/run.py --workload W --seed S --seconds
T`` in fresh processes, the parent first on even pairs and the change
first on odd ones, so a steady drift of the host's speed falls on both
sides alike.

Untraced pairs print, per end-to-end metric, both medians, the number
of pairs the change won (strictly better in the catalog's direction),
the parent's IQR and whether the medians differ by more than it.  Any
run that is not ``correct``, any failed operation and any pair whose
``qerror_p50.*`` values or record digests differ are flagged.
``--trace`` runs one ``--trace 1`` pair per seed and prints every
per-layer metric of both sides with its delta, naming the layer whose
``self_ms`` moved most.  ``--out`` appends each run to a JSON-lines
file; ``--load`` summarizes such a file without running anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"8101-8103,8110"`` -> ``[8101, 8102, 8103, 8110]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def parse_output(stdout: str) -> dict:
    """One ``perfbench/run.py`` run from its standard output.

    The last line is the result object; the line starting with
    ``record `` carries the digests.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: float(m["value"])
                        for name, m in result["metrics"].items()},
            "digests": record.get("digests", [])}


def load_catalog(checkout: Path) -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"`` from ``BENCHMARK.json``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def run_one(checkout: Path, workload: str, seed: int, seconds: int,
            trace: bool) -> dict:
    """One fresh-process perfbench run in ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    try:
        run = parse_output(done.stdout)
    except (ValueError, KeyError) as error:
        raise RuntimeError(f"{checkout}: perfbench exited {done.returncode}"
                           f": {error}\n{done.stderr[-2000:]}") from None
    run["returncode"] = done.returncode
    return run


def run_pairs(parent: Path, change: Path, workload: str, seeds: list[int],
              seconds: int, trace: bool, out: Path | None = None
              ) -> list[dict]:
    """Alternating pairs, one per seed; pair ``i`` runs the parent first
    when ``i`` is even."""
    checkouts = {"parent": parent, "change": change}
    pairs = []
    for index, seed in enumerate(seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "workload": workload, "trace": trace,
                "first": order[0]}
        for side in order:
            pair[side] = run_one(checkouts[side], workload, seed, seconds,
                                 trace)
            print(f"  seed {seed} {side}: correct={pair[side]['correct']} "
                  f"failed={pair[side]['failed']}", file=sys.stderr)
        pairs.append(pair)
        if out is not None:
            with out.open("a") as handle:
                handle.write(json.dumps(pair) + "\n")
    return pairs


def _better(direction: str, change: float, parent: float) -> bool:
    return change < parent if direction == "lower" else change > parent


def summarize(pairs: list[dict], catalog: dict[str, str]) -> list[dict]:
    """Per metric present in every run: medians, wins and parent IQR."""
    names = [n for n in pairs[0]["parent"]["metrics"]
             if all(n in p[s]["metrics"] for p in pairs for s in SIDES)]
    rows = []
    for name in names:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        direction = catalog.get(name, "lower")
        q25, q75 = np.percentile(parent, [25, 75])
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        rows.append({
            "metric": name, "better": direction,
            "parent_median": parent_median, "change_median": change_median,
            "change_won": sum(_better(direction, c, p)
                              for p, c in zip(parent, change)),
            "pairs": len(pairs), "parent_iqr": float(q75 - q25),
            "beyond_iqr": abs(change_median - parent_median)
            > float(q75 - q25)})
    return rows


def flags(pairs: list[dict]) -> list[str]:
    """Incorrect runs, failed operations and pairs whose labels differ."""
    found = []
    for pair in pairs:
        seed = pair["seed"]
        for side in SIDES:
            run = pair[side]
            if not run["correct"]:
                found.append(f"seed {seed} {side}: not correct")
            if run["failed"]:
                found.append(f"seed {seed} {side}: {run['failed']} of "
                             f"{run['attempted']} operations failed")
        parent, change = pair["parent"], pair["change"]
        for name, value in parent["metrics"].items():
            if name.startswith("qerror_p50.") \
                    and change["metrics"].get(name) != value:
                found.append(f"seed {seed}: {name} differs "
                             f"({value!r} vs "
                             f"{change['metrics'].get(name)!r})")
        if parent["digests"] != change["digests"]:
            found.append(f"seed {seed}: record digests differ")
    return found


def trace_deltas(pair: dict, catalog: dict[str, str]
                 ) -> tuple[list[dict], str | None]:
    """Every per-layer metric of one traced pair with its delta, and the
    ``*.self_ms`` metric whose absolute delta is largest."""
    parent, change = pair["parent"]["metrics"], pair["change"]["metrics"]
    rows = [{"metric": name, "better": catalog.get(name, "lower"),
             "parent": value, "change": change[name],
             "delta": change[name] - value}
            for name, value in parent.items() if name in change]
    self_ms = [r for r in rows if r["metric"].endswith(".self_ms")]
    moved = max(self_ms, key=lambda r: abs(r["delta"]), default=None)
    return rows, (moved["metric"] if moved else None)


def format_summary(rows: list[dict]) -> str:
    lines = ["| metric | better | parent median | change median | "
             "change won | parent IQR | beyond IQR |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(
            f"| {r['metric']} | {r['better']} | {r['parent_median']:.6g} | "
            f"{r['change_median']:.6g} | {r['change_won']} of {r['pairs']} "
            f"| {r['parent_iqr']:.4g} | {'yes' if r['beyond_iqr'] else 'no'}"
            " |")
    return "\n".join(lines)


def format_trace(rows: list[dict], moved: str | None) -> str:
    lines = ["| metric | parent | change | delta |", "|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r['metric']} | {r['parent']:.6g} | "
                     f"{r['change']:.6g} | {r['delta']:+.6g} |")
    if moved is not None:
        delta = next(r["delta"] for r in rows if r["metric"] == moved)
        lines.append(f"\nlayer that moved most: {moved} ({delta:+.6g} ms)")
    return "\n".join(lines)


def report(pairs: list[dict], catalog: dict[str, str]) -> str:
    """The printed summary of a set of pairs (all traced or untraced)."""
    head = (f"{pairs[0]['workload']}: {len(pairs)} pair(s), seeds "
            f"{', '.join(str(p['seed']) for p in pairs)}")
    parts = [head]
    if pairs[0]["trace"]:
        for pair in pairs:
            rows, moved = trace_deltas(pair, catalog)
            parts.append(f"\ntraced pair, seed {pair['seed']}\n"
                         + format_trace(rows, moved))
    else:
        parts.append(format_summary(summarize(pairs, catalog)))
    found = flags(pairs)
    parts.append("\nflags: " + ("none" if not found else ""))
    parts.extend(f"  - {f}" for f in found)
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", choices=("decide", "serve", "train"))
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path,
                        help="append every pair to this JSON-lines file")
    parser.add_argument("--load", type=Path,
                        help="summarize pairs saved with --out; run nothing")
    args = parser.parse_args(argv)
    if args.load is not None:
        pairs = [json.loads(line) for line in args.load.read_text()
                 .splitlines() if line.strip()]
        catalog = load_catalog(args.change)
        groups: dict[tuple, list[dict]] = {}
        for pair in pairs:
            groups.setdefault((pair["workload"], pair["trace"]),
                              []).append(pair)
        print("\n\n".join(report(group, catalog)
                          for group in groups.values()))
        return 0
    if args.parent is None or args.workload is None or not args.seeds:
        parser.error("--parent, --workload and --seeds are required "
                     "unless --load is given")
    pairs = run_pairs(args.parent.resolve(), args.change.resolve(),
                      args.workload, args.seeds, args.seconds, args.trace,
                      args.out)
    print(report(pairs, load_catalog(args.change)))
    return 1 if flags(pairs) else 0


if __name__ == "__main__":
    sys.exit(main())
