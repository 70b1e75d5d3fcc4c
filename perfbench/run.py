"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 40 \\
        --trace 0

``--trace 0`` prints every end-to-end metric, measured untraced; each
workload times its own operations under the same metric names (see
``perfbench/layers.py``).  ``--trace 1`` runs the workload three times
on identical inputs, untraced, traced and untraced again, and prints
every per-layer metric.  Spans and a full result record go to
``.perfbench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed correctness check
prints ``"correct": false`` and exits with code 1.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "REPRO_BACKEND")


def _import_program():
    """Import the program from the checkout's ``src``; None if absent."""
    if not (ROOT / "src" / "repro").is_dir():
        return None
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import layers, tracing, workloads
    return layers, tracing, workloads


def environment(seed: int) -> dict:
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() \
                else None
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {"seed": seed, "commit": commit,
            "source_sha256": source.hexdigest(),
            "cpu_count": os.cpu_count(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def run(workload: str, seed: int, seconds: int, trace: bool,
        sizes=None, out_dir: Path | None = OUT_DIR) -> tuple[dict, dict]:
    """One benchmark run: (final result object, full record)."""
    modules = _import_program()
    if modules is None:
        raise FileNotFoundError("src/repro not found next to perfbench/")
    layers, tracing, workloads = modules
    import numpy as np
    import_s = time.perf_counter() - _STARTED
    sizes = sizes or workloads.sizes_for(seconds)

    # Set-up, repeated; setup_s is imports plus the median set-up.
    setup_times, model = [], None
    for _ in range(sizes.setup_repeats):
        start = time.perf_counter()
        if workload == "train":
            workloads.train_warm_up(seed)
        else:
            model = workloads.train_setup_model(sizes)
            workloads.warm_up(model, seed)
        setup_times.append(time.perf_counter() - start)

    def one_pass(pass_sizes, tracer=None):
        if workload == "decide":
            return workloads.run_decide(model, seed, pass_sizes, tracer)
        if workload == "serve":
            return workloads.run_serve(model, seed, pass_sizes, tracer)
        return workloads.run_train(seed, pass_sizes, tracer)

    checks, record = {}, {"workload": workload, "seconds": seconds,
                          "trace": int(trace),
                          "sizes": dataclasses.asdict(sizes),
                          "environment": environment(seed)}
    if not trace:
        repeats = workloads.TRAIN_REPEATS if workload == "train" else 1
        passes = [one_pass(sizes) for _ in range(repeats)]
        first = passes[0]
        if workload == "train":
            model = first.model
            checks["repeats_identical"] = all(
                p.digest == first.digest for p in passes)
        qerrors, score_checks = workloads.score_model(model)
        checks.update(score_checks)
        record["qerrors"] = {m: repr(q) for m, q in qerrors.items()}
        op_s = [t for p in passes for t in p.op_s]
        values = layers.end_to_end(
            op_s, sum(p.batch_s for p in passes),
            sum(p.batch_items for p in passes), qerrors)
        record["op_ms"] = {f"p{q}": float(np.percentile(op_s, q)) * 1e3
                           for q in (50, 90, 99)}
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        catalog = layers.catalog("end_to_end")
        names = tuple(catalog)
    else:
        # Untraced, traced, untraced: the overhead is taken against
        # the mean of the two untraced passes, which cancels a steady
        # drift of the host's speed.  decide and serve run half-size
        # passes so the three fit in one run's time.
        if workload != "train":
            sizes = dataclasses.replace(
                sizes, decisions=max(1, sizes.decisions // 2),
                schedule_s=sizes.schedule_s / 2)
        first = one_pass(sizes)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = one_pass(sizes, tracer)
        last = one_pass(sizes)
        passes = [first, traced, last]
        checks["traced_equals_untraced"] = (
            first.digest == traced.digest == last.digest)
        values = layers.derive(tracer, workload, (first, last), traced)
        checks["unattributed_within_tolerance"] = (
            values["trace.unattributed_frac"]
            <= layers.UNATTRIBUTED_TOLERANCE)
        catalog = layers.catalog("per_layer")
        names = tuple(catalog)
        record["kernel_ms_by_layer"] = layers.kernel_layers(tracer)
        if out_dir is not None:
            out_dir.mkdir(exist_ok=True)
            tracer.write_jsonl(out_dir / f"{workload}-seed{seed}-spans.jsonl")

    for index, one in enumerate(passes):
        for name, ok in one.checks.items():
            checks[f"pass{index}.{name}"] = ok
    record.update(checks=checks, digests=[p.digest for p in passes],
                  outputs=[p.record for p in passes],
                  setup_times_s=setup_times, import_s=import_s)
    result = {
        "correct": all(checks.values()),
        "attempted": int(sum(p.attempted for p in passes)),
        "failed": int(sum(p.failed for p in passes)),
        "metrics": {name: {"value": float(values[name]),
                           "unit": catalog[name]["unit"]}
                    for name in names},
    }
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps({"record": record, "result": result},
                                   indent=1))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide", "serve", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread unless the caller says otherwise: a workload's
    # only threads are its own (the serve generator and the loop's
    # dispatcher), so BLAS helpers do not compete with them for the
    # host's cores.  numpy is first imported inside run().
    for name in BLAS_ENV[:3]:
        os.environ.setdefault(name, "1")
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except FileNotFoundError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    failed_checks = [name for name, ok in record["checks"].items()
                     if not ok]
    from perfbench import layers  # importable once run() has set paths

    catalog = {**layers.catalog("end_to_end"),
               **layers.catalog("per_layer")}
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} "
              f"({catalog[name]['better']} is better)")
    print("record " + json.dumps({k: record[k] for k in (
        "workload", "environment", "digests", "outputs", "checks",
        "op_ms") if k in record}))
    if failed_checks:
        print("perfbench: failed checks: " + ", ".join(failed_checks),
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
