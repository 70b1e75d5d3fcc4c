"""The benchmark's workloads: ``decide``, ``serve`` and ``train``.

The program sees only the plans, clusters, churn events and traces
generated here.  They come from the run's seed, except three parts that
come from fixed seeds because they would otherwise swamp the run-to-run
spread: the train workload's training corpus (TRAIN_CORPUS_SEED), the
serve workload's burst times and sizes (SERVE_SCHEDULE_SEED) and the
decide workload's clusters and churn events (LANDSCAPE_SEED).  Each workload
function runs one measured pass and returns a :class:`Pass`: the wall
times of its operations and of its batched operations, the
deterministic outputs (digest, speed-ups, q-errors, counts) and the
results of its correctness checks, which run off the clock.  With a
:class:`~perfbench.tracing.Tracer` the pass also opens one ``op.*``
span around each timed operation and pauses the tracer for the work
off the clock.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import (BenchmarkCollector, Costream, DSPSSimulator,
                   HeuristicPlacementEnumerator, PlacementOptimizer,
                   QueryGenerator, TrainingConfig, q_error, sample_cluster)
from repro.hardware import ChurnPlan, capability_score
from repro.serving import (BackpressureError, ClusterMonitor,
                           DecisionBatcher, DecisionRequest, ServingLoop)
from repro.simulator.result import METRIC_NAMES, REGRESSION_METRICS
from repro.training import TrainingCorpus

#: Seed of the corpus and model every decide/serve set-up trains; the
#: model is the same on every run, only the workload inputs vary.
MODEL_SEED = 7

#: Seed of the held-out corpus every workload scores its model on for
#: the q-error metrics, so that they move only with the model.  On
#: corpora from the run seed the median q-errors moved by up to 2x
#: (decide/serve set-up model, 500 traces) and by 9% (train, 1500).
SCORE_SEED = 17
SCORE_TRACES = 500

#: Seed of the train workload's training corpus.  Models fitted on
#: different 600-trace corpora differed by 15-30% in median q-error,
#: which would drown any change to training; the held-out corpus the
#: q-errors are measured on comes from the run's seed.
TRAIN_CORPUS_SEED = 11

#: serve: mean offered rate (requests/s) and the p99 latency limit.
SERVE_RATE_RPS = 25.0
SERVE_P99_LIMIT_MS = 1000.0
#: serve: burst sizes are uniform over 1..SERVE_MAX_BURST.
SERVE_MAX_BURST = 16
#: serve: seed of the burst sizes and start times (see serve_schedule).
SERVE_SCHEDULE_SEED = 5
#: serve validity: the generator may run at most this late (p99) ...
SERVE_MAX_LATE_MS = 100.0
#: ... and the mean backlog of the last third of the schedule may
#: exceed the first third's by at most this many requests.
SERVE_MAX_BACKLOG_GROWTH = 48

#: decide: the landscape is CLUSTERS shared clusters of CLUSTER_NODES
#: nodes; they and their churn events come from LANDSCAPE_SEED, the
#: queries placed on them from the run's seed.  With churn from the run
#: seed, the median speed-up ranged 1.00-1.22 over ten seeds.
CLUSTERS = 4
CLUSTER_NODES = 10
LANDSCAPE_SEED = 13
#: decide: churn keeps each cluster's size within this band.
SIZE_BAND = (8, 12)
#: decide: live deployments per cluster; the oldest retires.
LIVE_PER_CLUSTER = 3
#: decide: one churn event after every CHURN_EVERY decisions.
CHURN_EVERY = 2
#: decide: decisions re-decided as one wave by the correctness check.
WAVE_CHECK_SAMPLES = 25
#: decide: churn event kinds while a cluster is inside its size band.
#: Joins carry the weight that keeps sizes in the band; outside it the
#: kind is forced back toward the band.
CHURN_WEIGHTS = {"join": 0.45, "leave": 0.2, "fail": 0.2,
                 "degrade": 0.15}

#: train: measured passes per run (their samples are pooled).
TRAIN_REPEATS = 2


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; :func:`sizes_for` scales it."""

    setup_traces: int = 160     # decide/serve set-up corpus
    setup_epochs: int = 3
    setup_repeats: int = 3      # set-ups per run (setup_s is the median)
    decisions: int = 1200
    schedule_s: float = 40.0
    train_traces: int = 400
    heldout_traces: int = 1500
    train_epochs: int = 6


def sizes_for(seconds: int) -> Sizes:
    """Work sized so one measured pass takes about ``seconds``.

    The train corpus keeps its size: its q-errors are only comparable
    between runs of the same corpus and epoch budget.
    """
    seconds = max(1, int(seconds))
    return Sizes(decisions=30 * seconds, schedule_s=float(seconds))


@dataclass
class Pass:
    """One measured pass of a workload."""

    #: Wall time of each operation (decide: a decision; serve: a
    #: request, due to delivered; train: one trace collected) ...
    op_s: list[float] = field(default_factory=list)
    #: Wall time of the batched operations, summed, and the items they
    #: processed (decide: churn events' repair waves, deployments
    #: re-placed; serve: dispatcher waves, requests; train: the fit,
    #: training traces).
    batch_s: float = 0.0
    batch_items: int = 0
    #: The model the pass fitted (train only).
    model: Costream | None = None
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    digest: str = ""
    #: Wall time of the timed work, summed (tracing overhead): the
    #: timed operations, or on serve the dispatcher's waves.
    work_s: float = 0.0
    #: Layer figures only the workload can see (queue depth, lateness).
    layer: dict[str, float] = field(default_factory=dict)
    record: dict = field(default_factory=dict)


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _op(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _off_clock(tracer):
    return tracer.off_clock() if tracer is not None else nullcontext()


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _decision_key(decision) -> list:
    """Everything a decision outputs, floats in exact ``repr`` form."""
    return [sorted(decision.placement.items()),
            repr(decision.predicted_objective),
            decision.candidates_evaluated, decision.feasible_candidates]


def same_decisions(first, second) -> bool:
    """Bitwise equality of two decision lists."""
    return (len(first) == len(second)
            and all(_decision_key(a) == _decision_key(b)
                    for a, b in zip(first, second)))


# ----------------------------------------------------------------------
# Set-up shared by decide and serve
# ----------------------------------------------------------------------
def train_setup_model(sizes: Sizes) -> Costream:
    """The corpus-to-model path every decide/serve run starts with."""
    traces = BenchmarkCollector(seed=MODEL_SEED).collect(sizes.setup_traces)
    config = TrainingConfig(epochs=sizes.setup_epochs)
    return Costream(ensemble_size=3, config=config).fit(traces)


def warm_up(model: Costream, seed: int) -> None:
    """Decisions and one wave on inputs disjoint from the timed ones."""
    rng = np.random.default_rng([seed, 99])
    generator = QueryGenerator(seed=rng)
    optimizer = PlacementOptimizer(model)
    requests = [DecisionRequest(plan=generator.generate(),
                                cluster=sample_cluster(rng, 6),
                                seed=i) for i in range(8)]
    for request in requests:
        optimizer.optimize(request.plan, request.cluster, seed=request.seed)
    DecisionBatcher(model).decide(requests)


# ----------------------------------------------------------------------
# decide: one caller, closed loop, shared churning clusters
# ----------------------------------------------------------------------
def _churn_event(rng, cluster, ordinal, cluster_index):
    """One seeded churn event; joins keep the cluster size in SIZE_BAND."""
    low, high = SIZE_BAND
    if len(cluster) <= low:
        kinds, weights = ("join",), (1.0,)
    elif len(cluster) >= high:
        kinds, weights = ("leave", "fail", "degrade"), (0.25, 0.25, 0.5)
    else:
        kinds = tuple(CHURN_WEIGHTS)
        weights = tuple(CHURN_WEIGHTS.values())
    kind = kinds[int(rng.choice(len(kinds), p=weights))]
    plan = ChurnPlan.random(seed=int(rng.integers(2 ** 31)), n_events=1,
                            kinds=(kind,),
                            join_prefix=f"c{cluster_index}-j{ordinal}-")
    return plan.events[0]


def rule_check(plan, placement, cluster) -> str:
    """``"valid"``, ``"fallback"`` or ``"invalid"`` under the Fig. 5 rules.

    Replays the rules on the cluster the decision was made on.  The
    enumerator documents one exception: an operator left with no
    eligible host goes to the strongest host.  Such a placement fails
    ``HeuristicPlacementEnumerator.is_valid_assignment`` but is
    ``"fallback"`` here; any other breach is ``"invalid"``.
    """
    node_ids = cluster.node_ids
    index = {node: i for i, node in enumerate(node_ids)}
    if set(placement.assignment) != set(plan.topological_order()) or any(
            node not in index for node in placement.assignment.values()):
        return "invalid"
    assignment = {op: index[node] for op, node in placement.items()}
    if HeuristicPlacementEnumerator(cluster).is_valid_assignment(
            plan, assignment):
        return "valid"
    bin_of = cluster.bins()
    bins = [bin_of[node] for node in node_ids]
    score = {n.node_id: capability_score(n) for n in cluster.nodes}
    strongest = index[max(node_ids, key=score.get)]
    visited: dict[str, int] = {}
    for op_id in plan.topological_order():
        choice = assignment[op_id]
        parents = plan.parents(op_id)
        upstream = forbidden = 0
        eligible = range(len(node_ids))
        if parents:
            min_bin = max(bins[assignment[p]] for p in parents)
            for p in parents:
                upstream |= visited[p]
                forbidden |= visited[p] & ~(1 << assignment[p])
            eligible = [i for i in eligible
                        if bins[i] >= min_bin and not (forbidden >> i) & 1]
            if not eligible:
                eligible = [strongest]
        if choice not in eligible:
            return "invalid"
        visited[op_id] = upstream | (1 << choice)
    return "fallback"


def run_decide(model: Costream, seed: int, sizes: Sizes,
               tracer=None) -> Pass:
    landscape = np.random.default_rng(LANDSCAPE_SEED)
    generator = QueryGenerator(seed=np.random.default_rng([seed, 2]))
    churn_rng = np.random.default_rng([LANDSCAPE_SEED, 3])
    clusters = [sample_cluster(landscape, CLUSTER_NODES, prefix=f"c{c}-h")
                for c in range(CLUSTERS)]
    optimizer = PlacementOptimizer(model)
    monitor = ClusterMonitor(DecisionBatcher(model))
    simulator = DSPSSimulator()
    live = [deque() for _ in clusters]

    decision_s, repair_s, speedups = [], [], []
    outputs, events = [], []
    sample = []          # (plan, cluster copy, seed, decision)
    rules = {"valid": 0, "fallback": 0, "invalid": 0}
    simulated = True
    repair_cands = 0
    repaired = 0
    n_events = 0
    check_every = max(1, sizes.decisions // WAVE_CHECK_SAMPLES)
    for i in range(sizes.decisions):
        plan = generator.generate()
        c = i % len(clusters)
        cluster = clusters[c]
        if tracer is not None:
            tracer.set_request(i)
        start = time.perf_counter()
        with _op(tracer, "op.decision"):
            decision = optimizer.optimize(plan, cluster, seed=i)
        decision_s.append(time.perf_counter() - start)

        # Off the clock: validity, the simulated speed-up, bookkeeping.
        with _off_clock(tracer):
            rules[rule_check(plan, decision.placement, cluster)] += 1
            heuristic = HeuristicPlacementEnumerator(
                cluster).default_placement(plan)
            chosen = simulator.run(plan, decision.placement, cluster,
                                   seed=i)
            base = simulator.run(plan, heuristic, cluster, seed=i)
            simulated &= math.isfinite(chosen.processing_latency_ms)
            speedups.append(max(base.processing_latency_ms, 1e-3)
                            / max(chosen.processing_latency_ms, 1e-3))
            outputs.append(_decision_key(decision))
            if i % check_every == 0 and len(sample) < WAVE_CHECK_SAMPLES:
                sample.append((plan, copy.deepcopy(cluster), i, decision))
            live[c].append(monitor.track(plan, cluster, decision, seed=i))
            if len(live[c]) > LIVE_PER_CLUSTER:
                monitor.untrack(live[c].popleft())

        if (i + 1) % CHURN_EVERY == 0:
            target = n_events % len(clusters)
            event = _churn_event(churn_rng, clusters[target], n_events,
                                 target)
            n_events += 1
            if tracer is not None:
                tracer.set_request(f"event{n_events}")
            start = time.perf_counter()
            with _op(tracer, "op.repair"):
                record, outcomes = monitor.observe(clusters[target], event)
            elapsed = time.perf_counter() - start
            # Joins and events that touch no live deployment return
            # without repair work; the repair figures cover the rest.
            if outcomes:
                repair_s.append(elapsed)
                repaired += len(outcomes)
            with _off_clock(tracer):
                plans = {d.deployment_id: d.plan
                         for d in monitor.deployments}
                for deployment_id in sorted(outcomes):
                    outcome = outcomes[deployment_id]
                    repair_cands += outcome.candidates_enumerated
                    rules[rule_check(plans[deployment_id],
                                     outcome.placement,
                                     clusters[target])] += 1
                events.append([record.applied, record.node_id,
                               len(clusters[target]),
                               [[d, _decision_key(outcomes[d].decision)]
                                for d in sorted(outcomes)]])

    # Off the clock: a fixed sample re-decided as one wave.
    with _off_clock(tracer):
        wave = DecisionBatcher(model).decide(
            [DecisionRequest(plan=p, cluster=cl, seed=s)
             for p, cl, s, _ in sample])
    health = monitor.health
    result = Pass()
    result.checks = {
        "placements_valid": rules["invalid"] == 0,
        "placements_simulate": bool(simulated),
        "wave_equals_sequential": same_decisions(
            [d for *_, d in sample], wave),
    }
    result.op_s = decision_s
    result.batch_s = float(sum(repair_s))
    result.batch_items = repaired
    speedup = float(np.median(speedups))
    result.attempted = len(decision_s) + n_events
    result.work_s = float(sum(decision_s) + sum(repair_s))
    result.layer = {
        "placement.repair.incremental_frac":
            health.repairs / max(health.replaced_deployments, 1),
        "placement.optimizer.speedup_p50": speedup,
    }
    result.record = {
        "decisions": len(decision_s), "events": n_events,
        "repairing_events": len(repair_s),
        "repairs": health.repairs,
        "full_replacements": health.full_replacements,
        "repair_candidates": repair_cands,
        "placement_rules": rules,
        "candidates": int(sum(o[2] for o in outputs)),
        "placement_speedup_p50": speedup,
    }
    result.digest = _digest([outputs, events, [repr(s) for s in speedups]])
    return result


# ----------------------------------------------------------------------
# serve: open loop, seeded bursts into a ServingLoop
# ----------------------------------------------------------------------
def serve_schedule(seed: int, sizes: Sizes):
    """Requests and their due times (seconds from the schedule start).

    The request count is fixed by the rate and the schedule length.
    Burst sizes are uniform over 1..SERVE_MAX_BURST; burst start times
    are the order statistics of uniform draws over the schedule, which
    is a Poisson process conditioned on its number of bursts.  The
    bursts come from SERVE_SCHEDULE_SEED, the requests in them from the
    run's seed: with about a hundred bursts per run, which bursts
    collide sets the p99, and it differed so much between schedules
    (350-625 ms at 25 req/s) that runs on different seeds would not
    agree within any bound.
    """
    bursts_rng = np.random.default_rng(SERVE_SCHEDULE_SEED)
    n_requests = max(1, round(SERVE_RATE_RPS * sizes.schedule_s))
    bursts = []
    while sum(bursts) < n_requests:
        size = int(bursts_rng.integers(1, SERVE_MAX_BURST + 1))
        bursts.append(min(size, n_requests - sum(bursts)))
    starts = np.sort(bursts_rng.uniform(0.0, sizes.schedule_s,
                                        len(bursts)))
    due = np.repeat(starts, bursts)
    rng = np.random.default_rng([seed, 11])
    generator = QueryGenerator(seed=np.random.default_rng([seed, 12]))
    requests = [DecisionRequest(plan=generator.generate(),
                                cluster=sample_cluster(
                                    rng, int(rng.integers(4, 9))),
                                seed=i)
                for i in range(n_requests)]
    return requests, due


class WaveClock(DecisionBatcher):
    """A :class:`DecisionBatcher` that sums the wall time of its waves
    and counts the requests they decided.

    The sum is the served path's work, measured the same way with and
    without tracing (``trace.overhead_frac`` on serve).
    """

    def __init__(self, model):
        super().__init__(model)
        self.busy_s = 0.0
        self.requests = 0

    def decide(self, requests):
        start = time.perf_counter()
        try:
            return super().decide(requests)
        finally:
            self.busy_s += time.perf_counter() - start
            self.requests += len(requests)


def run_serve(model: Costream, seed: int, sizes: Sizes,
              tracer=None) -> Pass:
    requests, due = serve_schedule(seed, sizes)
    n = len(requests)
    delivered = np.full(n, np.nan)
    sent = np.full(n, np.nan)
    backlog = np.zeros(n)
    futures = [None] * n
    done = [0]

    def delivered_at(index):
        # Runs on the dispatcher thread as the wave resolves the future.
        def callback(future):
            if future.exception() is None:
                delivered[index] = time.perf_counter()
            done[0] += 1
        return callback

    rejected = 0
    batcher = WaveClock(model)
    loop = ServingLoop(batcher)
    try:
        origin = time.perf_counter() + 0.05
        for i, request in enumerate(requests):
            target = origin + due[i]
            wait = target - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if tracer is not None:
                tracer.set_request(i)
            sent[i] = time.perf_counter()
            try:
                future = loop.submit(request)
            except BackpressureError:
                rejected += 1
            else:
                futures[i] = future
                future.add_done_callback(delivered_at(i))
            backlog[i] = i + 1 - rejected - done[0]
    finally:
        loop.close()
    stats = loop.stats.as_dict()
    end = np.nanmax(delivered) if np.isfinite(delivered).any() \
        else time.perf_counter()

    limit_s = SERVE_P99_LIMIT_MS / 1e3
    latency = delivered - (origin + due)
    # A failed request counts as above the limit.
    latency[np.isnan(latency)] = 2.0 * limit_s
    late = sent - (origin + due)

    # Off the clock: every served decision against a sequential
    # optimize of the same request (also the single-caller baseline).
    optimizer = PlacementOptimizer(model)
    served, replayed = [], []
    replay_s = 0.0
    with _off_clock(tracer):
        for request, future in zip(requests, futures):
            if future is None or not future.done() \
                    or future.exception() is not None:
                continue
            start = time.perf_counter()
            reference = optimizer.optimize(request.plan, request.cluster,
                                           seed=request.seed)
            replay_s += time.perf_counter() - start
            served.append(future.result())
            replayed.append(reference)
    third = max(1, n // 3)
    result = Pass()
    result.checks = {
        "served_equals_optimize": same_decisions(served, replayed)
        and len(served) == n - rejected - stats["failed"],
        "no_pending_future": all(f is None or f.done() for f in futures),
        "generator_on_time": _percentile(late, 99) * 1e3
        <= SERVE_MAX_LATE_MS,
        "backlog_steady": float(backlog[-third:].mean())
        <= float(backlog[:third].mean()) + SERVE_MAX_BACKLOG_GROWTH,
    }
    result.op_s = latency.tolist()
    result.batch_s = batcher.busy_s
    result.batch_items = batcher.requests
    result.attempted = n
    result.failed = rejected + stats["failed"]
    result.work_s = batcher.busy_s
    result.layer = {
        "serving.service.goodput_rps": float(np.count_nonzero(
            latency <= limit_s)) / (end - origin),
        "serving.service.wave_size_mean": stats["served"]
        / max(stats["waves"], 1),
        "serving.service.full_wave_frac": stats["full_waves"]
        / max(stats["waves"], 1),
        "serving.service.queue_depth_max": stats["max_queue_depth"],
        "serving.service.rejected": stats["rejected"],
        "serving.service.failed": stats["failed"],
        "serving.service.generator_late_p99_ms":
            _percentile(late, 99) * 1e3,
        "serving.batcher.replay_ms_per_request":
            replay_s * 1e3 / max(len(replayed), 1),
    }
    result.record = {"requests": n, "bursts_mean_size": n / max(
        len(np.unique(due)), 1), "waves": stats["waves"],
        "rate_rps": SERVE_RATE_RPS, "p99_limit_ms": SERVE_P99_LIMIT_MS}
    result.digest = _digest([_decision_key(d) for d in served])
    return result


# ----------------------------------------------------------------------
# train: corpus to model to held-out q-errors
# ----------------------------------------------------------------------
def score(model: Costream, traces) -> tuple[dict, dict, dict]:
    """``model`` on held-out traces: predictions of every metric, the
    median q-error of each regression metric (on the traces that
    succeeded), and the checks that every trace was scored and every
    figure is finite."""
    dataset = TrainingCorpus.from_traces(traces, model.featurizer).dataset
    predictions = {metric: model.predict_metric(metric, dataset.graphs)
                   for metric in METRIC_NAMES}
    success = dataset.labels["success"] > 0.5
    qerrors = {metric: float(np.median(q_error(
        dataset.labels[metric][success], predictions[metric][success])))
        for metric in REGRESSION_METRICS}
    checks = {
        "every_heldout_trace_scored": all(
            len(p) == len(traces) for p in predictions.values()),
        "qerrors_finite": all(math.isfinite(q) for q in qerrors.values())
        and all(np.isfinite(p).all() for p in predictions.values()),
    }
    return predictions, qerrors, checks


def score_model(model: Costream) -> tuple[dict, dict]:
    """Off the clock: q-errors and checks of a run's model on the
    SCORE_SEED corpus."""
    traces = BenchmarkCollector(seed=SCORE_SEED).collect(SCORE_TRACES)
    _, qerrors, checks = score(model, traces)
    return qerrors, checks


def _collect_timed(collector, n_traces, op_s) -> list:
    """``collector.collect``, one trace per call, each call timed."""
    traces = []
    for _ in range(n_traces):
        start = time.perf_counter()
        traces += collector.collect(1)
        op_s.append(time.perf_counter() - start)
    return traces


def run_train(seed: int, sizes: Sizes, tracer=None) -> Pass:
    op_s = []
    with _op(tracer, "op.collect"):
        traces = _collect_timed(BenchmarkCollector(seed=TRAIN_CORPUS_SEED),
                                sizes.train_traces, op_s)

    model = Costream(ensemble_size=3,
                     config=TrainingConfig(epochs=sizes.train_epochs))
    start = time.perf_counter()
    with _op(tracer, "op.fit"):
        model.fit(traces)
    train_s = time.perf_counter() - start

    with _op(tracer, "op.collect"):
        heldout = _collect_timed(BenchmarkCollector(seed=[seed, 22]),
                                 sizes.heldout_traces, op_s)
    collect_s = sum(op_s)

    start = time.perf_counter()
    with _op(tracer, "op.score"):
        predictions, qerrors, checks = score(model, heldout)
    score_s = time.perf_counter() - start

    result = Pass()
    result.checks = checks
    result.op_s = op_s
    result.batch_s = train_s
    result.batch_items = len(traces)
    result.model = model
    result.attempted = len(traces) + len(heldout) + 1
    result.work_s = collect_s + train_s + score_s
    result.record = {"train_traces": len(traces),
                     "heldout_traces": len(heldout),
                     "collect_s": collect_s,
                     "epochs": sizes.train_epochs,
                     "qerrors": {m: repr(q) for m, q in qerrors.items()}}
    result.digest = _digest([
        {m: [repr(float(v)) for v in p] for m, p in predictions.items()},
        result.record["qerrors"]])
    return result


def train_warm_up(seed: int) -> None:
    """A tiny corpus-to-model cycle on inputs disjoint from the timed."""
    traces = BenchmarkCollector(seed=[seed, 98]).collect(60)
    model = Costream(ensemble_size=3, config=TrainingConfig(epochs=2))
    model.fit(traces)
    model.predict_metric("throughput",
                         TrainingCorpus.from_traces(traces[:8]).dataset
                         .graphs)
