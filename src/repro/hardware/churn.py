"""Seeded cluster churn: join/leave/fail/degrade plans and traces.

The paper's evaluation is static — one fixed cluster per query — but a
deployed edge-cloud placer faces hosts joining, degrading and failing
mid-stream.  This module makes that churn *seeded and addressable*:
a :class:`ChurnPlan` names exactly which host mutates, how, and at
which deterministic tick; :meth:`ChurnPlan.random` draws a
reproducible plan from a seed (same seed, same chaos); and a
:class:`ChurnTrace` replays a plan against a live
:class:`~repro.hardware.cluster.Cluster`, logging every applied
mutation.  Replaying the same plan against identically-sampled
clusters yields bitwise-identical cluster states — the determinism
oracle the churn-repair tests pin down.

Addressing: ``join`` events carry the sampled :class:`HardwareNode`
itself (so a replay does not depend on RNG state at apply time);
``leave`` / ``fail`` / ``degrade`` events target a host either by
explicit ``node_id`` or by ``node_index`` — a position resolved modulo
the *live* cluster size at apply time, which is how random plans
address hosts they cannot name ahead of time.  Events that cannot
apply (a named host already gone, the last node asked to leave) are
recorded as skipped, never raised — random sweeps must not crash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import HardwareRanges
from .cluster import Cluster
from .node import HardwareNode, sample_node

__all__ = ["ChurnEvent", "ChurnPlan", "ChurnRecord", "ChurnTrace",
           "apply_event", "CHURN_KINDS"]

CHURN_KINDS = ("join", "leave", "fail", "degrade")


@dataclass(frozen=True)
class ChurnEvent:
    """One cluster mutation at a deterministic tick.

    ``leave`` drains a host gracefully and ``fail`` loses it abruptly;
    both remove the node, but consumers (the serving monitor, health
    counters) distinguish them.  ``degrade`` multiplies the target's
    CPU and bandwidth by ``severity`` (< 1.0 weakens it, possibly
    demoting its capability bin).  ``join`` adds ``node``.
    """

    kind: str                         # one of CHURN_KINDS
    tick: int                         # deterministic application order
    node_id: str | None = None        # explicit target (not for join)
    node_index: int | None = None     # positional target, mod live size
    node: HardwareNode | None = None  # the joining node (join only)
    severity: float = 0.5             # degrade resource factor

    def __post_init__(self):
        if self.kind not in CHURN_KINDS:
            raise ValueError(f"unknown churn kind {self.kind!r}; "
                             f"choose from {CHURN_KINDS}")
        if self.tick < 0:
            raise ValueError("tick must be non-negative")
        if self.kind == "join":
            if self.node is None:
                raise ValueError("join events must carry the node")
        else:
            if (self.node_id is None) == (self.node_index is None):
                raise ValueError(f"{self.kind} events need exactly one "
                                 "of node_id / node_index")
        if self.kind == "degrade" and not 0.0 < self.severity <= 1.0:
            raise ValueError("degrade severity must be in (0, 1]")

    def resolve(self, cluster: Cluster) -> str | None:
        """The live node id this event targets (``None`` = no target).

        Deterministic: an explicit ``node_id`` resolves iff the host is
        still in the cluster; a ``node_index`` resolves positionally
        modulo the current cluster size, so it always hits a live host.
        """
        if self.kind == "join":
            return None
        if self.node_id is not None:
            return self.node_id if self.node_id in cluster else None
        node_ids = cluster.node_ids
        return node_ids[self.node_index % len(node_ids)]


@dataclass(frozen=True)
class ChurnRecord:
    """One applied (or skipped) event of a :class:`ChurnTrace`."""

    tick: int
    event: ChurnEvent
    node_id: str | None   # resolved target (the new node's id for join)
    applied: bool         # False when the event could not apply
    version: int          # cluster.version after the event


@dataclass(frozen=True)
class ChurnPlan:
    """An immutable, reproducible sequence of :class:`ChurnEvent`.

    Events are kept sorted by tick (stable: same-tick events keep
    their given order).
    """

    events: tuple[ChurnEvent, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=lambda e: e.tick))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def of(cls, *events: ChurnEvent) -> "ChurnPlan":
        return cls(tuple(events))

    @classmethod
    def random(cls, seed: int, n_events: int = 4, max_tick: int = 16,
               kinds: tuple[str, ...] = CHURN_KINDS,
               ranges: HardwareRanges | None = None,
               severities: tuple[float, ...] = (0.25, 0.5, 0.75),
               join_prefix: str = "join") -> "ChurnPlan":
        """A seeded random plan — different seeds give different churn,
        the same seed always gives the same churn.

        Join events sample their node from the hardware grids at *plan*
        time and carry it, so replaying the plan never consumes RNG
        state; leave/fail/degrade events address hosts positionally
        (``node_index``), resolved against the live cluster at apply
        time.
        """
        if n_events < 0:
            raise ValueError("n_events must be non-negative")
        rng = np.random.default_rng(seed)
        events = []
        for ordinal in range(n_events):
            kind = kinds[int(rng.integers(len(kinds)))]
            tick = int(rng.integers(max_tick))
            if kind == "join":
                node = sample_node(rng, f"{join_prefix}{ordinal + 1}",
                                   ranges)
                events.append(ChurnEvent("join", tick, node=node))
            elif kind == "degrade":
                severity = float(severities[int(
                    rng.integers(len(severities)))])
                events.append(ChurnEvent(
                    "degrade", tick,
                    node_index=int(rng.integers(1 << 16)),
                    severity=severity))
            else:
                events.append(ChurnEvent(
                    kind, tick, node_index=int(rng.integers(1 << 16))))
        return cls(tuple(events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def ticks(self) -> tuple[int, ...]:
        """Distinct event ticks, ascending."""
        return tuple(sorted({event.tick for event in self.events}))

    def events_at(self, tick: int) -> tuple[ChurnEvent, ...]:
        return tuple(e for e in self.events if e.tick == tick)


def apply_event(cluster: Cluster, event: ChurnEvent) -> ChurnRecord:
    """Apply one event to a live cluster; never raises for churn that
    cannot apply (the record says ``applied=False`` instead)."""
    if event.kind == "join":
        if event.node.node_id in cluster:
            return ChurnRecord(event.tick, event, event.node.node_id,
                               False, cluster.version)
        cluster.add_node(event.node)
        return ChurnRecord(event.tick, event, event.node.node_id,
                           True, cluster.version)
    target = event.resolve(cluster)
    if target is None:
        return ChurnRecord(event.tick, event, None, False,
                           cluster.version)
    if event.kind in ("leave", "fail"):
        if len(cluster) == 1:
            return ChurnRecord(event.tick, event, target, False,
                               cluster.version)
        cluster.remove_node(target)
    else:
        cluster.degrade_node(target, cpu_factor=event.severity,
                             bandwidth_factor=event.severity)
    return ChurnRecord(event.tick, event, target, True, cluster.version)


class ChurnTrace:
    """Deterministic replay of a :class:`ChurnPlan` against a cluster.

    The trace mutates ``cluster`` in place, one event per
    :meth:`step` (or all at once via :meth:`play`), and keeps the
    :class:`ChurnRecord` log.  Two traces of the same plan against
    identically-built clusters produce identical records and identical
    final cluster states — the replay oracle.
    """

    def __init__(self, cluster: Cluster, plan: ChurnPlan):
        self.cluster = cluster
        self.plan = plan
        self.records: list[ChurnRecord] = []
        self._cursor = 0

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.plan.events)

    def step(self) -> ChurnRecord:
        """Apply the next event of the plan."""
        if self.exhausted:
            raise IndexError("churn plan is exhausted")
        event = self.plan.events[self._cursor]
        self._cursor += 1
        record = apply_event(self.cluster, event)
        self.records.append(record)
        return record

    def play(self) -> list[ChurnRecord]:
        """Apply every remaining event; returns the full record log."""
        while not self.exhausted:
            self.step()
        return self.records
