"""Operator placements: the mapping from operators to compute nodes."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..query.plan import QueryPlan
from .cluster import Cluster

__all__ = ["Placement", "PlacementError", "IndexCandidates"]


class PlacementError(ValueError):
    """Raised when a placement does not cover the plan / cluster."""


@dataclass(frozen=True)
class Placement:
    """An immutable operator -> node assignment for one query plan."""

    assignment: dict[str, str]

    def __post_init__(self):
        # Freeze the mapping so placements are safely hashable/shareable.
        object.__setattr__(self, "assignment", dict(self.assignment))

    def node_of(self, op_id: str) -> str:
        try:
            return self.assignment[op_id]
        except KeyError:
            raise PlacementError(f"operator {op_id!r} is not placed") from None

    def _inverse(self) -> dict[str, list[str]]:
        """node -> operators, keyed in first-appearance order.

        The assignment is frozen, so the inverse is computed once and
        cached — :meth:`operators_on` / :meth:`used_nodes` are called
        per node inside simulator loops and used to rescan the whole
        assignment every time.
        """
        cached = self.__dict__.get("_inverse_map")
        if cached is None:
            cached = {}
            for op, node in self.assignment.items():
                cached.setdefault(node, []).append(op)
            object.__setattr__(self, "_inverse_map", cached)
        return cached

    def operators_on(self, node_id: str) -> list[str]:
        return list(self._inverse().get(node_id, ()))

    def used_nodes(self) -> list[str]:
        return list(self._inverse())

    def colocated(self, op_a: str, op_b: str) -> bool:
        return self.node_of(op_a) == self.node_of(op_b)

    def validate(self, plan: QueryPlan, cluster: Cluster) -> None:
        """Check the placement covers the plan and stays in the cluster."""
        _check_cover(plan, cluster, self.assignment,
                     self.assignment.values())

    def with_move(self, op_id: str, node_id: str) -> "Placement":
        """Copy with one operator migrated to another node."""
        updated = dict(self.assignment)
        if op_id not in updated:
            raise PlacementError(f"operator {op_id!r} is not placed")
        updated[op_id] = node_id
        return Placement(updated)

    def items(self):
        return self.assignment.items()

    def __iter__(self):
        return iter(self.assignment)

    def __len__(self) -> int:
        return len(self.assignment)


class IndexCandidates(Sequence):
    """Placement candidates as an ``(n_cands, n_ops)`` node-index matrix.

    The index-native placement representation: row ``i`` assigns
    operator ``op_ids[j]`` to node ``node_ids[assignment[i, j]]``, with
    ``op_ids`` in the plan's topological order (the order the
    enumerator draws operators in).  The matrix is what the enumerator
    actually samples, and what the vectorized candidate collation
    (:func:`repro.core.graph.collate_candidates`) consumes directly —
    no per-candidate string dicts on the hot path.

    Behaves as an immutable sequence of :class:`Placement`: items are
    materialized lazily (and cached) on first access, so string-API
    consumers — decision results, simulators, baselines — keep working
    unchanged while index-aware consumers read ``assignment``.
    """

    __slots__ = ("assignment", "op_ids", "node_ids", "_placements")

    def __init__(self, assignment, op_ids: Sequence[str],
                 node_ids: Sequence[str]):
        self.op_ids = tuple(op_ids)
        self.node_ids = tuple(node_ids)
        matrix = np.array(assignment, dtype=np.int64, copy=True)
        matrix = matrix.reshape(-1, len(self.op_ids))
        matrix.setflags(write=False)
        self.assignment = matrix
        self._placements: list[Placement | None] = [None] * matrix.shape[0]

    @property
    def n_ops(self) -> int:
        return len(self.op_ids)

    def __len__(self) -> int:
        return self.assignment.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = IndexCandidates(self.assignment[index], self.op_ids,
                                   self.node_ids)
            # Share already-materialized placements with the view.
            view._placements = self._placements[index]
            return view
        n_cands = self.assignment.shape[0]
        if index < 0:
            index += n_cands
        if not 0 <= index < n_cands:
            raise IndexError("candidate index out of range")
        placement = self._placements[index]
        if placement is None:
            placement = Placement(
                {op: self.node_ids[node]
                 for op, node in zip(self.op_ids, self.assignment[index])})
            self._placements[index] = placement
        return placement

    def validate(self, plan: QueryPlan, cluster: Cluster) -> None:
        """Check every row covers the plan and stays in the cluster.

        One check over ``op_ids`` and ``node_ids`` covers all rows.
        """
        _check_cover(plan, cluster, self.op_ids, self.node_ids)

    def __repr__(self) -> str:
        return (f"IndexCandidates({len(self)} candidates, "
                f"{self.n_ops} operators, {len(self.node_ids)} nodes)")


def _check_cover(plan: QueryPlan, cluster: Cluster, op_ids, node_ids
                 ) -> None:
    """Raise :class:`PlacementError` unless ``op_ids`` are exactly the
    plan's operators and every one of ``node_ids`` is in ``cluster``."""
    missing = [o for o in plan.topological_order() if o not in op_ids]
    if missing:
        raise PlacementError(f"operators without a node: {missing}")
    extra = [o for o in op_ids if o not in plan]
    if extra:
        raise PlacementError(f"placement names unknown operators: {extra}")
    unknown = [n for n in node_ids if n not in cluster]
    if unknown:
        raise PlacementError(f"placement uses unknown nodes: {unknown}")
