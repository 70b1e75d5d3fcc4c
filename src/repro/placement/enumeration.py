"""Heuristic placement enumeration (paper Fig. 5, after Governor [32]).

Candidates respect three rules tailored to IoT scenarios:

1. **Co-location** — several operators may share a host.
2. **Increasing computing capability** — along the data flow, hosts
   must belong to the same or a stronger capability bin (edge -> fog ->
   cloud), mirroring how data streams from sensors toward the cloud.
3. **Acyclic placements** — once the data flow leaves a host it never
   returns to a previously-visited one.
"""

from __future__ import annotations

import numpy as np

from ..config import HardwareRanges
from ..hardware.cluster import Cluster
from ..hardware.node import capability_score, score_bin
from ..hardware.placement import IndexCandidates, Placement
from ..query.plan import QueryPlan

__all__ = ["HeuristicPlacementEnumerator"]

#: Minimum draw-run length at which one ``Generator.integers`` array
#: call beats a loop of scalar draws (the array path's broadcasting
#: setup costs ~5 scalar draws; both consume the identical stream).
_BATCH_DRAW_MIN = 5


class HeuristicPlacementEnumerator:
    """Generates placement candidates under the Fig. 5 rules."""

    def __init__(self, cluster: Cluster,
                 ranges: HardwareRanges | None = None,
                 seed: int | np.random.Generator = 0):
        self.cluster = cluster
        self._rng = (seed if isinstance(seed, np.random.Generator)
                     else np.random.default_rng(seed))
        # The capability tables are RNG-free pure functions of the
        # cluster *at one version*, and decision serving creates one
        # enumerator per request — cache them on the cluster (default
        # ranges only), keyed on ``cluster.version`` so a mutated
        # cluster (churn: add/remove/degrade) never serves
        # pre-mutation capability bins.
        version = getattr(cluster, "version", 0)
        tables = (cluster.__dict__.get("_enumeration_tables")
                  if ranges is None else None)
        if tables is not None and tables[0] != version:
            tables = None
        if tables is None:
            # One score per node; the bins are derived from it.
            score = {n.node_id: capability_score(n, ranges)
                     for n in cluster.nodes}
            bins = {node_id: score_bin(value)
                    for node_id, value in score.items()}
            strongest = max(cluster.node_ids, key=score.get)
            # Bitmask tables for the sampling hot path: node i of
            # ``node_ids`` is bit ``1 << i``; visited sets become ints.
            node_ids = list(cluster.node_ids)
            tables = (version, bins, score, strongest, node_ids,
                      [bins[n] for n in node_ids],
                      node_ids.index(strongest))
            if ranges is None:
                cluster.__dict__["_enumeration_tables"] = tables
        (_, self._bins, self._score, self._strongest, self._node_ids,
         self._bin_list, self._strongest_index) = tables

    # ------------------------------------------------------------------
    def sample(self, plan: QueryPlan) -> Placement:
        """Sample one random valid placement candidate.

        Operates on node-index bitmasks (visited sets per branch are
        ints), which keeps candidate enumeration off the placement
        optimizer's critical path; eligibility sets, and therefore the
        RNG draw sequence, are identical to the set-based rules in
        :meth:`_eligible_nodes`.
        """
        assignment = self._sample_indices(plan, {})
        return Placement({op: self._node_ids[i]
                          for op, i in assignment.items()})

    def sample_indices(self, plan: QueryPlan) -> np.ndarray:
        """One candidate as a node-index row (see :meth:`sample`).

        The row is aligned with ``plan.topological_order()`` — entry
        ``j`` is the cluster node index of the ``j``-th operator.  Same
        RNG draw sequence as :meth:`sample`.
        """
        assignment = self._sample_indices(plan, {})
        return np.fromiter(assignment.values(), dtype=np.int64,
                           count=len(assignment))

    @staticmethod
    def _draw_runs(plan: QueryPlan) -> list[list[str]]:
        """Maximal contiguous runs of ``topological_order()`` in which
        no operator's parent belongs to the same run.

        Within such a run every operator's eligibility depends only on
        assignments made in *earlier* runs, so the run's RNG draws can
        be batched into one array call.  Kahn's ordering can interleave
        levels (a child may appear directly after its parent), so runs
        — not BFS levels — are the unit that preserves the draw
        sequence.  Pure function of the plan; cached on it.
        """
        runs = plan.__dict__.get("_draw_runs")
        if runs is None:
            runs = []
            current: list[str] = []
            current_set: set[str] = set()
            for op_id in plan.topological_order():
                if any(p in current_set for p in plan.parents(op_id)):
                    runs.append(current)
                    current = []
                    current_set = set()
                current.append(op_id)
                current_set.add(op_id)
            if current:
                runs.append(current)
            plan.__dict__["_draw_runs"] = runs
        return runs

    def _sample_indices(self, plan: QueryPlan, eligible_cache: dict,
                        pinned: dict[str, int] | None = None,
                        caps: dict[str, int] | None = None
                        ) -> dict[str, int]:
        """One candidate as op -> node-index (see :meth:`sample`).

        The unpinned fast path: RNG draws are grouped per
        :meth:`_draw_runs` run and batched into one
        ``Generator.integers`` call over the run's eligibility sizes
        when the run is long enough to amortize the array path's setup
        cost (:data:`_BATCH_DRAW_MIN`; shorter runs loop scalar
        draws).  A PCG64 array draw of ``n`` highs consumes the exact
        random stream of ``n`` sequential scalar draws, so the sampled
        candidates (and the generator state after each sample) are
        bitwise identical to the per-op loop either way; that loop
        stays reachable as :meth:`_sample_indices_seq` and still
        serves the pinned/caps repair path untouched.
        """
        if pinned or caps:
            return self._sample_indices_seq(plan, eligible_cache,
                                            pinned, caps)
        bins = self._bin_list
        all_nodes = range(len(self._node_ids))
        assignment: dict[str, int] = {}      # op -> node index
        visited: dict[str, int] = {}         # op -> visited bitmask
        for run in self._draw_runs(plan):
            eligibles = []
            upstreams = []
            for op_id in run:
                parents = plan.parents(op_id)
                upstream = 0
                if not parents:
                    eligible = list(all_nodes)
                else:
                    min_bin = max(bins[assignment[p]] for p in parents)
                    forbidden = 0
                    for p in parents:
                        mask = visited[p]
                        upstream |= mask
                        forbidden |= mask & ~(1 << assignment[p])
                    key = (min_bin, forbidden)
                    eligible = eligible_cache.get(key)
                    if eligible is None:
                        eligible = [i for i in all_nodes
                                    if bins[i] >= min_bin
                                    and not (forbidden >> i) & 1]
                        if not eligible:
                            eligible = [self._strongest_index]
                        eligible_cache[key] = eligible
                eligibles.append(eligible)
                upstreams.append(upstream)
            if len(eligibles) >= _BATCH_DRAW_MIN:
                draws = self._rng.integers([len(e) for e in eligibles])
            else:
                # An array draw of n highs consumes the exact random
                # stream of n scalar draws, so the split is bitwise-
                # free either way — but its broadcasting machinery has
                # a ~7us fixed cost vs ~1.4us per scalar draw, and
                # chain-shaped plans make mostly runs of 1-2.
                draws = [self._rng.integers(len(e)) for e in eligibles]
            for op_id, eligible, upstream, draw in zip(
                    run, eligibles, upstreams, draws):
                choice = eligible[draw]
                assignment[op_id] = choice
                visited[op_id] = upstream | (1 << choice)
        return assignment

    def _sample_indices_seq(self, plan: QueryPlan, eligible_cache: dict,
                            pinned: dict[str, int] | None = None,
                            caps: dict[str, int] | None = None
                            ) -> dict[str, int]:
        """The per-op draw loop (reference, and the pinned/caps path).

        ``eligible_cache`` maps (min_bin, forbidden-mask) to the
        eligibility list — it is a pure function of that pair, so
        repeated samples of the same plan (``enumerate``) reuse it.

        ``pinned`` fixes operators to node indices without an RNG draw
        (incremental repair: only the repair set samples); ``caps``
        optionally bounds a free operator's capability bin from above
        (the bin of its weakest pinned child), pruning samples that the
        pinned downstream assignment would invalidate.  The unpinned
        path — eligibility sets and RNG draw sequence — is untouched.
        """
        node_ids = self._node_ids
        bins = self._bin_list
        all_nodes = range(len(node_ids))
        assignment: dict[str, int] = {}      # op -> node index
        visited: dict[str, int] = {}         # op -> visited bitmask
        for op_id in plan.topological_order():
            parents = plan.parents(op_id)
            upstream = 0
            pin = pinned.get(op_id) if pinned else None
            if pin is not None:
                for p in parents:
                    upstream |= visited[p]
                assignment[op_id] = pin
                visited[op_id] = upstream | (1 << pin)
                continue
            cap = caps.get(op_id) if caps else None
            if not parents:
                eligible = list(all_nodes)
                if cap is not None:
                    capped = [i for i in eligible if bins[i] <= cap]
                    eligible = capped or eligible
            else:
                min_bin = max(bins[assignment[p]] for p in parents)
                # Forbidden: visited anywhere upstream except as the
                # direct predecessor's current node (co-location).
                forbidden = 0
                for p in parents:
                    mask = visited[p]
                    upstream |= mask
                    forbidden |= mask & ~(1 << assignment[p])
                key = ((min_bin, forbidden) if cap is None
                       else (min_bin, forbidden, cap))
                eligible = eligible_cache.get(key)
                if eligible is None:
                    eligible = [i for i in all_nodes
                                if bins[i] >= min_bin
                                and not (forbidden >> i) & 1]
                    if cap is not None:
                        # Keep the uncapped set when the cap empties it:
                        # the sample proceeds and post-validation drops
                        # it (and, with every sample invalid, the
                        # repair is reported infeasible).
                        capped = [i for i in eligible if bins[i] <= cap]
                        eligible = capped or eligible
                    if not eligible:
                        eligible = [self._strongest_index]
                    eligible_cache[key] = eligible
            choice = eligible[self._rng.integers(len(eligible))]
            assignment[op_id] = choice
            visited[op_id] = upstream | (1 << choice)
        return assignment

    def is_valid_assignment(self, plan: QueryPlan,
                            assignment: dict[str, int]) -> bool:
        """Check one index assignment against the Fig. 5 rules.

        Replays the sampling rules with the choices fixed: increasing
        capability bins along every edge, and per-branch acyclicity
        (a node may only be revisited as the direct predecessor's
        co-location).  Pinned-repair sampling needs this post-check —
        pinned operators never had their eligibility evaluated.
        """
        bins = self._bin_list
        visited: dict[str, int] = {}
        for op_id in plan.topological_order():
            choice = assignment[op_id]
            parents = plan.parents(op_id)
            upstream = 0
            if parents:
                min_bin = max(bins[assignment[p]] for p in parents)
                if bins[choice] < min_bin:
                    return False
                forbidden = 0
                for p in parents:
                    mask = visited[p]
                    upstream |= mask
                    forbidden |= mask & ~(1 << assignment[p])
                if (forbidden >> choice) & 1:
                    return False
            visited[op_id] = upstream | (1 << choice)
        return True

    def enumerate_indices(self, plan: QueryPlan, k: int,
                          max_attempts_factor: int = 10,
                          pinned: dict[str, int] | None = None,
                          require_valid: bool = False
                          ) -> IndexCandidates:
        """Up to ``k`` distinct candidates as an index-array matrix.

        The index-native fast path: deduplicates on the node-index
        tuple (operators are visited in a fixed order, so the tuple
        identifies the mapping) and returns the sampled indices as one
        ``(n_cands, n_ops)`` :class:`~repro.hardware.IndexCandidates`
        matrix — string :class:`Placement` views materialize lazily.
        RNG draw order and dedup semantics are identical to
        :meth:`enumerate`.

        ``pinned`` fixes operators to node indices (no RNG draw) so
        incremental repair samples only its repair set;
        ``require_valid`` additionally drops rows that violate the
        Fig. 5 rules (see :meth:`is_valid_assignment`) — with heavy
        pinning a sampled row can be rule-invalid because pinned
        operators skip eligibility.  May return zero rows then: no
        feasible repair under this pinning.
        """
        op_ids = tuple(plan.topological_order())
        caps: dict[str, int] | None = None
        if pinned:
            # Bound each free operator by its weakest pinned child so
            # most samples already respect the pinned downstream bins.
            bins = self._bin_list
            caps = {}
            for op_id in op_ids:
                if op_id in pinned:
                    continue
                child_bins = [bins[pinned[c]] for c in plan.children(op_id)
                              if c in pinned]
                if child_bins:
                    caps[op_id] = min(child_bins)
        rows: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        eligible_cache: dict = {}
        attempts = 0
        while len(rows) < k and attempts < k * max_attempts_factor:
            attempts += 1
            assignment = self._sample_indices(plan, eligible_cache,
                                              pinned, caps)
            key = tuple(assignment.values())
            if key not in seen:
                seen.add(key)
                if require_valid and not self.is_valid_assignment(
                        plan, assignment):
                    continue
                rows.append(key)
        matrix = (np.asarray(rows, dtype=np.int64) if rows
                  else np.empty((0, len(op_ids)), dtype=np.int64))
        return IndexCandidates(matrix, op_ids, tuple(self._node_ids))

    def enumerate(self, plan: QueryPlan, k: int,
                  max_attempts_factor: int = 10) -> list[Placement]:
        """Up to ``k`` distinct candidates (duplicates are discarded).

        The string-API view of :meth:`enumerate_indices` — identical
        candidates in identical order, materialized eagerly.
        """
        return list(self.enumerate_indices(plan, k, max_attempts_factor))

    def default_placement(self, plan: QueryPlan) -> Placement:
        """A deterministic initial heuristic placement.

        Mimics a resource-oblivious scheduler: each operator goes to the
        least-loaded host of the weakest still-eligible capability bin.
        This is the baseline the Exp 2a speed-ups are measured against.
        """
        assignment: dict[str, str] = {}
        visited: dict[str, frozenset[str]] = {}
        load: dict[str, int] = {n: 0 for n in self.cluster.node_ids}
        for op_id in plan.topological_order():
            parents = plan.parents(op_id)
            eligible = self._eligible_nodes(assignment, visited, parents)
            weakest_bin = min(self._bins[n] for n in eligible)
            pool = [n for n in eligible if self._bins[n] == weakest_bin]
            choice = min(pool, key=lambda n: (load[n], -self._score[n]))
            load[choice] += 1
            assignment[op_id] = choice
            upstream = frozenset().union(
                *(visited[p] for p in parents)) if parents else frozenset()
            visited[op_id] = upstream | {choice}
        return Placement(assignment)

    # ------------------------------------------------------------------
    def _eligible_nodes(self, assignment: dict[str, str],
                        visited: dict[str, frozenset[str]],
                        parents: list[str]) -> list[str]:
        if not parents:
            return list(self.cluster.node_ids)
        parent_nodes = {assignment[p] for p in parents}
        min_bin = max(self._bins[n] for n in parent_nodes)
        # Acyclicity must hold along EVERY data-flow path: a node is
        # only allowed if, for each parent branch, it either was never
        # visited on that branch or is the branch's current node
        # (co-location with the immediate predecessor).
        eligible = [
            n for n in self.cluster.node_ids
            if self._bins[n] >= min_bin
            and all(n not in visited[p] or n == assignment[p]
                    for p in parents)]
        if not eligible:
            # Degenerate landscape (e.g. the strongest bin is exhausted
            # by the acyclicity rule): fall back to the strongest host.
            return [self._strongest]
        return eligible
