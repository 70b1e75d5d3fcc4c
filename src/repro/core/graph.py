"""The joint operator-resource graph and its batched form.

This is the paper's key representation (Section III-A): query operators
*and* hardware nodes live in one DAG whose edges carry the logical data
flow (operator -> operator) and the operator placement
(operator <-> host).  :func:`build_graph` produces a single
:class:`QueryGraph`; :func:`collate` merges many of them into one
:class:`GraphBatch` with the index arrays the GNN needs for batched
message passing:

* stage 1 (``OPS -> HW``) — every operator messages its host;
* stage 2 (``HW -> OPS``) — hosts message their operators back;
* stage 3 (``SOURCES -> OPS``) — a topological sweep along the data
  flow, organized as *levels* (all nodes at flow depth d across the
  whole batch are updated together).

Fast-path machinery (see PERFORMANCE.md):

* operator features are placement-invariant, so :func:`featurize_plan`
  computes them once per plan and :func:`build_graph` reuses them
  across all placement candidates (only host features and placement
  edges differ per candidate);
* :func:`featurize_hosts` caches per-host feature vectors for a
  cluster, shared across candidates the same way;
* every :class:`QueryGraph` lazily caches the numpy index/feature
  arrays that batching needs, so :func:`collate` is pure array
  concatenation and vectorized grouping — no per-node Python loops.
  The original loop-based implementation is retained as
  :func:`collate_reference` and the equivalence is tested.
* under :class:`repro.nn.float32_inference`, featurization and
  collation produce float32 *feature* arrays directly (index arrays
  stay int64), so the batched-GEMM inference stack never pays a
  per-batch cast; outside the context everything stays float64 and is
  bitwise identical to the pre-float32 code.
* :func:`collate_candidates` batches carry their candidate structure
  (:class:`CandidateLayout`): all candidates place one plan on one
  cluster, so every operator row repeats in every candidate and every
  host row in every candidate that uses the host.
  :meth:`GraphBatch.compact_prefix` maps the batch onto its distinct
  rows — one per operator, per used host, per (host, co-located
  operators) class of the ops -> hw stage and per (operator, host
  class) of the hw -> ops stage — so the member stack runs the
  encoders and both placement stages once per distinct row and
  gathers the result into the full buffer, bitwise equal to the full
  forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..hardware.cluster import Cluster
from ..hardware.placement import IndexCandidates, Placement
from ..nn.autodiff import inference_dtype
from ..query.plan import QueryPlan
from .features import Featurizer, NODE_TYPES

__all__ = ["QueryGraph", "GraphBatch", "StageSlice", "PlanFeatures",
           "HostFeatures", "CandidateLayout", "CompactClasses",
           "build_graph", "featurize_plan",
           "featurize_hosts", "collate", "collate_candidates",
           "collate_candidates_reference", "collate_reference",
           "collate_chunks", "as_batches", "batches_equal"]

_TYPE_CODE = {node_type: code for code, node_type in enumerate(NODE_TYPES)}

_EMPTY_INDEX = np.asarray([], dtype=np.int64)


def _cast_features_cached(owner_dict: dict,
                          type_features: dict[str, np.ndarray],
                          dtype) -> dict[str, np.ndarray]:
    """Per-type feature matrices in ``dtype`` with a single-slot cache.

    The native dtype returns the originals; cross-dtype requests cast
    once into ``owner_dict["_cast_features"]`` and are reused — shared
    by :meth:`_GraphArrays.type_features_as` (per graph) and
    :meth:`GraphBatch.cast_type_features` (per batch), so the two cast
    paths cannot diverge.  Every entry is checked (not just the
    first), so a mixed-dtype dict — e.g. a graph assembled from
    caches built across ``float32_inference`` boundaries — is
    normalized instead of slipping a stray matrix into a GEMM that
    would silently upcast.
    """
    dtype = np.dtype(dtype)
    if all(features.dtype == dtype
           for features in type_features.values()):
        return type_features
    cached = owner_dict.get("_cast_features")
    if cached is None or cached[0] != dtype:
        # copy=False: entries already in the target dtype are shared,
        # not copied (all uses are read-only).
        cached = (dtype, {node_type: features.astype(dtype, copy=False)
                          for node_type, features
                          in type_features.items()})
        owner_dict["_cast_features"] = cached
    return cached[1]


@dataclass(frozen=True)
class _GraphArrays:
    """Precomputed per-graph arrays that make :func:`collate` loop-free.

    Built lazily (once per :class:`QueryGraph`) and reused by every
    batch the graph participates in — mini-batch collation across
    training epochs then reduces to concatenating these arrays.
    """

    type_codes: np.ndarray                 # (N,) index into NODE_TYPES
    type_rows: dict[str, np.ndarray]       # local node ids per type
    type_features: dict[str, np.ndarray]   # (n_type, dim) per type
    flow_src: np.ndarray
    flow_dst: np.ndarray
    placement_src: np.ndarray
    placement_dst: np.ndarray
    depth: np.ndarray                      # (N,) flow depth, hosts -1

    def type_features_as(self, dtype) -> dict[str, np.ndarray]:
        """Per-type feature matrices in ``dtype``, cached per instance.

        The native dtype (whatever the graph was featurized in) returns
        the originals; cross-dtype requests cast once and reuse the
        result — one graph is typically collated into many batches
        (training epochs, serving waves).
        """
        return _cast_features_cached(self.__dict__, self.type_features,
                                     dtype)


def _build_collation_arrays(node_types: list[str],
                            features: list[np.ndarray],
                            flow_edges: list[tuple[int, int]],
                            placement_edges: list[tuple[int, int]],
                            flow_depth: list[int]) -> _GraphArrays:
    """Shared builder behind ``QueryGraph.arrays`` and
    ``PlanFeatures.arrays`` — one definition keeps the per-graph and
    cached-plan paths in sync."""
    codes = np.asarray([_TYPE_CODE[t] for t in node_types],
                       dtype=np.int64)
    type_rows: dict[str, np.ndarray] = {}
    type_features: dict[str, np.ndarray] = {}
    for code, node_type in enumerate(NODE_TYPES):
        rows = np.nonzero(codes == code)[0]
        if rows.size == 0:
            continue
        type_rows[node_type] = rows
        type_features[node_type] = np.vstack(
            [features[j] for j in rows])
    flow = np.asarray(flow_edges, dtype=np.int64).reshape(-1, 2)
    placement = np.asarray(placement_edges,
                           dtype=np.int64).reshape(-1, 2)
    return _GraphArrays(
        type_codes=codes, type_rows=type_rows,
        type_features=type_features,
        flow_src=flow[:, 0], flow_dst=flow[:, 1],
        placement_src=placement[:, 0], placement_dst=placement[:, 1],
        depth=np.asarray(flow_depth, dtype=np.int64))


@dataclass(frozen=True)
class QueryGraph:
    """One query's joint operator-resource graph (numpy, un-batched)."""

    node_types: list[str]                     # per node, len N
    features: list[np.ndarray]                # per node feature vector
    flow_edges: list[tuple[int, int]]         # operator -> operator
    placement_edges: list[tuple[int, int]]    # operator -> host
    flow_depth: list[int]                     # per node; hosts get -1
    op_index: dict[str, int]
    host_index: dict[str, int]

    @property
    def n_nodes(self) -> int:
        return len(self.node_types)

    @property
    def max_depth(self) -> int:
        return max(self.flow_depth)

    @property
    def arrays(self) -> _GraphArrays:
        """Collation arrays, computed on first use and cached."""
        cached = self.__dict__.get("_arrays")
        if cached is None:
            cached = _build_collation_arrays(
                self.node_types, self.features, self.flow_edges,
                self.placement_edges, self.flow_depth)
            object.__setattr__(self, "_arrays", cached)
        return cached


@dataclass(frozen=True)
class StageSlice:
    """Receivers of one node type within one message-passing step.

    ``recv_rows`` are global node ids updated in this step;
    ``edge_src`` / ``edge_seg`` describe incoming messages: the message
    from global node ``edge_src[i]`` is summed into receiver position
    ``edge_seg[i]`` (an index into ``recv_rows``).
    """

    recv_rows: np.ndarray
    edge_src: np.ndarray
    edge_seg: np.ndarray

    def flat_seg(self, width: int) -> np.ndarray:
        """Row-major flat indices for the scatter-add of ``(E, width)``
        messages into receiver slots — computed once and cached, since
        a batch is typically reused across ensemble members/metrics."""
        cached = self.__dict__.get("_flat_seg")
        if cached is None or cached[0] != width:
            flat = (self.edge_seg[:, None] * width
                    + np.arange(width, dtype=np.int64)).ravel()
            cached = (width, flat)
            self.__dict__["_flat_seg"] = cached
        return cached[1]

    def flat_src(self, width: int) -> np.ndarray:
        """Like :meth:`flat_seg` for the *backward* scatter: flat
        indices routing per-edge gradients back into the message
        sources' rows of an ``(n_nodes, width)`` buffer (the training
        step's backward), built once per batch and cached."""
        cached = self.__dict__.get("_flat_src")
        if cached is None or cached[0] != width:
            flat = (self.edge_src[:, None] * width
                    + np.arange(width, dtype=np.int64)).ravel()
            cached = (width, flat)
            self.__dict__["_flat_src"] = cached
        return cached[1]


@dataclass(frozen=True)
class CandidateLayout:
    """What a candidate batch was collated from: many placements of
    one plan on one cluster.

    ``assignment[i, j]`` is the cluster-node index hosting column ``j``
    in candidate ``i``; ``columns[j]`` is that column's plan row
    (``None`` when the columns already are the plan's operator order,
    as for enumerator candidates).  Collation attaches the arrays it
    already holds; :meth:`GraphBatch.compact_classes` derives the
    distinct-row maps from them on first use.
    """

    assignment: np.ndarray                     # (n_cands, n_ops)
    plan: "PlanFeatures"
    columns: np.ndarray | None = None


@dataclass(frozen=True)
class CompactClasses:
    """A candidate batch's distinct rows, up to both placement stages.

    Every row of a candidate batch after the ops -> hw and hw -> ops
    stages is a function of a few distinct inputs:

    * an operator row's encoding depends on the plan row alone, and a
      host row's on the cluster node alone;
    * a host row after ops -> hw depends on its node and the set of
      operator columns it hosts (messages summed in ascending column
      order, the order of the batch's bincount) — one *host class*
      per distinct (node, column set);
    * an operator row after hw -> ops depends on the operator and its
      host's class — its one message is ``0.0 + state``, exactly what
      the bincount of a single message computes (in float32 too:
      bincount sums in float64, which is exact for one message).

    Operators sit in *slots*: type-major, plan order within a type
    (the order of the first candidate's per-type feature rows).  A
    GEMM whose full-batch input has >= 2 rows but whose compact input
    would have one gets its row duplicated: GEMMs with >= 2 rows are
    row-invariant on the BLAS builds this project runs, a one-row GEMM
    takes another kernel.  Padded rows are never gathered.
    """

    #: ``(node_type, encoder rows, slots)`` per operator type: the
    #: first ``encoder rows`` rows of the batch's type feature matrix
    #: feed the encoder, whose first ``slots`` output rows are kept.
    op_inputs: list[tuple[str, int, int]]
    #: Rows of the batch's host feature matrix to encode, one per
    #: distinct node (its *host slot*).
    host_rows: np.ndarray
    #: ops -> hw messages: source operator slot and host class.
    stage1_src: np.ndarray
    stage1_seg: np.ndarray
    #: Host slot of each host class (padded) and the class counts.
    stage1_host: np.ndarray
    n_stage1: int                              # host classes, padded
    n_host_classes: int
    #: hw -> ops, per operator type: ``(node_type, host class, operator
    #: slot, classes kept)`` with the index arrays padded.
    stage2: list[tuple[str, np.ndarray, np.ndarray, int]]
    #: Compact row of every batch row: host classes first, then each
    #: type's operator classes in :attr:`op_inputs` order.
    expand: np.ndarray
    n_compact: int


@dataclass(frozen=True)
class GraphBatch:
    """Several query graphs merged into one disjoint union."""

    n_nodes: int
    n_graphs: int
    graph_id: np.ndarray                       # (N,)
    type_rows: dict[str, np.ndarray]           # node ids per type
    type_features: dict[str, np.ndarray]       # (n_type, dim) matrices
    ops_to_hw: dict[str, StageSlice]           # stage 1, keyed "host"
    hw_to_ops: dict[str, StageSlice]           # stage 2, keyed op type
    flow_levels: list[dict[str, StageSlice]]   # stage 3, one per depth
    neighbor_rounds: dict[str, StageSlice]     # traditional-MP ablation
    #: Set on :func:`collate_candidates` batches (``None`` otherwise):
    #: the member stack then runs the encoders and both placement
    #: stages on the distinct rows (:meth:`compact_prefix`).  Every
    #: other field is the full batch, so the tape, :func:`batches_equal`
    #: and the unkeyed forward read it unchanged.
    candidates: CandidateLayout | None = None

    def compact_classes(self) -> CompactClasses:
        """This candidate batch's distinct-row maps (cached)."""
        cached = self.__dict__.get("_compact_classes")
        if cached is None:
            cached = _compact_classes(self)
            self.__dict__["_compact_classes"] = cached
        return cached

    def compact_prefix(self, width: int, size: int
                       ) -> tuple[CompactClasses, np.ndarray, np.ndarray]:
        """:meth:`compact_classes` plus its member-tiled indices, cached
        per (width, size): the ops -> hw scatter-add flat index and the
        gather of the ``(size * n_compact, width)`` compact states into
        the ``(size * n_nodes, width)`` hidden buffer."""
        cached = self.__dict__.get("_compact_prefix")
        if cached is None or cached[0] != (width, size):
            classes = self.compact_classes()
            flat_seg = (classes.stage1_seg[:, None] * width
                        + np.arange(width, dtype=np.int64)).ravel()
            cached = ((width, size), (
                classes,
                _tile_members(flat_seg, classes.n_stage1 * width, size),
                _tile_members(classes.expand, classes.n_compact, size)))
            self.__dict__["_compact_prefix"] = cached
        return cached[1]

    def flat_graph_id(self, width: int) -> np.ndarray:
        """Cached flat indices for the per-graph readout scatter-add."""
        cached = self.__dict__.get("_flat_gid")
        if cached is None or cached[0] != width:
            flat = (self.graph_id[:, None] * width
                    + np.arange(width, dtype=np.int64)).ravel()
            cached = (width, flat)
            self.__dict__["_flat_gid"] = cached
        return cached[1]

    def cast_type_features(self, dtype) -> dict[str, np.ndarray]:
        """Per-type feature matrices in ``dtype``, cached on the batch.

        The native dtype (float64, or float32 for batches collated
        inside :class:`repro.nn.float32_inference`) returns the
        originals; cross-dtype requests cast once and are reused by
        every ensemble/metric that shares this batch — mixing dtypes
        into a GEMM would silently upcast it back to float64.
        """
        return _cast_features_cached(self.__dict__, self.type_features,
                                     dtype)

    def member_stage_plan(self, width: int, size: int,
                          first: int = 0) -> list[list[tuple]]:
        """:meth:`stage_plan` from stage ``first`` on, tiled over
        ``size`` ensemble members, cached per (width, size, first).

        The batched member forward keeps its hidden states in one
        ``(size * n_nodes, width)`` buffer so every gather/scatter is a
        fast axis-0 fancy index; node rows are therefore tiled with a
        per-member offset of ``n_nodes`` (member ``k`` owns rows ``[k *
        n_nodes, (k + 1) * n_nodes)``), and the scatter-add flat
        indices with ``n_recv * width`` (see
        :func:`repro.nn.autodiff.stacked_flat_scatter_add`).  Entries
        are ``(node_type, tiled_recv, tiled_src, tiled_flat_seg,
        n_recv)`` with ``tiled_src``/``tiled_flat_seg`` ``None`` for
        edgeless receivers.  Candidate batches start at ``first=2``:
        their placement stages run on the compact rows, so those two
        stages are never tiled.
        """
        if size == 1:
            # One member: every tiled index equals the untiled one, so
            # the stage plan is shared as-is (same entry layout).
            return self.stage_plan(width, first)
        cached = self.__dict__.get("_member_plan")
        if cached is None or cached[0] != (width, size, first):
            plan = []
            for group in self.stage_plan(width, first):
                tiled_group = []
                for node_type, recv, src, flat_seg, n_recv in group:
                    tiled_group.append((
                        node_type,
                        _tile_members(recv, self.n_nodes, size),
                        _tile_members(src, self.n_nodes, size)
                        if src is not None else None,
                        _tile_members(flat_seg, n_recv * width, size)
                        if src is not None else None,
                        n_recv))
                plan.append(tiled_group)
            cached = ((width, size, first), plan)
            self.__dict__["_member_plan"] = cached
        return cached[1]

    def member_type_rows(self, size: int) -> dict[str, np.ndarray]:
        """:attr:`type_rows` tiled over ``size`` members (cached),
        indexing the ``(size * n_nodes, width)`` hidden buffer."""
        if size == 1:
            return self.type_rows
        cached = self.__dict__.get("_member_type_rows")
        if cached is None or cached[0] != size:
            cached = (size, {node_type: _tile_members(rows, self.n_nodes,
                                                      size)
                             for node_type, rows
                             in self.type_rows.items()})
            self.__dict__["_member_type_rows"] = cached
        return cached[1]

    def member_flat_graph_id(self, width: int, size: int) -> np.ndarray:
        """:meth:`flat_graph_id` tiled over ``size`` members (cached)."""
        if size == 1:
            return self.flat_graph_id(width)
        cached = self.__dict__.get("_member_flat_gid")
        if cached is None or cached[0] != (width, size):
            flat = _tile_members(self.flat_graph_id(width),
                                 self.n_graphs * width, size)
            cached = ((width, size), flat)
            self.__dict__["_member_flat_gid"] = cached
        return cached[1]

    def stage_plan(self, width: int, first: int = 0) -> list[list[tuple]]:
        """Flattened staged-update schedule from stage ``first`` on,
        cached per batch.

        One list per stage (ops->hw, hw->ops, then each flow level);
        each entry is ``(node_type, recv_rows, edge_src, flat_seg,
        n_recv)`` with ``edge_src=None`` for edgeless receivers.  A
        decision reuses one batch across 3 metrics x K members, so the
        schedule (and its scatter indices) is built once.
        """
        cached = self.__dict__.get("_stage_plan")
        if cached is None or cached[0] != (width, first):
            plan = []
            for slices in (self.ops_to_hw, self.hw_to_ops,
                           *self.flow_levels)[first:]:
                group = []
                for node_type, stage in slices.items():
                    if stage.recv_rows.size == 0:
                        continue
                    has_edges = stage.edge_src.size > 0
                    group.append((node_type, stage.recv_rows,
                                  stage.edge_src if has_edges else None,
                                  stage.flat_seg(width) if has_edges
                                  else None,
                                  stage.recv_rows.size))
                plan.append(group)
            cached = ((width, first), plan)
            self.__dict__["_stage_plan"] = cached
        return cached[1]


def _tile_members(flat_index: np.ndarray, stride: int,
                  size: int) -> np.ndarray:
    """Tile a flat scatter index across ``size`` members.

    Member ``k`` gets ``flat_index + k * stride``; the result indexes a
    ``(size * stride,)`` accumulation buffer.  A single member tiles to
    the index itself — no copy, so K=1 ensembles skip the member-tiled
    cache construction entirely.
    """
    if size == 1:
        return flat_index
    return (np.arange(size, dtype=np.int64)[:, None] * stride
            + flat_index[None, :]).ravel()


@dataclass(frozen=True)
class PlanFeatures:
    """Placement-invariant part of a joint graph.

    Operator features, flow edges and flow depths depend only on the
    (plan, selectivities) pair — never on the placement or cluster — so
    a placement optimizer enumerating 30 candidates featurizes the plan
    exactly once and stamps these onto every candidate graph.
    """

    node_types: list[str]
    features: list[np.ndarray]
    flow_edges: list[tuple[int, int]]
    flow_depth: list[int]
    op_index: dict[str, int]

    @property
    def arrays(self) -> _GraphArrays:
        """Collation arrays of the operator part, cached once per plan
        and shared by every candidate graph built from this object."""
        cached = self.__dict__.get("_arrays")
        if cached is None:
            cached = _build_collation_arrays(
                self.node_types, self.features, self.flow_edges, [],
                self.flow_depth)
            object.__setattr__(self, "_arrays", cached)
        return cached


def _inference_cast(vector: np.ndarray) -> np.ndarray:
    """Cast one feature vector to the active inference dtype.

    float64 (the default, and the only dtype training ever sees) is
    returned untouched; inside :class:`repro.nn.float32_inference` the
    per-node vectors come out float32 so every downstream vstack /
    tile / concatenate produces float32 feature matrices natively —
    the "float32 end-to-end" path.  Graphs are dtype-native to the
    context they were *built* in; training corpora are always built
    outside the context.
    """
    dtype = inference_dtype()
    if vector.dtype == dtype:
        return vector
    return vector.astype(dtype)


def featurize_plan(plan: QueryPlan, featurizer: Featurizer,
                   selectivities: dict[str, float] | None = None
                   ) -> PlanFeatures:
    """Featurize the operators of one plan (placement-invariant).

    Feature vectors come out in the active inference dtype (float64
    unless inside :class:`repro.nn.float32_inference`).  A selectivity
    given for one of the plan's operators must be finite and
    non-negative (``ValueError`` naming the operator otherwise).
    """
    selectivities = selectivities or {}
    node_types: list[str] = []
    features: list[np.ndarray] = []
    op_index: dict[str, int] = {}
    for op_id in plan.topological_order():
        selectivity = selectivities.get(op_id)
        if selectivity is not None and not (math.isfinite(selectivity)
                                            and selectivity >= 0.0):
            raise ValueError(
                f"selectivity of operator {op_id!r} must be finite and "
                f"non-negative, got {selectivity!r}")
        op_index[op_id] = len(node_types)
        node_types.append(plan.operator(op_id).kind.value)
        features.append(_inference_cast(featurizer.operator_features(
            plan, op_id, selectivities)))
    flow_edges = [(op_index[a], op_index[b]) for a, b in plan.edges]
    depth = _flow_depths(plan, op_index)
    return PlanFeatures(node_types=node_types, features=features,
                        flow_edges=flow_edges, flow_depth=depth,
                        op_index=op_index)


class HostFeatures(dict):
    """``node_id -> feature vector`` plus a cached stacked matrix.

    A plain dict to every existing consumer; the index-native candidate
    collation additionally reads :meth:`matrix` — the ``(n_nodes, d)``
    stack of the vectors in cluster node order, built once per cluster
    featurization instead of re-gathered through per-node dict lookups
    for every candidate.

    :attr:`cluster_version` records ``cluster.version`` at featurize
    time.  Clusters mutate under churn and a ``degrade`` keeps node
    ids (so :meth:`matrix`'s node-id key cannot detect it) — cross-call
    caches of a featurized cluster must key on
    ``(cluster, cluster_version)``, never on the cluster alone.
    """

    #: ``cluster.version`` when :func:`featurize_hosts` built this.
    cluster_version: int = -1

    def matrix(self, node_ids: Sequence[str]) -> np.ndarray:
        """Feature rows stacked in ``node_ids`` order (cached)."""
        key = tuple(node_ids)
        cached = getattr(self, "_matrix", None)
        if cached is None or cached[0] != key:
            cached = (key, np.vstack([self[node_id]
                                      for node_id in node_ids]))
            self._matrix = cached
        return cached[1]


def featurize_hosts(cluster: Cluster, featurizer: Featurizer,
                    node_ids: Iterable[str] | None = None
                    ) -> HostFeatures:
    """Per-host feature vectors, reusable across placement candidates.

    Vectors come out in the active inference dtype (see
    :func:`featurize_plan`).  The returned mapping is a
    :class:`HostFeatures` dict whose stacked matrix feeds the
    index-native candidate collation; its ``cluster_version`` stamp
    lets consumers detect churn-stale features."""
    ids = cluster.node_ids if node_ids is None else node_ids
    features = HostFeatures(
        (node_id, _inference_cast(featurizer.host_features(
            cluster.node(node_id))))
        for node_id in ids)
    features.cluster_version = getattr(cluster, "version", 0)
    return features


def build_graph(plan: QueryPlan, placement: Placement | None,
                cluster: Cluster | None, featurizer: Featurizer,
                selectivities: dict[str, float] | None = None,
                plan_features: PlanFeatures | None = None,
                host_features: dict[str, np.ndarray] | None = None
                ) -> QueryGraph:
    """Build the joint graph for one (plan, placement, cluster).

    With ``featurizer.mode == 'query_only'`` (or a ``None`` placement)
    the host nodes are omitted entirely — the Exp 7a ablation that
    knows the query logic but not the placement.

    ``plan_features`` / ``host_features`` are optional precomputed
    caches (:func:`featurize_plan` / :func:`featurize_hosts`): when
    given, only the placement edges are assembled per call.
    """
    base = plan_features or featurize_plan(plan, featurizer, selectivities)
    node_types = list(base.node_types)
    features = list(base.features)
    depth = list(base.flow_depth)
    op_index = base.op_index

    host_index: dict[str, int] = {}
    placement_edges: list[tuple[int, int]] = []
    include_hosts = (featurizer.mode != "query_only"
                     and placement is not None and cluster is not None)
    n_ops = len(node_types)
    if include_hosts:
        for node_id in placement.used_nodes():
            host_index[node_id] = len(node_types)
            node_types.append("host")
            if host_features is not None and node_id in host_features:
                # Cast here too: cached host vectors may have been
                # featurized outside the active float32_inference
                # context (or vice versa).
                features.append(_inference_cast(
                    host_features[node_id]))
            else:
                features.append(_inference_cast(featurizer.host_features(
                    cluster.node(node_id))))
            depth.append(-1)
        for op_id, node_id in placement.items():
            placement_edges.append((op_index[op_id], host_index[node_id]))

    graph = QueryGraph(node_types=node_types, features=features,
                       flow_edges=base.flow_edges,
                       placement_edges=placement_edges, flow_depth=depth,
                       op_index=op_index, host_index=host_index)
    if plan_features is not None:
        # The collation arrays of the operator part are cached on the
        # shared PlanFeatures; stamping them (plus the small host part)
        # onto the graph makes its first collation loop-free too.
        object.__setattr__(graph, "_arrays", _arrays_with_hosts(
            plan_features.arrays, features[n_ops:], placement_edges,
            n_ops))
    return graph


def _arrays_with_hosts(plan_arrays: _GraphArrays,
                       host_vectors: list[np.ndarray],
                       placement_edges: list[tuple[int, int]],
                       n_ops: int) -> _GraphArrays:
    """Extend cached plan arrays with one candidate's host part.

    Produces exactly what ``QueryGraph._build_arrays`` would compute:
    host nodes occupy the trailing rows, and ``host`` is the last entry
    of ``NODE_TYPES`` so dict insertion order is preserved.
    """
    if not host_vectors and not placement_edges:
        return plan_arrays
    n_hosts = len(host_vectors)
    codes = np.concatenate([
        plan_arrays.type_codes,
        np.full(n_hosts, _TYPE_CODE["host"], dtype=np.int64)])
    type_rows = dict(plan_arrays.type_rows)
    type_features = dict(plan_arrays.type_features)
    if n_hosts:
        type_rows["host"] = np.arange(n_ops, n_ops + n_hosts,
                                      dtype=np.int64)
        type_features["host"] = np.vstack(host_vectors)
    placement = np.asarray(placement_edges,
                           dtype=np.int64).reshape(-1, 2)
    depth = np.concatenate([plan_arrays.depth,
                            np.full(n_hosts, -1, dtype=np.int64)])
    return _GraphArrays(
        type_codes=codes, type_rows=type_rows,
        type_features=type_features,
        flow_src=plan_arrays.flow_src, flow_dst=plan_arrays.flow_dst,
        placement_src=placement[:, 0], placement_dst=placement[:, 1],
        depth=depth)


def _flow_depths(plan: QueryPlan, op_index: dict[str, int]) -> list[int]:
    """Longest distance from any source, per operator."""
    depth = [0] * len(op_index)
    for op_id in plan.topological_order():
        parents = plan.parents(op_id)
        if parents:
            depth[op_index[op_id]] = 1 + max(depth[op_index[p]]
                                             for p in parents)
    return depth


# ----------------------------------------------------------------------
# Batching
# ----------------------------------------------------------------------
def collate(graphs: list[QueryGraph]) -> GraphBatch:
    """Merge graphs into one disjoint union with stage index arrays.

    Whole-batch array operations on the per-graph arrays cached on each
    :class:`QueryGraph`, with no loop over the graphs beyond gathering
    those arrays: graph ``i`` occupies the node rows ``[offsets[i],
    offsets[i + 1])``, so a type's rows are the positions of its code
    in the concatenated type codes, each edge array is one
    concatenation plus one repeated per-graph offset, and the flow
    depth is one reduction.  Produces batches identical to
    :func:`collate_reference` (tested property-style), with int64
    index arrays.  Feature matrices come out in the active inference
    dtype — float32 under :class:`repro.nn.float32_inference`, the
    native float64 otherwise; a concatenation of mixed dtypes promotes
    exactly to float64 first, so the one cast per type equals casting
    each graph's matrix.
    """
    if not graphs:
        raise ValueError("cannot collate an empty list of graphs")
    target = inference_dtype()
    arrays = [g.arrays for g in graphs]
    sizes = np.asarray([a.type_codes.size for a in arrays],
                       dtype=np.int64)
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    starts = offsets[:-1]
    n_nodes = int(offsets[-1])
    graph_id = np.repeat(np.arange(len(arrays), dtype=np.int64), sizes)
    codes = np.concatenate([a.type_codes for a in arrays])

    type_rows: dict[str, np.ndarray] = {}
    type_features: dict[str, np.ndarray] = {}
    for code, node_type in enumerate(NODE_TYPES):
        rows = (codes == code).nonzero()[0]
        if rows.size == 0:
            continue
        type_rows[node_type] = rows
        type_features[node_type] = np.concatenate(
            [a.type_features[node_type] for a in arrays
             if node_type in a.type_features],
            axis=0).astype(target, copy=False)

    placement_shift = np.repeat(
        starts, [a.placement_src.size for a in arrays])
    placement_src = np.concatenate(
        [a.placement_src for a in arrays]) + placement_shift
    placement_dst = np.concatenate(
        [a.placement_dst for a in arrays]) + placement_shift
    flow_shift = np.repeat(starts, [a.flow_src.size for a in arrays])
    flow_src = np.concatenate([a.flow_src for a in arrays]) + flow_shift
    flow_dst = np.concatenate([a.flow_dst for a in arrays]) + flow_shift

    ops_to_hw = _stage_slices_vec(codes, placement_src, placement_dst,
                                  restrict_types=("host",))
    hw_to_ops = _stage_slices_vec(codes, placement_dst, placement_src,
                                  restrict_types=None)

    depth = np.concatenate([a.depth for a in arrays])
    max_depth = int(depth.max())
    dst_depth = depth[flow_dst]
    flow_levels: list[dict[str, StageSlice]] = []
    for level in range(1, max_depth + 1):
        at_level = dst_depth == level
        flow_levels.append(_stage_slices_vec(codes, flow_src[at_level],
                                             flow_dst[at_level],
                                             restrict_types=None))

    # Symmetric neighborhood (traditional message passing ablation):
    # flow and placement edges in both directions.
    all_src = np.concatenate([flow_src, flow_dst, placement_src,
                              placement_dst])
    all_dst = np.concatenate([flow_dst, flow_src, placement_dst,
                              placement_src])
    neighbor_rounds = _stage_slices_vec(codes, all_src, all_dst,
                                        restrict_types=None,
                                        type_rows=type_rows,
                                        include_isolated=True)

    return GraphBatch(n_nodes=n_nodes, n_graphs=len(graphs),
                      graph_id=graph_id, type_rows=type_rows,
                      type_features=type_features, ops_to_hw=ops_to_hw,
                      hw_to_ops=hw_to_ops, flow_levels=flow_levels,
                      neighbor_rounds=neighbor_rounds)


def _stage_slices_vec(codes: np.ndarray, edge_src: np.ndarray,
                      edge_dst: np.ndarray,
                      restrict_types: tuple[str, ...] | None,
                      type_rows: dict[str, np.ndarray] | None = None,
                      include_isolated: bool = False
                      ) -> dict[str, StageSlice]:
    """Group one edge set by receiver node type (vectorized)."""
    slices: dict[str, StageSlice] = {}
    types = restrict_types or NODE_TYPES
    dst_codes = codes[edge_dst] if edge_dst.size else _EMPTY_INDEX
    present = np.bincount(dst_codes, minlength=len(NODE_TYPES)).tolist()
    for node_type in types:
        code = _TYPE_CODE[node_type]
        if not include_isolated and not present[code]:
            continue  # no receivers of this type: same as an empty recv
        if present[code]:
            mask = dst_codes == code
            dst = edge_dst[mask]
            src = edge_src[mask]
        else:
            dst = src = _EMPTY_INDEX
        if include_isolated:
            recv = (type_rows or {}).get(node_type, _EMPTY_INDEX)
        else:
            # Sorted distinct receivers: a node mask is cheaper than
            # np.unique's sort at batch sizes.
            hit = np.zeros(codes.size, dtype=bool)
            hit[dst] = True
            recv = hit.nonzero()[0]
        if recv.size == 0:
            continue
        seg = recv.searchsorted(dst).astype(np.int64, copy=False)
        slices[node_type] = StageSlice(recv_rows=recv, edge_src=src,
                                       edge_seg=seg)
    return slices


def collate_chunks(graphs: Sequence[QueryGraph],
                   batch_size: int) -> list[GraphBatch]:
    """Collate ``graphs`` into chunked batches of at most ``batch_size``."""
    return [collate(list(graphs[start:start + batch_size]))
            for start in range(0, len(graphs), batch_size)]


def as_batches(graphs, batch_size: int) -> list[GraphBatch]:
    """Normalize graphs / a batch / batches into a list of batches.

    Accepts a list of :class:`QueryGraph` (collated here in chunks of
    ``batch_size``), a single :class:`GraphBatch`, or a pre-collated
    list of batches — the hook that lets one collation be shared across
    every ensemble member and metric of a placement decision.
    """
    if isinstance(graphs, GraphBatch):
        return [graphs]
    graphs = list(graphs)
    if graphs and isinstance(graphs[0], GraphBatch):
        return graphs
    return collate_chunks(graphs, batch_size)


def _stage_dicts_equal(a: dict[str, StageSlice],
                       b: dict[str, StageSlice]) -> bool:
    return (list(a) == list(b)
            and all(np.array_equal(a[t].recv_rows, b[t].recv_rows)
                    and np.array_equal(a[t].edge_src, b[t].edge_src)
                    and np.array_equal(a[t].edge_seg, b[t].edge_seg)
                    for t in b))


def batches_equal(a: GraphBatch, b: GraphBatch) -> bool:
    """Field-for-field equality of two batches (index arrays exact,
    feature matrices bitwise).

    THE definition of "same batch", kept next to :class:`GraphBatch`
    so a new field is added in one place: the hot-path benchmark's
    equivalence verdict (``candidate_collation.fields_equal``, CI
    gated) relies on it, and the equivalence tests' assert-style
    helper (``tests/test_collate_equivalence.assert_batches_equal``)
    finishes with it, so a field covered only here still fails tests.
    """
    return bool(
        a.n_nodes == b.n_nodes
        and a.n_graphs == b.n_graphs
        and np.array_equal(a.graph_id, b.graph_id)
        and list(a.type_rows) == list(b.type_rows)
        and list(a.type_features) == list(b.type_features)
        and all(np.array_equal(a.type_rows[t], b.type_rows[t])
                for t in b.type_rows)
        and all(np.array_equal(a.type_features[t], b.type_features[t])
                for t in b.type_features)
        and _stage_dicts_equal(a.ops_to_hw, b.ops_to_hw)
        and _stage_dicts_equal(a.hw_to_ops, b.hw_to_ops)
        and len(a.flow_levels) == len(b.flow_levels)
        and all(_stage_dicts_equal(x, y)
                for x, y in zip(a.flow_levels, b.flow_levels))
        and _stage_dicts_equal(a.neighbor_rounds, b.neighbor_rounds))


# ----------------------------------------------------------------------
# Reference (loop-based) batching, kept for equivalence testing
# ----------------------------------------------------------------------
def collate_reference(graphs: list[QueryGraph]) -> GraphBatch:
    """The original per-node-loop collation.

    Retained as the executable specification of :func:`collate`: the
    vectorized path must produce identical batches (see
    ``tests/test_collate_equivalence.py``), and the hot-path benchmark
    measures its speedup against this implementation.
    """
    if not graphs:
        raise ValueError("cannot collate an empty list of graphs")
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs])
    n_nodes = int(offsets[-1])
    graph_id = np.empty(n_nodes, dtype=np.int64)
    node_types: list[str] = []
    for i, graph in enumerate(graphs):
        graph_id[offsets[i]:offsets[i + 1]] = i
        node_types.extend(graph.node_types)

    type_rows: dict[str, np.ndarray] = {}
    type_features: dict[str, np.ndarray] = {}
    for node_type in NODE_TYPES:
        rows = [j for j, t in enumerate(node_types) if t == node_type]
        if not rows:
            continue
        type_rows[node_type] = np.asarray(rows, dtype=np.int64)
        stacked = []
        for i, graph in enumerate(graphs):
            stacked.extend(
                graph.features[j] for j, t in enumerate(graph.node_types)
                if t == node_type)
        type_features[node_type] = np.vstack(stacked)

    placement_src, placement_dst = _offset_edges(
        graphs, offsets, lambda g: g.placement_edges)
    flow_src, flow_dst = _offset_edges(graphs, offsets,
                                       lambda g: g.flow_edges)

    ops_to_hw = _stage_slices(node_types, placement_src, placement_dst,
                              restrict_types=("host",))
    hw_to_ops = _stage_slices(node_types, placement_dst, placement_src,
                              restrict_types=None)

    max_depth = max(g.max_depth for g in graphs)
    depth = np.concatenate([np.asarray(g.flow_depth) for g in graphs])
    flow_levels: list[dict[str, StageSlice]] = []
    for level in range(1, max_depth + 1):
        at_level = depth[flow_dst] == level
        flow_levels.append(_stage_slices(node_types, flow_src[at_level],
                                         flow_dst[at_level],
                                         restrict_types=None))

    all_src = np.concatenate([flow_src, flow_dst, placement_src,
                              placement_dst])
    all_dst = np.concatenate([flow_dst, flow_src, placement_dst,
                              placement_src])
    neighbor_rounds = _stage_slices(node_types, all_src, all_dst,
                                    restrict_types=None,
                                    include_isolated=True)

    return GraphBatch(n_nodes=n_nodes, n_graphs=len(graphs),
                      graph_id=graph_id, type_rows=type_rows,
                      type_features=type_features, ops_to_hw=ops_to_hw,
                      hw_to_ops=hw_to_ops, flow_levels=flow_levels,
                      neighbor_rounds=neighbor_rounds)


def _offset_edges(graphs, offsets, selector):
    src: list[int] = []
    dst: list[int] = []
    for i, graph in enumerate(graphs):
        for a, b in selector(graph):
            src.append(a + offsets[i])
            dst.append(b + offsets[i])
    return (np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64))


def _stage_slices(node_types: list[str], edge_src: np.ndarray,
                  edge_dst: np.ndarray,
                  restrict_types: tuple[str, ...] | None,
                  include_isolated: bool = False) -> dict[str, StageSlice]:
    """Group one edge set by receiver node type (reference loops)."""
    slices: dict[str, StageSlice] = {}
    types = restrict_types or NODE_TYPES
    for node_type in types:
        if include_isolated:
            recv = np.asarray([j for j, t in enumerate(node_types)
                               if t == node_type], dtype=np.int64)
            if recv.size == 0:
                continue
        else:
            recv = np.unique(edge_dst[[node_types[d] == node_type
                                       for d in edge_dst]]) \
                if edge_dst.size else np.asarray([], dtype=np.int64)
            if recv.size == 0:
                continue
        position = {int(r): k for k, r in enumerate(recv)}
        mask = np.asarray([node_types[d] == node_type for d in edge_dst],
                          dtype=bool) if edge_dst.size else \
            np.asarray([], dtype=bool)
        src = edge_src[mask] if edge_src.size else edge_src
        seg = np.asarray([position[int(d)] for d in edge_dst[mask]],
                         dtype=np.int64) if edge_dst.size else \
            np.asarray([], dtype=np.int64)
        slices[node_type] = StageSlice(recv_rows=recv, edge_src=src,
                                       edge_seg=seg)
    return slices


# ----------------------------------------------------------------------
# Direct candidate batching (placement optimization fast path)
# ----------------------------------------------------------------------
def _candidate_parts(plan_features: PlanFeatures) -> dict:
    """Plan-side precomputation for :func:`collate_candidates`.

    Cached on the :class:`PlanFeatures`: per-operator type positions,
    per-level flow stage slices and the symmetric-neighborhood flow
    groups, all in plan-local coordinates ready for tiling.  Nothing
    here depends on the cluster (churn audit): host identities enter
    collation only through the per-call candidate matrix and
    :meth:`HostFeatures.matrix`, so this cache stays valid across
    cluster mutations and needs no version key.
    """
    cached = plan_features.__dict__.get("_cand_parts")
    if cached is not None:
        return cached
    arrays = plan_features.arrays
    n_ops = len(plan_features.node_types)
    codes = arrays.type_codes
    type_pos = np.zeros(n_ops, dtype=np.int64)
    for rows in arrays.type_rows.values():
        type_pos[rows] = np.arange(rows.size, dtype=np.int64)

    max_depth = max(plan_features.flow_depth)
    dst_depth = arrays.depth[arrays.flow_dst] \
        if arrays.flow_dst.size else _EMPTY_INDEX
    level_slices = []
    for level in range(1, max_depth + 1):
        at_level = dst_depth == level
        level_slices.append(_stage_slices_vec(
            codes, arrays.flow_src[at_level], arrays.flow_dst[at_level],
            restrict_types=None))

    cached = {"n_ops": n_ops, "type_pos": type_pos,
              "type_code": codes, "max_depth": max_depth,
              "level_slices": level_slices,
              # Index-native collation extras, all pure functions of
              # the plan: operator order, row identity and the
              # per-type column groups of the hw -> ops stage.
              "op_order": tuple(plan_features.op_index),
              "op_rows": np.arange(n_ops, dtype=np.int64)}
    cached["code_cols"] = _code_column_groups(cached, cached["op_rows"])
    # Flow-level stages concatenated into flat plan-local arrays, so
    # the indexed collation tiles every level with THREE broadcast
    # adds total (one per kind) instead of three per (level, type);
    # "nrecv" carries each edge's per-candidate segment stride.
    recv_parts, src_parts = [], []
    seg_parts, nrecv_parts = [], []
    spans: list[list[tuple]] = []
    recv_at = edge_at = 0
    for level in level_slices:
        level_spans = []
        for node_type, stage in level.items():
            recv_to = recv_at + stage.recv_rows.size
            edge_to = edge_at + stage.edge_src.size
            recv_parts.append(stage.recv_rows)
            src_parts.append(stage.edge_src)
            seg_parts.append(stage.edge_seg)
            nrecv_parts.append(np.full(stage.edge_seg.size,
                                       stage.recv_rows.size,
                                       dtype=np.int64))
            level_spans.append((node_type, recv_at, recv_to,
                                edge_at, edge_to))
            recv_at, edge_at = recv_to, edge_to
        spans.append(level_spans)
    cached["level_concat"] = {
        "recv": (np.concatenate(recv_parts) if recv_parts
                 else _EMPTY_INDEX),
        "src": np.concatenate(src_parts) if src_parts else _EMPTY_INDEX,
        "seg": np.concatenate(seg_parts) if seg_parts else _EMPTY_INDEX,
        "nrecv": (np.concatenate(nrecv_parts) if nrecv_parts
                  else _EMPTY_INDEX),
        "spans": spans}
    # Same trick for the per-type operator rows: one concatenated
    # local array, tiled with a single broadcast add per collation.
    type_spans: list[tuple[str, int, int]] = []
    rows_at = 0
    for node_type in NODE_TYPES[:-1]:
        rows = arrays.type_rows.get(node_type)
        if rows is None:
            continue
        type_spans.append((node_type, rows_at, rows_at + rows.size))
        rows_at += rows.size
    cached["type_rows_concat"] = np.concatenate(
        [arrays.type_rows[node_type]
         for node_type, _, _ in type_spans]) if type_spans \
        else _EMPTY_INDEX
    cached["type_spans"] = type_spans
    plan_features.__dict__["_cand_parts"] = cached
    return cached


def _code_column_groups(parts: dict, col_rows: np.ndarray
                        ) -> list[tuple[int, str, np.ndarray,
                                        np.ndarray, int]]:
    """Per-op-type column groups of an assignment matrix.

    One entry ``(code, node_type, columns, receiver positions, type
    count)`` per operator type present; cached on the candidate parts
    for the plan's own column order and recomputed only for candidate
    matrices in a custom operator order.
    """
    type_code = parts["type_code"]
    type_pos = parts["type_pos"]
    col_codes = type_code[col_rows]
    groups = []
    for code, node_type in enumerate(NODE_TYPES[:-1]):
        cols = np.nonzero(col_codes == code)[0]
        if cols.size == 0:
            continue
        groups.append((code, node_type, cols, type_pos[col_rows[cols]],
                       int(np.count_nonzero(type_code == code))))
    return groups


def _candidate_flow_groups(plan_features: PlanFeatures,
                           parts: dict) -> dict:
    """Symmetric-neighborhood flow groups (forward, then backward), per
    receiver type, in plan-local coordinates.

    Only the ``traditional`` message-passing ablation consumes these
    (via ``neighbor_rounds``), so they are built on first request and
    cached alongside the eager candidate parts.
    """
    cached = parts.get("flow_groups")
    if cached is not None:
        return cached
    arrays = plan_features.arrays
    codes = arrays.type_codes
    type_pos = parts["type_pos"]
    flow_groups: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for src_e, dst_e in ((arrays.flow_src, arrays.flow_dst),
                         (arrays.flow_dst, arrays.flow_src)):
        dst_codes = codes[dst_e] if dst_e.size else _EMPTY_INDEX
        for node_type in NODE_TYPES[:-1]:
            mask = dst_codes == _TYPE_CODE[node_type]
            flow_groups.setdefault(node_type, []).append(
                (src_e[mask], type_pos[dst_e[mask]]))
    parts["flow_groups"] = flow_groups
    return flow_groups


def _tile(local: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Concatenate ``local + shift`` for every shift (vectorized)."""
    if local.size == 0:
        return _EMPTY_INDEX
    return (local[None, :] + shifts[:, None]).ravel()


def collate_candidates(plan_features: PlanFeatures,
                       placements: "Sequence[Placement] | IndexCandidates",
                       host_features: dict[str, np.ndarray],
                       neighbor_rounds: bool = True) -> GraphBatch:
    """Collate many placements of ONE plan directly into a batch.

    The placement optimizer's hot path.  Index-native: when
    ``placements`` is an :class:`~repro.hardware.IndexCandidates`
    matrix (what the enumerator samples), or a sequence of total
    string :class:`Placement`\\ s in the plan's operator order, the
    batch is assembled by numpy array operations over the
    ``(n_cands, n_ops)`` assignment matrix — per-candidate host dedup,
    placement edges and host feature rows all come out of vectorized
    index arithmetic, with no per-candidate Python loop.  Placements
    whose dict order differs from the plan's operator order take the
    retained loop (:func:`collate_candidates_reference`); both paths
    produce exactly the batch that ``collate([build_graph(plan, p,
    ...) for p in placements])`` would, field for field (tested).
    Every placement must cover every operator (raises ``ValueError``
    otherwise).

    ``neighbor_rounds=False`` skips the ``traditional``-scheme
    neighborhood groups (the batch carries an empty dict) — only that
    ablation reads them, so staged-scheme callers
    (``Costream.collate_placements``) drop ~a quarter of the collation
    work.
    """
    if isinstance(placements, IndexCandidates):
        if placements.n_ops != len(plan_features.op_index):
            raise ValueError("collate_candidates requires total "
                             "placements covering every operator")
        return _collate_candidates_indexed(
            plan_features, placements.assignment, placements.op_ids,
            placements.node_ids, host_features, neighbor_rounds)
    placements = list(placements)
    if not placements:
        raise ValueError("cannot collate an empty list of placements")
    op_order = tuple(plan_features.op_index)
    if all(len(p) == len(op_order)
           and tuple(p.assignment) == op_order for p in placements):
        node_ids = tuple(host_features)
        node_pos = {node_id: i for i, node_id in enumerate(node_ids)}
        assignment = np.asarray(
            [[node_pos[node_id] for node_id in p.assignment.values()]
             for p in placements], dtype=np.int64)
        return _collate_candidates_indexed(
            plan_features, assignment, op_order, node_ids,
            host_features, neighbor_rounds)
    return collate_candidates_reference(plan_features, placements,
                                        host_features, neighbor_rounds)


def _collate_candidates_indexed(plan_features: PlanFeatures,
                                assignment: np.ndarray,
                                op_ids: Sequence[str],
                                node_ids: Sequence[str],
                                host_features: dict[str, np.ndarray],
                                neighbor_rounds: bool) -> GraphBatch:
    """Vectorized index-native core of :func:`collate_candidates`.

    ``assignment[i, j]`` is the ``node_ids`` index of the node hosting
    ``op_ids[j]`` in candidate ``i``.  Per-candidate host dedup, edge
    arrays and host feature rows are all computed as array operations
    over the matrix; the field-for-field contract with
    :func:`collate_candidates_reference` (candidate-major edge order,
    hosts in first-appearance order) is pinned by
    ``tests/test_index_candidates.py``.
    """
    n_cands = assignment.shape[0]
    if n_cands == 0:
        raise ValueError("cannot collate an empty list of placements")
    op_index = plan_features.op_index
    parts = _candidate_parts(plan_features)
    n_ops = parts["n_ops"]
    if len(op_ids) != n_ops or assignment.shape[1] != n_ops:
        raise ValueError("collate_candidates requires total "
                         "placements covering every operator")
    arrays = plan_features.arrays
    if tuple(op_ids) == parts["op_order"]:
        # Enumerator candidates: columns already are plan rows, and the
        # per-type column groups are cached on the plan.
        col_rows = None
        code_cols = parts["code_cols"]
    else:
        col_rows = np.asarray([op_index[op] for op in op_ids],
                              dtype=np.int64)
        code_cols = _code_column_groups(parts, col_rows)

    # Per-candidate host dedup over the assignment matrix: a column is
    # a host's *first* appearance iff no earlier column names the same
    # node.  n_ops is small, so the (n_cands, n_ops, n_ops) pairwise
    # compare is a handful of cache-resident array ops — no per-column
    # Python loop, no per-candidate dict.  first_col[c, j] is the
    # column where candidate c's node of column j first appeared
    # (argmax finds the first True; k = j always matches), so a column
    # is a first appearance iff it is its own first column.
    pairwise = assignment[:, None, :] == assignment[:, :, None]
    first_col = pairwise.argmax(axis=2)
    op_rows = parts["op_rows"]
    is_first = first_col == op_rows[None, :]
    first_rank = is_first.cumsum(axis=1)       # local host id + 1
    cand_rows = np.arange(n_cands, dtype=np.int64)
    host_local = first_rank[cand_rows[:, None], first_col] - 1
    host_counts = first_rank[:, -1]
    sizes = n_ops + host_counts
    ends = np.cumsum(sizes)
    offsets = ends - sizes
    host_ends = np.cumsum(host_counts)
    host_before = host_ends - host_counts
    graph_id = np.repeat(cand_rows, sizes)

    # One host row per first appearance, candidate-major; the node
    # index per row gathers the per-cluster feature matrix.
    host_rows = (np.repeat(offsets + n_ops - 1, host_counts)
                 + first_rank[is_first])
    host_node_order = assignment[is_first]

    target = inference_dtype()
    plan_type_features = arrays.type_features_as(target)
    type_rows: dict[str, np.ndarray] = {}
    type_features: dict[str, np.ndarray] = {}
    rows_tiled = offsets[:, None] + parts["type_rows_concat"][None, :]
    for node_type, rows_at, rows_to in parts["type_spans"]:
        type_rows[node_type] = rows_tiled[:, rows_at:rows_to].ravel()
        # Equivalent to np.tile(matrix, (n_cands, 1)) with the
        # broadcasting done by a raw assignment — this runs once per
        # type per collation on the decision hot path, where the
        # wrapper overhead of np.tile/broadcast_to is measurable.
        matrix = plan_type_features[node_type]
        n_rows, width = matrix.shape
        tiled = np.empty((n_cands * n_rows, width), dtype=matrix.dtype)
        tiled.reshape(n_cands, n_rows, width)[:] = matrix
        type_features[node_type] = tiled
    try:
        host_matrix = (host_features.matrix(node_ids)
                       if isinstance(host_features, HostFeatures)
                       else np.vstack([host_features[node_id]
                                       for node_id in node_ids]))
        host_vectors = host_matrix[host_node_order]
    except KeyError:
        # ``host_features`` may legally cover only a subset of the
        # cluster (``featurize_hosts(..., node_ids=...)``): the
        # reference loop only looks up hosts a candidate actually
        # uses, so fall back to gathering exactly those — and raise
        # only if a *used* host is missing.
        host_vectors = np.vstack([host_features[node_ids[i]]
                                  for i in host_node_order])
    type_rows["host"] = host_rows
    type_features["host"] = host_vectors.astype(target, copy=False)

    ph_src = (offsets[:, None] + (op_rows if col_rows is None
                                  else col_rows)[None, :]).ravel()
    ph_seg = (host_before[:, None] + host_local).ravel()
    ops_to_hw = {"host": StageSlice(recv_rows=host_rows,
                                    edge_src=ph_src, edge_seg=ph_seg)}

    hw_src: dict[int, np.ndarray] = {}
    hw_seg: dict[int, np.ndarray] = {}
    hw_to_ops: dict[str, StageSlice] = {}
    for code, node_type, cols, pos, count in code_cols:
        src = (offsets[:, None] + n_ops + host_local[:, cols]).ravel()
        seg = (cand_rows[:, None] * count + pos[None, :]).ravel()
        hw_src[code] = src
        hw_seg[code] = seg
        hw_to_ops[node_type] = StageSlice(recv_rows=type_rows[node_type],
                                          edge_src=src, edge_seg=seg)

    # Flow levels: three broadcast adds tile every stage of every
    # level at once; per-stage arrays are sliced back out (each
    # ravel of a column block is exactly the candidate-major tiling
    # `_tile` would produce).
    concat = parts["level_concat"]
    recv_tiled = offsets[:, None] + concat["recv"][None, :]
    src_tiled = offsets[:, None] + concat["src"][None, :]
    seg_tiled = (cand_rows[:, None] * concat["nrecv"][None, :]
                 + concat["seg"][None, :])
    flow_levels: list[dict[str, StageSlice]] = []
    for level_spans in concat["spans"]:
        level: dict[str, StageSlice] = {}
        for node_type, recv_at, recv_to, edge_at, edge_to in level_spans:
            level[node_type] = StageSlice(
                recv_rows=recv_tiled[:, recv_at:recv_to].ravel(),
                edge_src=src_tiled[:, edge_at:edge_to].ravel(),
                edge_seg=seg_tiled[:, edge_at:edge_to].ravel())
        flow_levels.append(level)

    rounds: dict[str, StageSlice] = {}
    if neighbor_rounds:
        flow_groups = _candidate_flow_groups(plan_features, parts)
        for code, node_type in enumerate(NODE_TYPES[:-1]):
            local_rows = arrays.type_rows.get(node_type)
            if local_rows is None:
                continue
            recv_shift = cand_rows * local_rows.size
            group_src = [_tile(src, offsets)
                         for src, _ in flow_groups[node_type]]
            group_seg = [_tile(seg, recv_shift)
                         for _, seg in flow_groups[node_type]]
            if code in hw_src:
                group_src.append(hw_src[code])
                group_seg.append(hw_seg[code])
            rounds[node_type] = StageSlice(
                recv_rows=type_rows[node_type],
                edge_src=np.concatenate(group_src) if group_src
                else _EMPTY_INDEX,
                edge_seg=np.concatenate(group_seg) if group_seg
                else _EMPTY_INDEX)
        rounds["host"] = StageSlice(recv_rows=host_rows,
                                    edge_src=ph_src, edge_seg=ph_seg)

    return GraphBatch(n_nodes=int(ends[-1]), n_graphs=n_cands,
                      graph_id=graph_id, type_rows=type_rows,
                      type_features=type_features, ops_to_hw=ops_to_hw,
                      hw_to_ops=hw_to_ops, flow_levels=flow_levels,
                      neighbor_rounds=rounds,
                      candidates=CandidateLayout(assignment, plan_features,
                                                 col_rows))


def _compact_classes(batch: GraphBatch) -> CompactClasses:
    """Build :class:`CompactClasses` from a candidate batch's
    assignment matrix alone — every class key is a function of it, so
    no pass over the batch's edge arrays is needed.

    Host classes are keyed on (node, packed co-location bitmask), so a
    plan of any size keys without overflow; operator classes on
    ``slot * n_host_classes + host class``, which stays far below the
    int64 range for any batch that fits in memory.
    """
    layout = batch.candidates
    assignment = np.ascontiguousarray(layout.assignment, dtype=np.int64)
    n_cands, n_ops = assignment.shape
    parts = _candidate_parts(layout.plan)
    op_rows = parts["op_rows"]
    col_rows = op_rows if layout.columns is None else layout.columns
    slot_of_row = np.empty(n_ops, dtype=np.int64)
    slot_of_row[parts["type_rows_concat"]] = op_rows
    col_slot = slot_of_row[col_rows]

    # same[c, j, k]: candidate c hosts columns j and k on one node.  A
    # column is its host's first appearance iff no earlier column
    # shares the node — the batch's host rows, in batch order.
    same = assignment[:, :, None] == assignment[:, None, :]
    is_first = same.argmax(axis=2) == op_rows
    n_host_rows = batch.type_rows["host"].size

    # Host classes, keyed per (candidate, column) so each column
    # directly knows its host's class.  np.unique returns each key's
    # first (row-major) position: the first column of that node in the
    # first candidate using it, i.e. always a batch host row.
    nodes = assignment.reshape(-1, 1)
    keys = np.concatenate(
        [nodes.view(np.uint8),
         np.packbits(same, axis=2).reshape(n_cands * n_ops, -1)], axis=1)
    keys = keys.view(f"V{keys.shape[1]}").ravel()
    _, class_first, host_class = np.unique(keys, return_index=True,
                                           return_inverse=True)
    host_class = host_class.reshape(n_cands, n_ops)
    n_host_classes = class_first.size
    batch_host_row = np.cumsum(is_first.ravel()) - 1
    _, node_first, class_node = np.unique(nodes.ravel()[class_first],
                                          return_index=True,
                                          return_inverse=True)
    host_rows = batch_host_row[class_first[node_first]]
    if host_rows.size == 1 and n_host_rows > 1:
        host_rows = np.repeat(host_rows, 2)
    # ops -> hw messages of each class, ascending columns.
    seg, cols = np.nonzero(same.reshape(-1, n_ops)[class_first])
    src = col_slot[cols]
    n_stage1 = n_host_classes
    if n_host_classes == 1 and n_host_rows > 1:
        src = np.concatenate([src, src])
        seg = np.concatenate([seg, seg + 1])
        class_node = np.repeat(class_node, 2)
        n_stage1 = 2

    # Operator classes: (slot, host class) keys sort type-major, since
    # slots are type-major; each type's classes form one block.
    op_keys = col_slot * n_host_classes + host_class
    op_classes, op_class = np.unique(op_keys.ravel(), return_inverse=True)
    class_slot, class_host = np.divmod(op_classes, n_host_classes)
    op_inputs = []
    stage2 = []
    for node_type, start, stop in parts["type_spans"]:
        n_type = stop - start
        lo, hi = np.searchsorted(class_slot, (start, stop))
        hosts, slots = class_host[lo:hi], class_slot[lo:hi]
        if hi - lo == 1 and n_cands * n_type > 1:
            hosts, slots = np.repeat(hosts, 2), np.repeat(slots, 2)
        stage2.append((node_type, hosts, slots, int(hi - lo)))
        # A lone operator's encoder reads two rows: candidates 0 and 1
        # hold the same plan row first in the tiled feature matrix.
        op_inputs.append((node_type,
                          2 if n_type == 1 and n_cands > 1 else n_type,
                          n_type))

    host_counts = is_first.sum(axis=1)
    sizes = n_ops + host_counts
    expand = np.empty(batch.n_nodes, dtype=np.int64)
    expand[((np.cumsum(sizes) - sizes)[:, None] + col_rows).ravel()] = \
        n_host_classes + op_class
    expand[batch.type_rows["host"]] = host_class[is_first]
    return CompactClasses(
        op_inputs=op_inputs, host_rows=host_rows, stage1_src=src,
        stage1_seg=seg, stage1_host=class_node, n_stage1=n_stage1,
        n_host_classes=n_host_classes, stage2=stage2, expand=expand,
        n_compact=n_host_classes + op_classes.size)


def collate_candidates_reference(plan_features: PlanFeatures,
                                 placements: Sequence[Placement],
                                 host_features: dict[str, np.ndarray],
                                 neighbor_rounds: bool = True
                                 ) -> GraphBatch:
    """The per-candidate-loop candidate collation.

    Retained as the executable specification of the index-native
    :func:`collate_candidates`: it walks every placement's string dict
    exactly the way the pre-index pipeline did, and the vectorized path
    must reproduce its batches field for field
    (``tests/test_index_candidates.py``); the ``candidate_collation``
    hot-path benchmark measures the speedup against it.
    """
    if not placements:
        raise ValueError("cannot collate an empty list of placements")
    parts = _candidate_parts(plan_features)
    n_ops = parts["n_ops"]
    op_index = plan_features.op_index
    type_pos = parts["type_pos"]
    type_code = parts["type_code"]
    arrays = plan_features.arrays
    n_cands = len(placements)

    # Per-candidate pass: host rows/features and placement edges.
    offsets = np.empty(n_cands, dtype=np.int64)      # node offsets
    host_counts = np.empty(n_cands, dtype=np.int64)
    host_vectors: list[np.ndarray] = []
    host_row_parts: list[np.ndarray] = []
    ph_src: list[int] = []                           # ops -> hw edges
    ph_seg: list[int] = []
    hw_src: dict[int, list[int]] = {}                # hw -> ops, by type
    hw_seg: dict[int, list[int]] = {}
    type_counts = {code: arrays.type_rows[node_type].size
                   for code, node_type in enumerate(NODE_TYPES[:-1])
                   if node_type in arrays.type_rows}
    offset = 0
    host_total = 0
    for index, placement in enumerate(placements):
        if len(placement) != n_ops:
            raise ValueError("collate_candidates requires total "
                             "placements covering every operator")
        offsets[index] = offset
        host_index: dict[str, int] = {}
        for op_id, node_id in placement.items():
            host_local = host_index.get(node_id)
            if host_local is None:
                host_local = len(host_index)
                host_index[node_id] = host_local
                host_vectors.append(host_features[node_id])
            op_row = op_index[op_id]
            ph_src.append(offset + op_row)
            ph_seg.append(host_total + host_local)
            code = int(type_code[op_row])
            hw_src.setdefault(code, []).append(offset + n_ops
                                               + host_local)
            hw_seg.setdefault(code, []).append(
                index * type_counts[code] + int(type_pos[op_row]))
        n_hosts = len(host_index)
        host_counts[index] = n_hosts
        host_row_parts.append(np.arange(offset + n_ops,
                                        offset + n_ops + n_hosts,
                                        dtype=np.int64))
        host_total += n_hosts
        offset += n_ops + n_hosts

    n_nodes = offset
    sizes = n_ops + host_counts
    graph_id = np.repeat(np.arange(n_cands, dtype=np.int64), sizes)
    host_rows = (np.concatenate(host_row_parts) if host_total
                 else _EMPTY_INDEX)

    target = inference_dtype()
    plan_type_features = arrays.type_features_as(target)
    type_rows: dict[str, np.ndarray] = {}
    type_features: dict[str, np.ndarray] = {}
    for node_type in NODE_TYPES[:-1]:
        local = arrays.type_rows.get(node_type)
        if local is None:
            continue
        type_rows[node_type] = _tile(local, offsets)
        type_features[node_type] = np.tile(
            plan_type_features[node_type], (n_cands, 1))
    if host_total:
        type_rows["host"] = host_rows
        type_features["host"] = np.vstack(host_vectors).astype(
            target, copy=False)

    ph_src_arr = np.asarray(ph_src, dtype=np.int64)
    ph_seg_arr = np.asarray(ph_seg, dtype=np.int64)
    ops_to_hw = {"host": StageSlice(recv_rows=host_rows,
                                    edge_src=ph_src_arr,
                                    edge_seg=ph_seg_arr)} \
        if host_total else {}

    hw_to_ops: dict[str, StageSlice] = {}
    for code, node_type in enumerate(NODE_TYPES[:-1]):
        if code not in hw_src:
            continue
        hw_to_ops[node_type] = StageSlice(
            recv_rows=type_rows[node_type],
            edge_src=np.asarray(hw_src[code], dtype=np.int64),
            edge_seg=np.asarray(hw_seg[code], dtype=np.int64))

    flow_levels: list[dict[str, StageSlice]] = []
    for local_level in parts["level_slices"]:
        level: dict[str, StageSlice] = {}
        for node_type, stage in local_level.items():
            recv_shift = np.arange(n_cands,
                                   dtype=np.int64) * stage.recv_rows.size
            level[node_type] = StageSlice(
                recv_rows=_tile(stage.recv_rows, offsets),
                edge_src=_tile(stage.edge_src, offsets),
                edge_seg=_tile(stage.edge_seg, recv_shift))
        flow_levels.append(level)

    # Symmetric neighborhood: flow forward, flow backward, placement
    # forward (host receivers), placement backward (operator
    # receivers) — the reference group order.
    rounds: dict[str, StageSlice] = {}
    if neighbor_rounds:
        flow_groups = _candidate_flow_groups(plan_features, parts)
        for code, node_type in enumerate(NODE_TYPES[:-1]):
            local = arrays.type_rows.get(node_type)
            if local is None:
                continue
            recv_shift = np.arange(n_cands, dtype=np.int64) * local.size
            group_src = [_tile(src, offsets)
                         for src, _ in flow_groups[node_type]]
            group_seg = [_tile(seg, recv_shift)
                         for _, seg in flow_groups[node_type]]
            if code in hw_src:
                group_src.append(np.asarray(hw_src[code],
                                            dtype=np.int64))
                group_seg.append(np.asarray(hw_seg[code],
                                            dtype=np.int64))
            rounds[node_type] = StageSlice(
                recv_rows=type_rows[node_type],
                edge_src=np.concatenate(group_src) if group_src
                else _EMPTY_INDEX,
                edge_seg=np.concatenate(group_seg) if group_seg
                else _EMPTY_INDEX)
        if host_total:
            rounds["host"] = StageSlice(recv_rows=host_rows,
                                        edge_src=ph_src_arr,
                                        edge_seg=ph_seg_arr)

    return GraphBatch(n_nodes=n_nodes, n_graphs=n_cands,
                      graph_id=graph_id, type_rows=type_rows,
                      type_features=type_features, ops_to_hw=ops_to_hw,
                      hw_to_ops=hw_to_ops, flow_levels=flow_levels,
                      neighbor_rounds=rounds)
