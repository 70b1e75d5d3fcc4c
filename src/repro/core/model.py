"""The COSTREAM GNN (paper Section III-B, Algorithm 1).

Node features are embedded by *node-type-specific* MLP encoders into
hidden states; the hidden states are then refined by the paper's staged
message-passing scheme:

1. ``OPS -> HW`` — operators inform their hosts of their demands;
2. ``HW -> OPS`` — hosts inform their operators of their capacities;
3. ``SOURCES -> OPS`` — a topological sweep along the data flow, so
   stream characteristics propagate from the sources to the sink;
4. readout — hidden states are summed per graph and a final MLP maps
   the pooled state to the cost prediction.

Every update follows Algorithm 1: the sum of incoming child states is
combined with the node's own state and fed through a node-type-specific
update MLP.  The *traditional* scheme (Exp 7b ablation) instead runs
synchronous rounds where every node aggregates all of its neighbors,
regardless of type and direction.
"""

from __future__ import annotations

import numpy as np

from ..nn import MLP, Module, StackedMLP, Tensor, concat, gather, \
    scatter_rows, segment_sum
from ..nn.autodiff import (_legacy_kernels_enabled,
                           flat_scatter_add as _flat_scatter_add,
                           gather_segment_sum, stacked_flat_scatter_add)
from ..nn.losses import _loss_and_grad_arrays, _loss_arrays
from .features import Featurizer, NODE_TYPES
from .graph import GraphBatch, StageSlice

__all__ = ["CostreamGNN", "MemberStack", "TrainableMemberStack",
           "MESSAGE_SCHEMES"]

MESSAGE_SCHEMES = ("staged", "traditional")


class CostreamGNN(Module):
    """One cost-metric head over the joint operator-resource graph.

    The network outputs one scalar per graph: the ``log1p`` of the cost
    for regression metrics, or a logit for the binary metrics.  It owns
    the weights and the taped forward.  The tape trains the
    ``traditional`` scheme and serves single-model predictions; it is
    also the reference every array path is tested against.  Staged
    training and ensemble inference run these weights through
    :class:`TrainableMemberStack` / :class:`MemberStack` (one member
    is a stack of one).
    """

    def __init__(self, featurizer: Featurizer | None = None,
                 hidden_dim: int = 48, seed: int = 0,
                 scheme: str = "staged", traditional_rounds: int = 3):
        if scheme not in MESSAGE_SCHEMES:
            raise ValueError(f"unknown message-passing scheme {scheme!r}")
        self.featurizer = featurizer or Featurizer()
        self.hidden_dim = hidden_dim
        self.scheme = scheme
        self.traditional_rounds = traditional_rounds
        rng = np.random.default_rng(seed)
        self.encoders: dict[str, MLP] = {
            node_type: MLP(self.featurizer.feature_dim(node_type),
                           [hidden_dim], hidden_dim, rng)
            for node_type in NODE_TYPES}
        self.combiners: dict[str, MLP] = {
            node_type: MLP(2 * hidden_dim, [hidden_dim], hidden_dim, rng)
            for node_type in NODE_TYPES}
        self.readout = MLP(hidden_dim, [hidden_dim], 1, rng)

    # ------------------------------------------------------------------
    def forward(self, batch: GraphBatch) -> Tensor:
        hidden = self._encode(batch)
        if self.scheme == "staged":
            hidden = self._apply_stage(hidden, batch.ops_to_hw)
            hidden = self._apply_stage(hidden, batch.hw_to_ops)
            for level in batch.flow_levels:
                hidden = self._apply_stage(hidden, level)
        else:
            for _ in range(self.traditional_rounds):
                hidden = self._apply_stage(hidden, batch.neighbor_rounds,
                                           simultaneous=True)
        pooled = segment_sum(hidden, batch.graph_id, batch.n_graphs)
        return self.readout(pooled).squeeze(-1)

    # ------------------------------------------------------------------
    def _encode(self, batch: GraphBatch) -> Tensor:
        hidden = Tensor(np.zeros((batch.n_nodes, self.hidden_dim)))
        for node_type, rows in batch.type_rows.items():
            states = self.encoders[node_type](
                Tensor(batch.type_features[node_type]))
            hidden = scatter_rows(hidden, rows, states)
        return hidden

    # ------------------------------------------------------------------
    def _apply_stage(self, hidden: Tensor,
                     slices: dict[str, StageSlice],
                     simultaneous: bool = False) -> Tensor:
        """One Algorithm-1 update step over a set of receiver slices."""
        source = hidden  # read every slice from the pre-update states
        for node_type, stage in slices.items():
            if stage.recv_rows.size == 0:
                continue
            if stage.edge_src.size:
                if _legacy_kernels_enabled():
                    messages = gather(source, stage.edge_src)
                    aggregated = segment_sum(messages, stage.edge_seg,
                                             stage.recv_rows.size)
                else:
                    aggregated = gather_segment_sum(
                        source, stage.edge_src, stage.edge_seg,
                        stage.recv_rows.size)
            else:
                aggregated = Tensor(np.zeros((stage.recv_rows.size,
                                              self.hidden_dim)))
            own = gather(source, stage.recv_rows)
            combined = concat([aggregated, own], axis=-1)
            updated = self.combiners[node_type](combined)
            hidden = scatter_rows(hidden, stage.recv_rows, updated)
            if not simultaneous:
                source = hidden
        return hidden


class MemberStack:
    """K ensemble members' weights stacked for batched-GEMM inference.

    Runs every member's staged forward at once on ``(K, n, d)``
    stacks: every encoder/combiner/readout GEMM is a single
    ``np.matmul`` over stacked weights (:class:`repro.nn.StackedMLP`),
    and the message scatter-adds are one member-tiled bincount
    (:func:`repro.nn.autodiff.stacked_flat_scatter_add`).  Each batched
    kernel is bitwise identical per member to the kernel the taped
    :meth:`CostreamGNN.forward` runs, so with float64 stacks
    :meth:`forward_arrays` equals stacking K taped forwards bit for
    bit — the equivalence `tests/test_ensemble_batched.py` asserts.
    This is the only array-only forward of the network.

    Candidate batches (:func:`repro.core.graph.collate_candidates`)
    take a compact prefix: the encoders and both placement stages run
    once per distinct operator, host and co-location class of the
    decision (:meth:`repro.core.graph.GraphBatch.compact_prefix`),
    then one gather fills the full buffer for the flow levels, pooling
    and readout — still bit for bit the taped forward, because every
    GEMM with >= 2 rows is row-invariant (``tests/test_compact.py``
    pins this on the running BLAS).  Every other batch takes the full
    path.

    A stack is a read-only *snapshot* of the member weights (copied,
    and cast once when ``dtype`` is float32).  Only the ``staged``
    scheme is supported — :class:`~repro.core.ensemble.MetricEnsemble`
    serves other schemes through the members' taped ``predict_raw``.
    """

    def __init__(self, networks: list[CostreamGNN],
                 dtype=np.float64):
        if not networks:
            raise ValueError("cannot stack an empty list of networks")
        template = networks[0]
        for network in networks[1:]:
            if (network.hidden_dim != template.hidden_dim
                    or network.scheme != template.scheme
                    or set(network.encoders) != set(template.encoders)):
                raise ValueError(
                    "cannot stack networks with mismatched "
                    "architectures")
        if template.scheme != "staged":
            raise ValueError(
                f"MemberStack supports the 'staged' scheme only, "
                f"got {template.scheme!r}")
        self.size = len(networks)
        self.hidden_dim = template.hidden_dim
        self.dtype = np.dtype(dtype)
        self.encoders = {
            node_type: StackedMLP.from_mlps(
                [n.encoders[node_type] for n in networks], self.dtype)
            for node_type in template.encoders}
        self.combiners = {
            node_type: StackedMLP.from_mlps(
                [n.combiners[node_type] for n in networks], self.dtype)
            for node_type in template.combiners}
        self.readout = StackedMLP.from_mlps(
            [n.readout for n in networks], self.dtype)

    def _aggregate(self, flat_index: np.ndarray, values: np.ndarray,
                   n_rows: int) -> np.ndarray:
        """Member-stacked scatter-add, cast back to the stack dtype.

        ``np.bincount`` always accumulates in float64; the float32 mode
        therefore aggregates messages in float64 and casts the (small)
        per-receiver sums back — the GEMMs, which dominate, stay in
        float32.
        """
        out = stacked_flat_scatter_add(flat_index, values, n_rows)
        if self.dtype != np.float64:
            out = out.astype(self.dtype)
        return out

    def forward_arrays(self, batch: GraphBatch) -> np.ndarray:
        """All members' raw outputs for one batch: ``(K, n_graphs)``.

        The K members' hidden states live in one ``(K * n_nodes,
        hidden_dim)`` buffer (member ``k`` owns the rows ``[k * n_nodes,
        (k + 1) * n_nodes)``): gathers and scatters are single axis-0
        fancy indexes over member-tiled row indices cached on the batch,
        and only the GEMM inputs are viewed as ``(K, n, d)`` stacks.
        Candidate batches (``batch.candidates`` set) fill that buffer
        from their distinct rows instead (:meth:`_compact_hidden`) and
        run only the flow levels on it.
        """
        size = self.size
        hidden_dim = self.hidden_dim
        n_nodes = batch.n_nodes
        features = batch.cast_type_features(self.dtype)
        if batch.candidates is not None:
            hidden = self._compact_hidden(batch, features)
            first_stage = 2
        else:
            hidden = np.zeros((size * n_nodes, hidden_dim),
                              dtype=self.dtype)
            for node_type, rows in batch.member_type_rows(size).items():
                hidden[rows] = self.encoders[node_type].forward_array(
                    features[node_type]).reshape(-1, hidden_dim)
            first_stage = 0
        combiners = self.combiners
        for group in batch.member_stage_plan(hidden_dim, size,
                                             first_stage):
            for node_type, recv, src, flat_seg, n_recv in group:
                if src is not None:
                    messages = hidden[src].reshape(size, -1, hidden_dim)
                    aggregated = self._aggregate(flat_seg, messages,
                                                 n_recv)
                else:
                    aggregated = np.zeros((size, n_recv, hidden_dim),
                                          dtype=self.dtype)
                combined = np.concatenate(
                    [aggregated,
                     hidden[recv].reshape(size, n_recv, hidden_dim)],
                    axis=-1)
                hidden[recv] = combiners[node_type].forward_array(
                    combined).reshape(-1, hidden_dim)
        pooled = self._aggregate(
            batch.member_flat_graph_id(hidden_dim, size),
            hidden.reshape(size, n_nodes, hidden_dim), batch.n_graphs)
        return np.squeeze(self.readout.forward_array(pooled), axis=-1)

    def _compact_hidden(self, batch: GraphBatch,
                        features: dict[str, np.ndarray]) -> np.ndarray:
        """The ``(K * n_nodes, hidden_dim)`` buffer after both placement
        stages, computed on a candidate batch's distinct rows
        (:class:`~repro.core.graph.CompactClasses`) and gathered once.

        Each encoder and combiner runs on the distinct rows of its
        full-batch input — the same values, so by GEMM row invariance
        the same output bits — and each aggregation replays the full
        batch's: ops -> hw through the same bincount in the same
        per-receiver order, hw -> ops as the one-message ``0.0 +
        state`` sum.
        """
        classes, stage1_seg, expand = batch.compact_prefix(
            self.hidden_dim, self.size)
        encoders = self.encoders
        combiners = self.combiners
        ops = np.concatenate(
            [encoders[node_type].forward_array(
                features[node_type][:n_rows])[:, :n_slots]
             for node_type, n_rows, n_slots in classes.op_inputs], axis=1)
        hosts = encoders["host"].forward_array(
            features["host"][classes.host_rows])
        # np.take: a member-axis gather ~2.5x faster than the
        # equivalent ``array[:, index]`` at these shapes, and
        # contiguous.
        aggregated = self._aggregate(
            stage1_seg, np.take(ops, classes.stage1_src, axis=1),
            classes.n_stage1)
        host_states = combiners["host"].forward_array(np.concatenate(
            [aggregated, np.take(hosts, classes.stage1_host, axis=1)],
            axis=-1))
        blocks = [host_states[:, :classes.n_host_classes]]
        for node_type, host_class, slot, n_kept in classes.stage2:
            combined = np.concatenate(
                [np.take(host_states, host_class, axis=1) + 0.0,
                 np.take(ops, slot, axis=1)], axis=-1)
            blocks.append(combiners[node_type].forward_array(
                combined)[:, :n_kept])
        compact = np.concatenate(blocks, axis=1)
        return np.take(compact.reshape(-1, self.hidden_dim), expand,
                       axis=0)


class TrainableMemberStack(MemberStack):
    """A *live* member stack: K members trained in one batched step.

    Where :class:`MemberStack` is a read-only inference snapshot, this
    stack owns gradient-carrying parameter Tensors (``(K, fan_in,
    fan_out)`` weight stacks, stepped in place by
    :class:`repro.nn.StackedAdam`) and runs the K members' staged
    training step as ONE stacked forward/backward per mini-batch
    (:meth:`loss_and_grad`): stacked GEMMs
    (:meth:`repro.nn.StackedMLP.backward_array`), shared-index
    gathers, per-member bincount scatter-adds over one cache-hot flat
    index, and per-member losses/gradients computed by the exact
    per-member loss kernel.  Every batched kernel replays the taped
    kernel per slice, so — fed the same mini-batch — member ``k``'s
    loss value and every parameter gradient are bitwise identical to
    the taped forward plus ``loss.backward()`` on ``networks[k]``.  A
    single cost model trains as a one-member stack
    (:class:`repro.training.StackedTrainer`).

    Validation runs the inherited :meth:`MemberStack.forward_arrays`:
    the stacked weights are live aliases of the parameter Tensors, so
    it always reads the current values.

    Construction *copies* the members' current weights in (preserving
    each member's seed-derived initialization); the trainer writes
    member slices back through :meth:`member_state` +
    ``load_state_dict`` when training ends.  float64 and the ``staged``
    scheme only.
    """

    def __init__(self, networks: list[CostreamGNN]):
        super().__init__(networks, np.float64)
        for mlp in self._stacked_mlps():
            mlp.make_trainable()
        self._member_shapes = [param.data.shape
                               for param in networks[0].parameters()]

    def _stacked_mlps(self):
        """Stacked MLPs in :meth:`CostreamGNN.parameters` order."""
        yield from self.encoders.values()
        yield from self.combiners.values()
        yield self.readout

    def parameters(self) -> list:
        """Stacked parameter Tensors, ordered so index ``i`` stacks the
        member networks' ``parameters()[i]``."""
        return [param for mlp in self._stacked_mlps()
                for param in mlp.trainable_parameters()]

    def member_state(self, member: int) -> dict[str, np.ndarray]:
        """One member's parameter slices as a
        :meth:`~repro.nn.Module.state_dict` (member-shaped copies)."""
        return {f"p{i}": param.data[member].reshape(shape).copy()
                for i, (param, shape)
                in enumerate(zip(self.parameters(),
                                 self._member_shapes))}

    # ------------------------------------------------------------------
    def loss_and_grad(self, batch: GraphBatch, labels: np.ndarray,
                      loss_kind: str) -> np.ndarray:
        """One stacked training step; returns the ``(K,)`` loss values.

        Forward and backward are written out by hand, replaying the
        taped path's kernels (the backward in the exact order the tape
        would run it).  The K members' hidden states live in one
        ``(K * n_nodes, hidden)`` buffer so every gather and row
        update is a fast axis-0 fancy index over row-tiled node indices
        (:meth:`~repro.core.graph.GraphBatch.member_train_plan` — row
        tiling only: the ``size * E * width`` flat-index expansion the
        inference stacks cache would never amortize on a batch that is
        consumed once).  Every GEMM runs stacked over the ``(K, n,
        d)`` member axis (:class:`repro.nn.StackedMLP` — per-slice
        bitwise identical to the per-member GEMMs); every scatter-add
        loops the per-member bincount kernel over the batch-cached
        untiled flat index (cache-hot across members), so the
        per-member equivalence is literal.  Losses and output
        gradients come from the per-member loss kernel; gradients
        accumulate into the stacked parameter Tensors.
        """
        size = self.size
        hidden_dim = self.hidden_dim
        n_nodes = batch.n_nodes
        hidden = np.zeros((size * n_nodes, hidden_dim))
        hidden3 = hidden.reshape(size, n_nodes, hidden_dim)
        encode_cache = []
        for node_type, rows in batch.member_type_rows(size).items():
            out, cache = self.encoders[node_type].forward_array_cached(
                batch.type_features[node_type])
            hidden[rows] = out.reshape(-1, hidden_dim)
            encode_cache.append((node_type, rows, cache))

        update_cache = []
        combiners = self.combiners
        for entry in batch.member_train_plan(size):
            node_type, stage, recv, src, _ = entry
            n_recv = stage.recv_rows.size
            if src is not None:
                messages = hidden[src].reshape(size, -1, hidden_dim)
                flat_seg = stage.flat_seg(hidden_dim)
                aggregated = np.empty((size, n_recv, hidden_dim))
                for k in range(size):
                    aggregated[k] = _flat_scatter_add(
                        flat_seg, messages[k], n_recv)
            else:
                aggregated = np.zeros((size, n_recv, hidden_dim))
            own = hidden[recv].reshape(size, n_recv, hidden_dim)
            combined = np.concatenate([aggregated, own], axis=-1)
            out, cache = combiners[node_type].forward_array_cached(
                combined)
            hidden[recv] = out.reshape(-1, hidden_dim)
            update_cache.append((entry, cache))

        flat_gid = batch.flat_graph_id(hidden_dim)
        pooled = np.empty((size, batch.n_graphs, hidden_dim))
        for k in range(size):
            pooled[k] = _flat_scatter_add(flat_gid, hidden3[k],
                                          batch.n_graphs)
        raw, readout_cache = self.readout.forward_array_cached(pooled)
        pred = np.squeeze(raw, axis=-1).reshape(size, -1)
        losses = np.empty(size)
        grad_pred = np.empty_like(pred)
        for k in range(size):
            # The per-member loss kernel on the member's contiguous
            # prediction slice: values and gradients are the per-member
            # step's, by construction.
            losses[k], grad_pred[k] = _loss_and_grad_arrays(
                pred[k], labels, loss_kind)

        grad_pooled = self.readout.backward_array(
            grad_pred[:, :, None], readout_cache)
        grad_hidden = grad_pooled.reshape(-1, hidden_dim)[
            batch.member_graph_rows(size)]
        grad_hidden3 = grad_hidden.reshape(size, n_nodes, hidden_dim)
        own_dense = np.zeros((size * n_nodes, hidden_dim))
        for entry, cache in reversed(update_cache):
            node_type, stage, recv, src, seg = entry
            grad_updated = grad_hidden[recv].reshape(
                size, stage.recv_rows.size, hidden_dim)
            grad_hidden[recv] = 0.0
            grad_combined = combiners[node_type].backward_array(
                grad_updated, cache)
            grad_own = grad_combined[:, :, hidden_dim:]
            # Receiver rows are unique, so the reference's
            # ``_scatter_add(recv, grad_own, n)`` dense array is
            # ``0.0 + grad_own`` at the recv rows and 0.0 elsewhere —
            # row assignment reproduces the bincount output bit for
            # bit (IEEE addition is commutative), with no flat index.
            own_dense[recv] = np.add(grad_own, 0.0) \
                .reshape(-1, hidden_dim)
            grad_hidden += own_dense
            own_dense[recv] = 0.0
            if src is not None:
                grad_agg = grad_combined[:, :, :hidden_dim]
                grad_messages = grad_agg.reshape(-1, hidden_dim)[seg] \
                    .reshape(size, -1, hidden_dim)
                flat_src = stage.flat_src(hidden_dim)
                for k in range(size):
                    grad_hidden3[k] += _flat_scatter_add(
                        flat_src, grad_messages[k], n_nodes)
        for node_type, rows, cache in reversed(encode_cache):
            self.encoders[node_type].backward_array(
                grad_hidden[rows].reshape(size, -1, hidden_dim), cache,
                input_grad=False)
        return losses

    def loss_over_batches(self, pairs, loss_kind: str) -> np.ndarray:
        """``(K,)`` mean losses over pre-collated ``(batch, labels)``
        pairs — the stacked mirror of
        :meth:`~repro.core.training.CostModel._loss_over_batches`
        (same per-batch loss values, same graph-count-weighted
        accumulation order per member)."""
        total = np.zeros(self.size)
        count = 0
        for batch, chunk_labels in pairs:
            raw = self.forward_arrays(batch).reshape(self.size, -1)
            for member in range(self.size):
                loss = _loss_arrays(raw[member], chunk_labels, loss_kind)
                total[member] += loss * batch.n_graphs
            count += batch.n_graphs
        return total / max(count, 1)
