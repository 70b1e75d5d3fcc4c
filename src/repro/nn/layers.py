"""Layers and modules built on top of :mod:`repro.nn.autodiff`."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, _legacy_kernels_enabled, _unbroadcast
from .backend import active_backend
from . import init

__all__ = ["Module", "Linear", "MLP", "Dropout", "StackedMLP"]


def _accumulate_array(param: Tensor, grad: np.ndarray) -> None:
    """Accumulate a raw gradient into ``param.grad`` exactly like
    ``Tensor._accumulate`` (first touch copies, then ``+=``)."""
    if param.grad is None:
        param.grad = np.array(grad, dtype=np.float64)
    else:
        param.grad += grad


class Module:
    """Base class: tracks parameters and sub-modules by attribute."""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                if id(value) not in seen:
                    seen.add(id(value))
                    params.append(value)
            elif isinstance(value, Module):
                for param in value.parameters():
                    if id(param) not in seen:
                        seen.add(id(param))
                        params.append(param)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        for param in item.parameters():
                            if id(param) not in seen:
                                seen.add(id(param))
                                params.append(param)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        for param in item.parameters():
                            if id(param) not in seen:
                                seen.add(id(param))
                                params.append(param)
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter values, keyed by discovery order."""
        return {f"p{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} entries, model has {len(params)}")
        for i, param in enumerate(params):
            value = state[f"p{i}"]
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for p{i}: {value.shape} vs "
                    f"{param.data.shape}")
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``x @ W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, activation: str = "relu"):
        if activation == "relu":
            weight = init.he_normal(rng, in_features, out_features)
        else:
            weight = init.xavier_uniform(rng, in_features, out_features)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(init.zeros(out_features), requires_grad=True)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        if _legacy_kernels_enabled():
            return x @ self.weight + self.bias
        # Fused affine op: one taped node instead of two.  The forward
        # expression and the three gradient formulas are exactly those
        # the matmul and add ops would have produced, so values and
        # gradients are bitwise identical to the unfused path.
        weight, bias = self.weight, self.bias
        out_data = active_backend().affine(x.data, weight.data, bias.data)

        def backward(grad):
            kernel = active_backend()
            x._accumulate(kernel.matmul(grad, weight.data.T))
            weight._accumulate(kernel.matmul(x.data.T, grad))
            bias._accumulate(_unbroadcast(grad, bias.shape))

        return Tensor._make(out_data, (x, weight, bias), backward)


class Dropout(Module):
    """Inverted dropout; identity when ``training`` is False."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self.training = True

    def parameters(self) -> list[Tensor]:
        return []

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class MLP(Module):
    """Multi-layer perceptron with ReLU hidden activations.

    ``hidden`` lists the hidden layer widths; the final layer is linear
    (no activation) so the network can be used as an encoder or as a
    regression / logit head.
    """

    def __init__(self, in_features: int, hidden: Sequence[int],
                 out_features: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        dims = [in_features] + list(hidden) + [out_features]
        self.layers: list[Linear] = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            is_last = i == len(dims) - 2
            activation = "linear" if is_last else "relu"
            self.layers.append(Linear(fan_in, fan_out, rng, activation))
        self.dropout = Dropout(dropout, rng) if dropout > 0.0 else None
        self.training = True

    def train(self) -> None:
        self.training = True
        if self.dropout is not None:
            self.dropout.training = True

    def eval(self) -> None:
        self.training = False
        if self.dropout is not None:
            self.dropout.training = False

    def forward(self, x: Tensor) -> Tensor:
        if (_legacy_kernels_enabled()
                or (self.dropout is not None and self.training
                    and self.dropout.rate > 0.0)):
            # Per-op path: keeps the dropout RNG draw sequence (and the
            # seed behavior under legacy kernels).
            return self._forward_layerwise(x)
        return self._forward_fused(x)

    def _forward_layerwise(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = x.relu()
                if self.dropout is not None:
                    x = self.dropout(x)
        return x

    def _forward_fused(self, x: Tensor) -> Tensor:
        """Whole-MLP fusion: one taped node for the full stack.

        Forward values and every gradient formula replicate the per-op
        tape exactly (same kernels, same order — see the relu mask and
        ``_unbroadcast`` reuse), so results are bitwise identical while
        skipping the per-op Tensor/closure bookkeeping.
        """
        layers = self.layers
        out_data, (activations, masks) = active_backend() \
            .mlp_forward_cached([layer.weight.data for layer in layers],
                                [layer.bias.data for layer in layers],
                                x.data)

        def backward(grad):
            kernel = active_backend()
            g = grad
            for i in range(len(layers) - 1, -1, -1):
                layer = layers[i]
                layer.weight._accumulate(
                    kernel.matmul(activations[i].T, g))
                layer.bias._accumulate(_unbroadcast(g, layer.bias.shape))
                g = kernel.matmul(g, layer.weight.data.T)
                if i > 0:
                    g = g * masks[i - 1]
            x._accumulate(g)

        parents = [x]
        for layer in layers:
            parents.append(layer.weight)
            parents.append(layer.bias)
        return Tensor._make(out_data, parents, backward)

    def forward_array(self, x):
        """Eval-mode forward on a raw ndarray, skipping all autodiff
        objects.  Matches :meth:`forward` in eval mode bit for bit
        (``x * (x > 0)`` is the exact relu expression the Tensor op
        uses); dropout is identity in eval mode so it is skipped."""
        return active_backend().mlp_forward(
            [layer.weight.data for layer in self.layers],
            [layer.bias.data for layer in self.layers], x)

    def forward_array_cached(self, x):
        """Like :meth:`forward_array`, returning the cache the manual
        backward needs (layer inputs and relu masks)."""
        out, cache = active_backend().mlp_forward_cached(
            [layer.weight.data for layer in self.layers],
            [layer.bias.data for layer in self.layers], x)
        return out, cache

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """Per-layer (in, out) shapes; the architecture fingerprint
        :meth:`StackedMLP.from_mlps` validates against."""
        return tuple((layer.in_features, layer.out_features)
                     for layer in self.layers)

    def backward_array(self, grad, cache, input_grad: bool = True):
        """Manual backward matching :meth:`_forward_fused` bit for bit.

        Accumulates parameter gradients into ``.grad`` (first-touch
        copy, then ``+=``, like the tape) and returns the input
        gradient, or ``None`` with ``input_grad=False`` (encoder inputs
        are leaves, so their gradient GEMM can be skipped)."""
        kernel = active_backend()
        activations, masks = cache
        g = grad
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            _accumulate_array(layer.weight,
                              kernel.matmul(activations[i].T, g))
            _accumulate_array(layer.bias, _unbroadcast(g, layer.bias.shape))
            if i == 0 and not input_grad:
                return None
            g = kernel.matmul(g, layer.weight.data.T)
            if i > 0:
                g = g * masks[i - 1]
        return g


class StackedMLP:
    """K same-architecture MLPs folded into per-layer 3-D weight stacks.

    The ensemble-inference substrate: instead of K sequential 2-D GEMMs
    per layer, one ``np.matmul`` over ``(K, n, d)`` activations runs
    every member's affine map in a single batched-GEMM call.  numpy
    dispatches each ``(n, d) @ (d, h)`` slice of the stacked operands
    to the same 2-D GEMM kernel the per-member
    :meth:`MLP.forward_array` uses, so float64 stacks produce outputs
    **bitwise identical** to looping over the members.

    Weights are *copied* into the stacks at construction time (cast
    once when ``dtype`` is float32) and never written back — a stack is
    a read-only snapshot, and callers are responsible for rebuilding it
    when member parameters change (see
    ``MetricEnsemble.member_stack``).
    """

    def __init__(self, weights: list[np.ndarray],
                 biases: list[np.ndarray], dtype: np.dtype):
        self.weights = weights          # per layer: (K, fan_in, fan_out)
        self.biases = biases            # per layer: (K, 1, fan_out)
        self.dtype = np.dtype(dtype)
        self.size = weights[0].shape[0]

    @classmethod
    def from_mlps(cls, mlps: Sequence[MLP],
                  dtype=np.float64) -> "StackedMLP":
        """Stack the weights of same-architecture MLPs.

        Raises ``ValueError`` when the member architectures disagree —
        stacking only makes sense for ensemble members that differ in
        their values, not their shapes.
        """
        mlps = list(mlps)
        if not mlps:
            raise ValueError("cannot stack an empty list of MLPs")
        shapes = {mlp.layer_shapes for mlp in mlps}
        if len(shapes) != 1:
            raise ValueError(
                f"cannot stack MLPs with mismatched architectures: "
                f"{sorted(shapes)}")
        dtype = np.dtype(dtype)
        weights = []
        biases = []
        for group in zip(*(mlp.layers for mlp in mlps)):
            weights.append(np.stack([layer.weight.data
                                     for layer in group])
                           .astype(dtype, copy=False))
            biases.append(np.stack([layer.bias.data for layer in group])
                          [:, None, :].astype(dtype, copy=False))
        return cls(weights, biases, dtype)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Batched eval-mode forward on raw ndarrays.

        ``x`` is either ``(n, fan_in)`` (shared input, broadcast over
        the members — the encoder case) or ``(K, n, fan_in)``
        (per-member activations); the result is ``(K, n, fan_out)``.
        The relu ``x * (x > 0)`` is the exact expression the per-member
        path uses.  Callers pass ``x`` already in :attr:`dtype` —
        mixing dtypes would silently upcast the GEMM to float64.
        """
        return active_backend().mlp_forward(self.weights, self.biases, x)

    # ------------------------------------------------------------------
    # Trainable stacks (the K-member batched training step)
    # ------------------------------------------------------------------
    def make_trainable(self) -> "StackedMLP":
        """Wrap the weight stacks in gradient-carrying Tensors.

        After this call the stack is *live*: :attr:`weights` /
        :attr:`biases` alias the Tensors' ``data`` arrays, so an
        optimizer stepping the Tensors in place is immediately visible
        to :meth:`forward_array` / :meth:`forward_array_cached`.
        Training runs in float64 only — the dtype the members train in.
        """
        if self.dtype != np.float64:
            raise ValueError("trainable stacks are float64 only")
        self.weight_params = [Tensor(w, requires_grad=True)
                              for w in self.weights]
        self.bias_params = [Tensor(b, requires_grad=True)
                            for b in self.biases]
        # Tensor() of a float64 array does not copy: keep the aliased
        # arrays so forward reads the live parameter values.
        self.weights = [p.data for p in self.weight_params]
        self.biases = [p.data for p in self.bias_params]
        return self

    def trainable_parameters(self) -> list[Tensor]:
        """Stacked parameters in :meth:`MLP.parameters` order
        (``layer0.weight, layer0.bias, layer1.weight, ...``)."""
        params: list[Tensor] = []
        for weight, bias in zip(self.weight_params, self.bias_params):
            params.append(weight)
            params.append(bias)
        return params

    def forward_array_cached(self, x):
        """Like :meth:`forward_array`, returning the cache the stacked
        backward needs — the member-stacked mirror of
        :meth:`MLP.forward_array_cached` (same kernels per ``(n, d)``
        slice, so activations and masks are bitwise identical per
        member)."""
        return active_backend().mlp_forward_cached(self.weights,
                                                   self.biases, x)

    def backward_array(self, grad, cache, input_grad: bool = True):
        """Stacked manual backward matching :meth:`MLP.backward_array`
        bit for bit per member.

        ``grad`` is ``(K, n, fan_out)``; every GEMM is one batched
        ``np.matmul`` whose per-member slices run the exact 2-D kernels
        of the per-member backward (transposes are views, exactly as
        ``weight.data.T`` is), and the bias gradient
        ``grad.sum(axis=1, keepdims=True)`` reduces each member's
        contiguous block exactly like the per-member
        ``_unbroadcast`` sum.  Activations cached from a *shared* 2-D
        input (the encoder case) produce the weight gradient through
        one broadcast ``np.matmul`` — again the same per-member GEMM.
        Gradients accumulate into the trainable Tensors; the input
        gradient is returned, or ``None`` with ``input_grad=False``.
        """
        kernel = active_backend()
        activations, masks = cache
        g = grad
        for i in range(len(self.weights) - 1, -1, -1):
            act = activations[i]
            act_t = act.transpose(0, 2, 1) if act.ndim == 3 else act.T
            _accumulate_array(self.weight_params[i],
                              kernel.matmul(act_t, g))
            _accumulate_array(self.bias_params[i],
                              g.sum(axis=1, keepdims=True))
            if i == 0 and not input_grad:
                return None
            g = kernel.matmul(g, self.weights[i].transpose(0, 2, 1))
            if i > 0:
                g = g * masks[i - 1]
        return g
