"""Pluggable compute backend for the numpy NN substrate.

Every hot kernel of the cost-model stack — the 2-D and batched-3-D
GEMMs, the fused affine/MLP forwards, the bincount scatter-adds, and
the Adam/clip inner arithmetic — dispatches through the *active
backend*, a small object exposing one method per kernel.  The default
:class:`ComputeBackend` implements each kernel with exactly the numpy
expression the call sites used before the dispatch layer existed, so
the default path is **bitwise identical** to the pre-backend code
(pinned by the equivalence bench).

A subclass overrides any subset of the kernels and is installed with
the :class:`compute_backend` context manager, which mirrors
:class:`repro.nn.float32_inference`.  perfbench's ``TimingBackend``
times every kernel this way::

    with compute_backend(TimingBackend(tracer)):
        decisions = batcher.decide(requests)

The selection is a per-process global (like the ``float32_inference``
dtype).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ComputeBackend", "active_backend", "compute_backend"]


class ComputeBackend:
    """Reference numpy kernels; the narrow interface backends override.

    Each method is the exact expression its call site used before the
    dispatch layer — subclasses may substitute faster implementations,
    but the base class *is* the bitwise-pinned reference.
    """

    # ------------------------------------------------------------------
    # GEMM kernels
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """2-D or batched-3-D matrix product (``a @ b``)."""
        return np.matmul(a, b)

    def affine(self, x: np.ndarray, weight: np.ndarray,
               bias: np.ndarray) -> np.ndarray:
        """Fused affine map ``x @ weight + bias`` (2-D or stacked)."""
        return np.matmul(x, weight) + bias

    def mlp_forward(self, weights: Sequence[np.ndarray],
                    biases: Sequence[np.ndarray],
                    x: np.ndarray) -> np.ndarray:
        """Fused MLP forward over per-layer weight arrays.

        The member-stacked inference forward
        (``StackedMLP.forward_array``) — ``x * (x > 0)`` is the exact
        relu expression the taped ``MLP.forward`` uses.
        """
        last = len(weights) - 1
        for i, (weight, bias) in enumerate(zip(weights, biases)):
            x = np.matmul(x, weight) + bias
            if i < last:
                x = x * (x > 0.0)
        return x

    def mlp_forward_cached(self, weights: Sequence[np.ndarray],
                           biases: Sequence[np.ndarray], x: np.ndarray):
        """:meth:`mlp_forward` returning the manual-backward cache
        (layer inputs and relu masks)."""
        activations = [x]
        masks = []
        last = len(weights) - 1
        for i, (weight, bias) in enumerate(zip(weights, biases)):
            x = np.matmul(x, weight) + bias
            if i < last:
                mask = x > 0.0
                x = x * mask
                masks.append(mask)
                activations.append(x)
        return x, (activations, masks)

    # ------------------------------------------------------------------
    # Scatter-add kernels (bincount-based; accumulate in input order,
    # bitwise identical to the ``np.add.at`` seed kernel).
    # ------------------------------------------------------------------
    def flat_scatter_add(self, flat_index: np.ndarray,
                         values: np.ndarray, n_rows: int) -> np.ndarray:
        """Scatter-add of ``(E, width)`` values via a precomputed flat
        index."""
        width = values.shape[-1]
        out = np.bincount(flat_index, weights=values.ravel(),
                          minlength=n_rows * width)
        return out.reshape(n_rows, width)

    def stacked_flat_scatter_add(self, flat_index: np.ndarray,
                                 values: np.ndarray,
                                 n_rows: int) -> np.ndarray:
        """Member-stacked scatter-add: ``(K, E, width)`` values into
        ``(K, n_rows, width)`` with one bincount."""
        size, _, width = values.shape
        out = np.bincount(flat_index, weights=values.reshape(-1),
                          minlength=size * n_rows * width)
        return out.reshape(size, n_rows, width)

    def scatter_add(self, index: np.ndarray, values: np.ndarray,
                    n_rows: int) -> np.ndarray:
        """``out[index[i]] += values[i]`` accumulating in input order."""
        if values.ndim == 1:
            return np.bincount(index, weights=values, minlength=n_rows)
        flat = values.reshape(values.shape[0], -1)
        width = flat.shape[1]
        flat_index = (index[:, None] * width
                      + np.arange(width, dtype=np.int64)).ravel()
        out = np.bincount(flat_index, weights=flat.ravel(),
                          minlength=n_rows * width)
        return out.reshape((n_rows,) + values.shape[1:])

    # ------------------------------------------------------------------
    # Optimizer inner arithmetic (elementwise; kept behind the backend
    # so an array-module backend can take the whole step).
    # ------------------------------------------------------------------
    def sumsq(self, array: np.ndarray) -> float:
        """``(array ** 2).sum()`` — the clip-norm reduction."""
        return float((array ** 2).sum())

    def member_sumsq(self, array: np.ndarray, size: int) -> np.ndarray:
        """Per-member squared sums over a ``(size, ...)`` stack."""
        return (array ** 2).reshape(size, -1).sum(axis=1)

    def adam_update(self, param: np.ndarray, grad: np.ndarray,
                    m: np.ndarray, v: np.ndarray, s1: np.ndarray,
                    s2: np.ndarray, beta1: float, beta2: float,
                    bias1: float, bias2: float, eps: float, lr: float,
                    weight_decay: float) -> None:
        """One Adam parameter update, in place.

        The exact in-place scratch-buffer expression sequence of the
        pre-backend ``Adam.step`` — moments, parameter and scratch
        buffers are mutated exactly as before.
        """
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=s1)
        m += s1
        v *= beta2
        np.multiply(grad, grad, out=s1)
        s1 *= 1.0 - beta2
        v += s1
        np.divide(m, bias1, out=s1)          # m_hat
        np.divide(v, bias2, out=s2)          # v_hat
        np.sqrt(s2, out=s2)
        s2 += eps
        np.divide(s1, s2, out=s1)            # update
        if weight_decay:
            np.multiply(param, weight_decay, out=s2)
            s1 += s2
        s1 *= lr
        param -= s1


_ACTIVE_BACKEND = [ComputeBackend()]


def active_backend() -> ComputeBackend:
    """The backend the NN substrate currently dispatches to."""
    return _ACTIVE_BACKEND[0]


class compute_backend:
    """Context manager installing a :class:`ComputeBackend` instance.

    Mirrors :class:`repro.nn.float32_inference`: the selection is a
    per-process global, and nesting restores the previous backend on
    exit, even on error::

        with compute_backend(MyBackend()):
            ...
    """

    def __init__(self, backend: ComputeBackend):
        if not isinstance(backend, ComputeBackend):
            raise TypeError(f"expected a ComputeBackend instance, got "
                            f"{type(backend).__name__}")
        self.backend = backend

    def __enter__(self) -> ComputeBackend:
        self._prev = _ACTIVE_BACKEND[0]
        _ACTIVE_BACKEND[0] = self.backend
        return self.backend

    def __exit__(self, *exc) -> None:
        _ACTIVE_BACKEND[0] = self._prev
