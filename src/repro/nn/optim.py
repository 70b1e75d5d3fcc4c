"""Gradient-descent optimizers for the numpy NN substrate."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .backend import active_backend

__all__ = ["SGD", "Adam", "StackedAdam", "clip_grad_norm",
           "stacked_clip_grad_norm"]


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm."""
    kernel = active_backend()
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += kernel.sumsq(param.grad)
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm


class SGD:
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()


def stacked_clip_grad_norm(params: Sequence[Tensor], max_norm: float,
                           size: int) -> np.ndarray:
    """Per-member gradient clipping over ``(size, ...)`` stacked params.

    The member-stacked mirror of :func:`clip_grad_norm`: member ``k``'s
    norm sums ``(param.grad[k] ** 2).sum()`` over the params in the
    same order, and only members exceeding ``max_norm`` have their
    gradient slices scaled.  Each member's squared sum reduces its own
    contiguous block (the tail axes of a C-contiguous stack), so norms
    and scaled gradients are bitwise identical to clipping the members
    one at a time.  With ``size == 1`` the params may also be plain
    member-shaped Tensors (the taped training step); that case is
    :func:`clip_grad_norm` itself, which skips the per-member array
    bookkeeping.  Returns the ``(size,)`` pre-clip norms.
    """
    if size == 1:
        return np.array([clip_grad_norm(params, max_norm)])
    kernel = active_backend()
    totals = np.zeros(size)
    for param in params:
        if param.grad is not None:
            totals += kernel.member_sumsq(param.grad, size)
    norms = np.sqrt(totals)
    clip = (norms > max_norm) & (norms > 0.0)
    if clip.any():
        # One full per-member scale vector: unclipped members scale by
        # 1.0 (``x * 1.0 == x``), so no gradient is copied through a
        # boolean mask.
        scales = np.divide(max_norm, norms, out=np.ones(size),
                           where=clip)
        for param in params:
            if param.grad is not None:
                param.grad *= scales.reshape(
                    (-1,) + (1,) * (param.grad.ndim - 1))
    return norms


class Adam:
    """Adam optimizer (Kingma & Ba) with decoupled weight decay."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Scratch buffers so step() allocates nothing; every in-place
        # expression below computes exactly what the temporaries did.
        self._s1 = [np.empty_like(p.data) for p in self.params]
        self._s2 = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        kernel = active_backend()
        for param, m, v, s1, s2 in zip(self.params, self._m, self._v,
                                       self._s1, self._s2):
            if param.grad is None:
                continue
            kernel.adam_update(param.data, param.grad, m, v, s1, s2,
                               self.beta1, self.beta2, bias1, bias2,
                               self.eps, self.lr, self.weight_decay)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()


class StackedAdam(Adam):
    """Adam over ``(K, ...)`` member-stacked parameter Tensors.

    Adam is elementwise, so stepping a stacked parameter updates every
    member's slice with exactly the arithmetic (and the exact in-place
    scratch-buffer expressions) a per-member :class:`Adam` would apply —
    member ``k``'s parameters, first and second moments after ``t``
    steps are bitwise identical to running K separate optimizers for
    ``t`` steps each.  The subclass only adds the member axis
    bookkeeping: :meth:`member_state` exposes one member's slices for
    the equivalence tests, and ``size`` records K.
    """

    def __init__(self, params: Sequence[Tensor], size: int,
                 lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr=lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
        self.size = size
        for param in self.params:
            if param.data.shape[0] != size:
                raise ValueError(
                    f"stacked parameter leads with {param.data.shape[0]} "
                    f"members, expected {size}")

    def member_state(self, member: int) -> list[tuple[np.ndarray,
                                                      np.ndarray]]:
        """Per-parameter ``(m, v)`` moment slices of one member."""
        return [(m[member], v[member])
                for m, v in zip(self._m, self._v)]
