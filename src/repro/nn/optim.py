"""Gradient-descent optimizers for the numpy NN substrate."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .backend import active_backend

__all__ = ["SGD", "Adam", "clip_grad_norm"]


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
