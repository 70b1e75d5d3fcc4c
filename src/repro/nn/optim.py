"""Gradient-descent optimizer, gradient clipping and the flat parameter
arena for the numpy NN substrate."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .backend import active_backend

__all__ = ["Adam", "FlatParameters", "clip_grad_norm"]


def _bounds(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive slots of the given sizes."""
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    return list(zip([0] + ends[:-1], ends))


class FlatParameters(list):
    """Parameter Tensors whose values and gradients are views of one
    flat float64 buffer each (after FSDP's ``FlatParameter``).

    Tensor ``i`` owns ``data[start:stop]`` and ``grad[start:stop]`` for
    ``(start, stop) = bounds[i]``, reshaped to its array's shape; the
    arrays are copied in once.  A tensor's ``grad`` is ``None`` until
    something accumulates into it (:meth:`accumulate`) and is then its
    view :attr:`grads` ``[i]``, so ``zero_grad`` allocates nothing and
    every later step writes the same memory.  :class:`Adam` steps each
    run of consecutive tensors with a gradient as one flat slice.
    """

    def __init__(self, arrays: Sequence[np.ndarray]):
        self.bounds = _bounds([array.size for array in arrays])
        self.data = np.empty(self.bounds[-1][1] if self.bounds else 0)
        self.grad = np.zeros_like(self.data)
        self.grads: list[np.ndarray] = []
        tensors = []
        for array, (start, stop) in zip(arrays, self.bounds):
            view = self.data[start:stop].reshape(array.shape)
            np.copyto(view, array)
            tensors.append(Tensor(view, requires_grad=True))
            self.grads.append(self.grad[start:stop].reshape(array.shape))
        super().__init__(tensors)

    def accumulate(self, index: int, grad: np.ndarray) -> None:
        """Accumulate a raw gradient into tensor ``index``, like
        ``Tensor._accumulate``: the first touch copies (``+=`` into
        zeros would turn -0.0 into 0.0), later ones add in place."""
        param = self[index]
        if param.grad is None:
            view = self.grads[index]
            np.copyto(view, grad)
            param.grad = view
        else:
            param.grad += grad


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    One squared sum per tensor with a gradient, added in parameter
    order (on the views of a :class:`FlatParameters` arena, so the
    reduction is the same as on separate arrays); parameters without a
    gradient are skipped.
    """
    kernel = active_backend()
    grads = [param.grad for param in params if param.grad is not None]
    total = 0.0
    for grad in grads:
        total += kernel.sumsq(grad)
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


class Adam:
    """Adam optimizer (Kingma & Ba) with decoupled weight decay.

    The moments and both scratch arrays are four flat buffers with one
    slot per parameter, in ``params`` order.  When ``params`` is a
    :class:`FlatParameters` arena the slots are the arena's bounds, and
    :meth:`step` runs one ``adam_update`` per maximal run of
    consecutive tensors whose gradient is their arena view — one call
    per step when every tensor has a gradient.  Any other parameter
    (the tape's, or a gradient assigned from outside the arena) is a
    run of its own, on shaped views of its slot.  Elementwise IEEE
    arithmetic gives every element the same bits in either form.  A
    parameter without a gradient keeps its value and moments.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._arena = params if isinstance(params, FlatParameters) \
            else None
        self._bounds = self._arena.bounds if self._arena is not None \
            else _bounds([param.data.size for param in self.params])
        size = self._bounds[-1][1] if self._bounds else 0
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        # Scratch buffers so step() allocates nothing; every in-place
        # expression of the update computes exactly what the
        # temporaries did.
        self._s1 = np.empty(size)
        self._s2 = np.empty(size)
        # Parameters outside an arena step one at a time on their slot
        # views, built once.
        self._slots = None if self._arena is not None else \
            [self._slot(i) for i in range(len(self.params))]

    def _slot(self, i: int) -> tuple[np.ndarray, ...]:
        """Parameter ``i``'s ``(m, v, s1, s2)`` views, shaped like it."""
        start, stop = self._bounds[i]
        shape = self.params[i].data.shape
        return tuple(buffer[start:stop].reshape(shape)
                     for buffer in (self._m, self._v, self._s1, self._s2))

    def moments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-parameter ``(m, v)`` views, shaped like the parameters
        (checkpoints read and write the moments through them)."""
        return [self._slot(i)[:2] for i in range(len(self.params))]

    def _runs(self):
        """The ``(param, grad, m, v, s1, s2)`` operands of one step, one
        tuple per run of parameters updated together."""
        if self._arena is None:
            for param, slot in zip(self.params, self._slots):
                if param.grad is not None:
                    yield (param.data, param.grad, *slot)
            return
        arena = self._arena
        flat = (arena.data, arena.grad, self._m, self._v, self._s1,
                self._s2)
        first = None
        for i, param in enumerate(self.params):
            if param.grad is arena.grads[i]:
                if first is None:
                    first = self._bounds[i][0]
                last = self._bounds[i][1]
                continue
            if first is not None:
                yield tuple(buffer[first:last] for buffer in flat)
                first = None
            if param.grad is not None:
                yield (param.data, param.grad, *self._slot(i))
        if first is not None:
            yield tuple(buffer[first:last] for buffer in flat)

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        kernel = active_backend()
        for param, grad, m, v, s1, s2 in self._runs():
            kernel.adam_update(param, grad, m, v, s1, s2,
                               self.beta1, self.beta2, bias1, bias2,
                               self.eps, self.lr, self.weight_decay)

    def zero_grad(self) -> None:
        """Mark every parameter untouched (arena gradients keep their
        memory: the next accumulation copies into it)."""
        for param in self.params:
            param.zero_grad()
