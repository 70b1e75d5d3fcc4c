"""Tests for Adam, the flat parameter arena and gradient clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (Adam, ComputeBackend, FlatParameters, Tensor,
                      clip_grad_norm, compute_backend)


def quadratic_step(optimizer_cls, steps=200, **kwargs):
    """Minimize (x - 3)^2 and return the final x."""
    x = Tensor(np.asarray([0.0]), requires_grad=True)
    optimizer = optimizer_cls([x], **kwargs)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (x - 3.0) ** 2
        loss.sum().backward()
        optimizer.step()
    return float(x.data[0])


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_step(Adam, lr=0.1) == pytest.approx(3.0, abs=1e-2)

    def test_converges_to_asymmetric_target(self):
        x = Tensor(np.asarray([0.0, 0.0]), requires_grad=True)
        target = Tensor(np.asarray([1.0, -2.0]))
        optimizer = Adam([x], lr=0.05)
        for _ in range(800):
            optimizer.zero_grad()
            ((x - target) ** 2).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(x.data, [1.0, -2.0], atol=1e-2)

    def test_skips_parameters_without_grad(self):
        x = Tensor(np.asarray([1.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        optimizer.step()  # no grad yet: must be a no-op
        assert x.data[0] == 1.0
        assert not optimizer._m.any() and not optimizer._v.any()

    def test_lr_attribute_can_be_rescheduled(self):
        x = Tensor(np.asarray([0.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.0)
        optimizer.zero_grad()
        ((x - 1.0) ** 2).sum().backward()
        optimizer.step()
        assert x.data[0] == 0.0  # lr 0 -> no movement
        optimizer.lr = 0.1
        optimizer.zero_grad()
        ((x - 1.0) ** 2).sum().backward()
        optimizer.step()
        assert x.data[0] != 0.0


class TestClipGradNorm:
    def test_no_clipping_below_threshold(self):
        x = Tensor(np.asarray([1.0]), requires_grad=True)
        x.grad = np.asarray([0.5])
        norm = clip_grad_norm([x], max_norm=10.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(x.grad, [0.5])

    def test_clipping_rescales_to_max_norm(self):
        x = Tensor(np.asarray([3.0, 4.0]), requires_grad=True)
        x.grad = np.asarray([3.0, 4.0])
        clip_grad_norm([x], max_norm=1.0)
        assert np.linalg.norm(x.grad) == pytest.approx(1.0)

    def test_handles_missing_grads(self):
        x = Tensor(np.asarray([1.0]), requires_grad=True)
        assert clip_grad_norm([x], max_norm=1.0) == 0.0


class _PerTensorAdam:
    """The per-tensor Adam loop the flat arena replaced: its own moment
    and scratch arrays per parameter, skipping parameters without a
    gradient — the reference :class:`Adam` must equal bit for bit."""

    def __init__(self, params, lr, weight_decay):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.s1 = [np.empty_like(p.data) for p in self.params]
        self.s2 = [np.empty_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        bias1 = 1.0 - 0.9 ** self.step_count
        bias2 = 1.0 - 0.999 ** self.step_count
        for param, m, v, s1, s2 in zip(self.params, self.m, self.v,
                                       self.s1, self.s2):
            if param.grad is None:
                continue
            ComputeBackend().adam_update(
                param.data, param.grad, m, v, s1, s2, 0.9, 0.999, bias1,
                bias2, 1e-8, self.lr, self.weight_decay)


class _CountingBackend(ComputeBackend):
    def __init__(self):
        self.updates = 0

    def adam_update(self, *args):
        self.updates += 1
        return super().adam_update(*args)


def _touched_runs(touched):
    """Maximal runs of consecutive True entries."""
    return sum(1 for i, t in enumerate(touched)
               if t and (i == 0 or not touched[i - 1]))


class TestFlatParameters:
    """A flat arena step over random untouched subsets equals the
    per-tensor loop, bit for bit (the sign of zero included)."""

    SHAPES = [(1, 7, 5), (1, 1, 5), (1, 5, 5), (1, 1, 5), (1, 10, 1),
              (1, 1, 1), (1, 3, 4), (1, 1, 4)]

    def _pair(self, rng):
        arrays = [rng.standard_normal(shape) for shape in self.SHAPES]
        arena = FlatParameters(arrays)
        separate = [Tensor(array.copy(), requires_grad=True)
                    for array in arrays]
        return arena, separate

    def test_views_share_one_buffer_each(self, rng):
        arena, separate = self._pair(rng)
        for i, (param, reference) in enumerate(zip(arena, separate)):
            assert np.shares_memory(param.data, arena.data)
            np.testing.assert_array_equal(param.data, reference.data)
            arena.accumulate(i, np.ones(param.data.shape))
            assert param.grad is arena.grads[i]
            assert np.shares_memory(param.grad, arena.grad)

    def test_flat_step_equals_per_tensor_loop(self, rng):
        arena, separate = self._pair(rng)
        flat = Adam(arena, lr=1e-2, weight_decay=1e-4)
        reference = _PerTensorAdam(separate, lr=1e-2, weight_decay=1e-4)
        for step in range(25):
            flat.zero_grad()
            for param in separate:
                param.zero_grad()
            touched = (rng.random(len(self.SHAPES)) < 0.7).tolist()
            for i, hit in enumerate(touched):
                if not hit:
                    continue
                for _ in range(int(rng.integers(1, 3))):
                    grad = rng.standard_normal(self.SHAPES[i])
                    grad[rng.random(grad.shape) < 0.2] = -0.0
                    arena.accumulate(i, grad)
                    separate[i]._accumulate(grad)
            assert clip_grad_norm(arena, 1.5) \
                == clip_grad_norm(separate, 1.5)
            backend = _CountingBackend()
            with compute_backend(backend):
                flat.step()
            reference.step()
            assert backend.updates == _touched_runs(touched)
            for i, (param, expected) in enumerate(zip(arena, separate)):
                assert param.data.tobytes() == expected.data.tobytes()
                m, v = flat.moments()[i]
                assert m.tobytes() == reference.m[i].tobytes()
                assert v.tobytes() == reference.v[i].tobytes()

    def test_gradient_assigned_outside_the_arena_steps_alone(self, rng):
        arena, separate = self._pair(rng)
        flat = Adam(arena, lr=1e-2)
        reference = _PerTensorAdam(separate, lr=1e-2, weight_decay=0.0)
        for i in range(len(self.SHAPES)):
            grad = rng.standard_normal(self.SHAPES[i])
            if i == 3:
                arena[i].grad = grad.copy()
            else:
                arena.accumulate(i, grad)
            separate[i].grad = grad
        backend = _CountingBackend()
        with compute_backend(backend):
            flat.step()
        reference.step()
        assert backend.updates == 3  # run, the outside gradient, run
        for param, expected in zip(arena, separate):
            assert param.data.tobytes() == expected.data.tobytes()
