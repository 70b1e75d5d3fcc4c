"""Tests for the pluggable compute backend (repro.nn.backend).

The contract: the default backend's kernels ARE the pre-dispatch numpy
expressions (bitwise), every hot call site dispatches through the
active backend, and selection composes with the other per-process
contexts (``float32_inference``), survives nesting and restores on
error.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import nn
from repro.nn.backend import ComputeBackend, active_backend, compute_backend

_KERNELS = ("matmul", "affine", "mlp_forward", "mlp_forward_cached",
            "flat_scatter_add", "stacked_flat_scatter_add",
            "scatter_add", "sumsq", "member_sumsq", "adam_update")


class Recording(ComputeBackend):
    """Pass-through backend that counts every kernel it dispatches."""

    def __init__(self):
        self.calls: Counter = Counter()


def _recorded(name):
    reference = getattr(ComputeBackend, name)

    def kernel(self, *args):
        self.calls[name] += 1
        return reference(self, *args)

    return kernel


for _name in _KERNELS:
    setattr(Recording, _name, _recorded(_name))


@pytest.fixture
def arrays(rng):
    a = rng.standard_normal((16, 9))
    b = rng.standard_normal((9, 7))
    stacked_a = rng.standard_normal((3, 16, 9))
    stacked_b = rng.standard_normal((3, 9, 7))
    return a, b, stacked_a, stacked_b


class TestDefaultKernels:
    """The default backend is the bitwise-pinned reference."""

    def test_default_is_numpy_with_zero_tolerance(self):
        # The reference kernels themselves, not a subclass, and the
        # Recording backend below wraps every one of them.
        assert type(active_backend()) is ComputeBackend
        assert {name for name in vars(ComputeBackend)
                if not name.startswith("_")} == set(_KERNELS)

    def test_matmul_2d_and_3d(self, arrays):
        a, b, sa, sb = arrays
        kernel = active_backend()
        np.testing.assert_array_equal(kernel.matmul(a, b), a @ b)
        np.testing.assert_array_equal(kernel.matmul(sa, sb),
                                      np.matmul(sa, sb))

    def test_affine(self, arrays, rng):
        a, b, _, _ = arrays
        bias = rng.standard_normal(7)
        np.testing.assert_array_equal(
            active_backend().affine(a, b, bias), a @ b + bias)

    def test_mlp_forward_matches_expression(self, arrays, rng):
        a, _, _, _ = arrays
        weights = [rng.standard_normal((9, 11)),
                   rng.standard_normal((11, 4))]
        biases = [rng.standard_normal(11), rng.standard_normal(4)]
        x = a
        for i, (w, bias) in enumerate(zip(weights, biases)):
            x = x @ w + bias
            if i < len(weights) - 1:
                x = x * (x > 0.0)
        out = active_backend().mlp_forward(weights, biases, a)
        np.testing.assert_array_equal(out, x)
        cached_out, (activations, masks) = \
            active_backend().mlp_forward_cached(weights, biases, a)
        np.testing.assert_array_equal(cached_out, x)
        assert len(activations) == 2 and len(masks) == 1

    def test_scatter_add_matches_add_at(self, rng):
        kernel = active_backend()
        index = rng.integers(0, 6, size=40)
        values = rng.standard_normal((40, 5))
        reference = np.zeros((6, 5))
        np.add.at(reference, index, values)
        np.testing.assert_array_equal(
            kernel.scatter_add(index, values, 6), reference)
        flat = (index[:, None] * 5
                + np.arange(5, dtype=np.int64)).ravel()
        np.testing.assert_array_equal(
            kernel.flat_scatter_add(flat, values, 6), reference)

    def test_stacked_flat_scatter_add_per_member(self, rng):
        kernel = active_backend()
        size, n_rows, width = 3, 6, 5
        index = rng.integers(0, n_rows, size=40)
        values = rng.standard_normal((size, 40, width))
        flat = (index[:, None] * width
                + np.arange(width, dtype=np.int64)).ravel()
        tiled = np.concatenate([flat + k * n_rows * width
                                for k in range(size)])
        out = kernel.stacked_flat_scatter_add(tiled, values, n_rows)
        for k in range(size):
            np.testing.assert_array_equal(
                out[k], kernel.flat_scatter_add(flat, values[k], n_rows))


class TestContextNesting:
    def test_nesting_restores_previous(self):
        resting = active_backend()
        outer, inner = Recording(), Recording()
        with compute_backend(outer) as installed:
            assert installed is outer and active_backend() is outer
            with compute_backend(inner):
                assert active_backend() is inner
            assert active_backend() is outer
        assert active_backend() is resting

    def test_composes_with_float32_inference(self):
        resting = active_backend()
        custom = Recording()
        with nn.float32_inference():
            with compute_backend(custom):
                assert nn.inference_dtype() == np.float32
                assert active_backend() is custom
            assert nn.inference_dtype() == np.float32
            assert active_backend() is resting
        with compute_backend(custom):
            with nn.float32_inference():
                assert active_backend() is custom
            assert nn.inference_dtype() == np.float64
        assert active_backend() is resting

    def test_restores_on_error(self):
        resting = active_backend()
        with pytest.raises(RuntimeError):
            with compute_backend(Recording()):
                raise RuntimeError("boom")
        assert active_backend() is resting

    def test_rejects_non_backends(self):
        with pytest.raises(TypeError):
            compute_backend("threads:2")


class TestRoutedCallSites:
    """The NN layers actually dispatch through the active backend."""

    def test_mlp_forward_array_uses_backend(self, rng):
        mlp = nn.MLP(6, [8], 2, np.random.default_rng(0))
        x = rng.standard_normal((5, 6))
        baseline = mlp.forward_array(x)

        class Doubling(ComputeBackend):
            def mlp_forward(self, weights, biases, data):
                return 2.0 * super().mlp_forward(weights, biases, data)

        with compute_backend(Doubling()):
            np.testing.assert_array_equal(mlp.forward_array(x),
                                          2.0 * baseline)
        np.testing.assert_array_equal(mlp.forward_array(x), baseline)

    def test_taped_forward_backward_bitwise_under_threads(self, rng):
        mlp_a = nn.MLP(6, [8], 2, np.random.default_rng(1))
        mlp_b = nn.MLP(6, [8], 2, np.random.default_rng(1))
        x = rng.standard_normal((5, 6))
        out_a = mlp_a(nn.Tensor(x, requires_grad=True))
        out_a.sum().backward()
        with compute_backend(Recording()) as recording:
            out_b = mlp_b(nn.Tensor(x, requires_grad=True))
            out_b.sum().backward()
        assert recording.calls["mlp_forward_cached"] == 1
        assert recording.calls["matmul"] == 4  # input + weight grads
        np.testing.assert_array_equal(out_b.data, out_a.data)
        for pa, pb in zip(mlp_a.parameters(), mlp_b.parameters()):
            np.testing.assert_array_equal(pb.grad, pa.grad)

    def test_adam_step_bitwise_under_threads(self, rng):
        grads = rng.standard_normal((4, 4))
        param_a = nn.Tensor(rng.standard_normal((4, 4)),
                            requires_grad=True)
        param_b = nn.Tensor(param_a.data.copy(), requires_grad=True)
        opt_a = nn.Adam([param_a], lr=1e-2, weight_decay=1e-4)
        opt_b = nn.Adam([param_b], lr=1e-2, weight_decay=1e-4)
        for _ in range(3):
            param_a.grad = grads.copy()
            param_b.grad = grads.copy()
            opt_a.step()
            with compute_backend(Recording()) as recording:
                opt_b.step()
            assert recording.calls["adam_update"] == 1
        np.testing.assert_array_equal(param_a.data, param_b.data)

    def test_clip_grad_norm_dispatches(self, rng):
        param = nn.Tensor(rng.standard_normal((3, 3)),
                          requires_grad=True)
        param.grad = rng.standard_normal((3, 3))
        expected = float(np.sqrt((param.grad ** 2).sum()))
        with compute_backend(Recording()) as recording:
            norm = nn.clip_grad_norm([param], max_norm=1e9)
        assert recording.calls["sumsq"] == 1
        assert norm == expected
