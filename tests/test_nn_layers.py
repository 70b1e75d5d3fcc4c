"""Tests for Module/Linear/MLP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, Tensor


class TestModuleDiscovery:
    def test_linear_has_two_parameters(self, rng):
        layer = Linear(4, 3, rng)
        params = layer.parameters()
        assert len(params) == 2
        assert params[0].shape == (4, 3)
        assert params[1].shape == (3,)

    def test_mlp_parameter_count(self, rng):
        mlp = MLP(5, [8, 8], 2, rng)
        # 3 Linear layers, 2 parameters each.
        assert len(mlp.parameters()) == 6

    def test_nested_dict_of_modules_is_discovered(self, rng):
        class Holder(Module):
            def __init__(self):
                self.layers = {"a": Linear(2, 2, rng),
                               "b": Linear(2, 2, rng)}

        assert len(Holder().parameters()) == 4

    def test_shared_parameter_counted_once(self, rng):
        class Holder(Module):
            def __init__(self):
                self.layer = Linear(2, 2, rng)
                self.alias = self.layer

        assert len(Holder().parameters()) == 2

    def test_zero_grad_clears(self, rng):
        layer = Linear(2, 1, rng)
        out = layer(Tensor(np.ones((3, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestStateDict:
    def test_round_trip(self, rng):
        mlp = MLP(3, [4], 1, rng)
        state = mlp.state_dict()
        other = MLP(3, [4], 1, np.random.default_rng(999))
        other.load_state_dict(state)
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(mlp(x).numpy(), other(x).numpy())

    def test_shape_mismatch_raises(self, rng):
        mlp = MLP(3, [4], 1, rng)
        other = MLP(3, [5], 1, rng)
        with pytest.raises(ValueError):
            other.load_state_dict(mlp.state_dict())

    def test_length_mismatch_raises(self, rng):
        mlp = MLP(3, [4], 1, rng)
        other = MLP(3, [4, 4], 1, rng)
        with pytest.raises(ValueError):
            other.load_state_dict(mlp.state_dict())

    def test_state_dict_is_a_copy(self, rng):
        mlp = MLP(3, [4], 1, rng)
        state = mlp.state_dict()
        state["p0"][:] = 0.0
        assert not np.allclose(mlp.parameters()[0].data, 0.0)


class TestForward:
    def test_mlp_output_shape(self, rng):
        mlp = MLP(6, [10], 3, rng)
        out = mlp(Tensor(np.ones((7, 6))))
        assert out.shape == (7, 3)

    def test_mlp_is_nonlinear(self, rng):
        mlp = MLP(1, [16, 16], 1, rng)
        x = np.linspace(-2, 2, 9).reshape(-1, 1)
        y = mlp(Tensor(x)).numpy().ravel()
        # A linear function would satisfy y = a x + b exactly.
        coeffs = np.polyfit(x.ravel(), y, 1)
        residual = y - np.polyval(coeffs, x.ravel())
        assert np.abs(residual).max() > 1e-9

    def test_gradients_reach_all_parameters(self, rng):
        mlp = MLP(4, [5], 2, rng)
        out = mlp(Tensor(rng.normal(size=(3, 4)))).sum()
        out.backward()
        for param in mlp.parameters():
            assert param.grad is not None

