"""Tests for the loss functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, bce_with_logits_loss, mse_loss, msle_loss
from repro.nn.losses import _loss_and_grad_arrays, _loss_arrays


class TestMSLE:
    def test_perfect_prediction_is_zero(self):
        target = np.asarray([10.0, 100.0, 1000.0])
        pred = Tensor(np.log1p(target))
        assert msle_loss(pred, target).item() == pytest.approx(0.0)

    def test_matches_manual_formula(self):
        target = np.asarray([5.0, 50.0])
        pred_log = np.asarray([1.0, 4.5])
        expected = np.mean((pred_log - np.log1p(target)) ** 2)
        loss = msle_loss(Tensor(pred_log), target)
        assert loss.item() == pytest.approx(expected)

    def test_scale_invariance_property(self):
        # MSLE of (c, 2c) should not depend much on c's magnitude,
        # unlike plain MSE — the reason the paper picked it.
        small = msle_loss(Tensor(np.log1p(np.asarray([200.0]))),
                          np.asarray([100.0])).item()
        large = msle_loss(Tensor(np.log1p(np.asarray([200000.0]))),
                          np.asarray([100000.0])).item()
        assert large == pytest.approx(small, rel=0.05)

    def test_gradient_flows(self):
        pred = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
        msle_loss(pred, np.asarray([3.0, 4.0])).backward()
        assert pred.grad is not None
        assert np.all(np.isfinite(pred.grad))


class TestMSE:
    def test_zero_for_exact(self):
        pred = Tensor(np.asarray([1.0, 2.0]))
        assert mse_loss(pred, np.asarray([1.0, 2.0])).item() == 0.0

    def test_value(self):
        pred = Tensor(np.asarray([0.0, 0.0]))
        assert mse_loss(pred, np.asarray([2.0, 4.0])).item() == \
            pytest.approx(10.0)


class TestBCE:
    def test_confident_correct_is_small(self):
        logits = Tensor(np.asarray([10.0, -10.0]))
        loss = bce_with_logits_loss(logits, np.asarray([1.0, 0.0]))
        assert loss.item() < 1e-3

    def test_confident_wrong_is_large(self):
        logits = Tensor(np.asarray([10.0]))
        loss = bce_with_logits_loss(logits, np.asarray([0.0]))
        assert loss.item() > 5.0

    def test_matches_reference_formula(self):
        logits = np.asarray([0.3, -1.2, 2.0])
        labels = np.asarray([1.0, 0.0, 1.0])
        prob = 1 / (1 + np.exp(-logits))
        expected = -np.mean(labels * np.log(prob)
                            + (1 - labels) * np.log(1 - prob))
        loss = bce_with_logits_loss(Tensor(logits), labels)
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_numerically_stable_for_huge_logits(self):
        logits = Tensor(np.asarray([500.0, -500.0]), requires_grad=True)
        loss = bce_with_logits_loss(logits, np.asarray([0.0, 1.0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(logits.grad))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_bce_is_nonnegative(logit_values, label_values):
    n = min(len(logit_values), len(label_values))
    loss = bce_with_logits_loss(
        Tensor(np.asarray(logit_values[:n], dtype=np.float64)),
        np.asarray(label_values[:n], dtype=np.float64))
    assert loss.item() >= -1e-12


_TAPED = {"msle": msle_loss, "mse": mse_loss, "bce": bce_with_logits_loss}


@pytest.mark.parametrize("kind", ["msle", "mse", "bce"])
def test_loss_only_equals_loss_and_grad_value(kind):
    """Validation's loss-only kernel is bitwise the value half of the
    training kernel, and both replay the taped loss (value and
    gradient) bit for bit."""
    rng = np.random.default_rng(4)
    for n in (1, 7, 64):
        pred = rng.normal(scale=3.0, size=n)
        target = (rng.integers(0, 2, size=n).astype(np.float64)
                  if kind == "bce" else rng.exponential(50.0, size=n))
        loss, grad = _loss_and_grad_arrays(pred, target, kind)
        assert _loss_arrays(pred, target, kind) == loss
        taped_pred = Tensor(pred.copy(), requires_grad=True)
        taped = _TAPED[kind](taped_pred, target)
        taped.backward()
        assert taped.item() == loss
        np.testing.assert_array_equal(taped_pred.grad, grad)
    with pytest.raises(ValueError, match="unknown loss kind"):
        _loss_arrays(np.zeros(2), np.zeros(2), "hinge")
