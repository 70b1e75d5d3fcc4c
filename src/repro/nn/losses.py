"""Loss functions used by the COSTREAM cost models.

The paper trains the regression metrics (throughput, latencies) with the
Mean Squared Logarithmic Error, because the label ranges span several
orders of magnitude, and the binary metrics (query success, backpressure
occurrence) with cross entropy.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["msle_loss", "mse_loss", "bce_with_logits_loss"]


def msle_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared logarithmic error.

    ``pred`` is expected in *log1p space* already (the model regresses
    log1p(cost) directly, which is the standard trick for MSLE training);
    ``target`` is the raw, non-negative cost label.
    """
    target = np.asarray(target, dtype=np.float64)
    log_target = Tensor(np.log1p(target))
    diff = pred - log_target
    return (diff * diff).mean()


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Plain mean squared error on raw labels (ablation baseline)."""
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def bce_with_logits_loss(logits: Tensor, target: np.ndarray) -> Tensor:
    """Numerically-stable binary cross entropy on logits.

    Uses the identity ``bce = max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    target_t = Tensor(np.asarray(target, dtype=np.float64))
    relu_x = logits.relu()
    abs_x = logits.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    loss = relu_x - logits * target_t + softplus
    return loss.mean()


# ----------------------------------------------------------------------
# Array-mode loss + gradient (manual training step)
# ----------------------------------------------------------------------
def _loss_terms(pred: np.ndarray, target: np.ndarray, kind: str
                ) -> tuple[float, tuple]:
    """(loss value, the intermediates its gradient reuses) on raw
    arrays — the one copy of the array-mode loss arithmetic.

    Replays the exact op chain of the taped loss above, so the value
    is bitwise identical to ``loss.item()``.
    """
    target = np.asarray(target, dtype=np.float64)
    factor = 1.0 / pred.size
    if kind in ("msle", "mse"):
        reference = np.log1p(target) if kind == "msle" else target
        diff = pred - reference
        loss = (diff * diff).sum() * factor
        return float(loss), (factor, diff)
    if kind == "bce":
        relu_x = pred * (pred > 0.0)
        abs_x = np.abs(pred)
        exp_term = np.exp(np.clip(-abs_x, -60.0, 60.0))
        softplus = np.log(exp_term + 1.0)
        loss = (relu_x - pred * target + softplus).sum() * factor
        return float(loss), (factor, target, exp_term)
    raise ValueError(f"unknown loss kind {kind!r}")


def _loss_arrays(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    """The loss value alone — validation needs no gradient."""
    return _loss_terms(pred, target, kind)[0]


def _loss_and_grad_arrays(pred: np.ndarray, target: np.ndarray,
                          kind: str) -> tuple[float, np.ndarray]:
    """(loss value, d loss / d pred) on raw arrays.

    The gradient replays the tape's backward accumulation order, so
    both outputs are bitwise identical to ``loss.item()`` / the tape's
    gradient into ``pred``.
    """
    loss, terms = _loss_terms(pred, target, kind)
    if kind == "bce":
        factor, target, exp_term = terms
        # Contributions in the tape's accumulation order: the relu
        # mask, the product term, then the softplus chain.
        grad = np.array(factor * (pred > 0.0))
        grad += -factor * target
        grad += -(factor / (exp_term + 1.0) * exp_term) * np.sign(pred)
        return loss, grad
    factor, diff = terms
    # (d*d) routes the mean gradient to d through both operands.
    half = factor * diff
    return loss, half + half
