"""Numpy neural-network substrate (autodiff, layers, optimizers, losses)."""

from .autodiff import (Tensor, concat, float32_inference, gather,
                       inference_dtype, is_grad_enabled, no_grad,
                       scatter_rows, segment_sum, stack)
from .backend import ComputeBackend, active_backend, compute_backend
from .layers import MLP, Linear, Module, StackedMLP
from .losses import bce_with_logits_loss, mse_loss, msle_loss
from .optim import Adam, FlatParameters, clip_grad_norm

__all__ = [
    "Tensor", "concat", "gather", "scatter_rows", "segment_sum", "stack",
    "no_grad", "is_grad_enabled", "float32_inference", "inference_dtype",
    "ComputeBackend", "active_backend", "compute_backend",
    "Module", "Linear", "MLP", "StackedMLP",
    "msle_loss", "mse_loss", "bce_with_logits_loss",
    "Adam", "FlatParameters", "clip_grad_norm",
]
