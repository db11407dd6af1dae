"""Minimal differentiable building blocks for the 1-D denoiser."""

from .tensor import Tensor
from .layers import (
    Attention,
    Conv1d,
    Dense,
    Embedding,
    GroupNorm,
    ResidualBlock,
    avg_pool1d,
    sinusoidal_embedding,
)
from .denoiser import Denoiser, PASS_CLASS, FAIL_CLASS, NULL_CLASS
from .optim import AdamW

__all__ = [
    "Tensor",
    "Dense", "Conv1d", "GroupNorm", "Attention", "Embedding", "ResidualBlock",
    "avg_pool1d", "sinusoidal_embedding",
    "Denoiser", "PASS_CLASS", "FAIL_CLASS", "NULL_CLASS",
    "AdamW",
]
