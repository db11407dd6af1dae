"""Layers for the 1-D denoiser: dense, conv, group norm, attention.

Weights are initialized with uniform fan-in scaling from an explicit
numpy Generator, so a seed pins the whole network.  Activations live in
(batch, channels, width) layout.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ShapeMismatch
from .tensor import Tensor, concat, pad_channels


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


CHECKPOINT_VERSION = 1


class Module:
    checkpoint_args: tuple[str, ...] = ()   # constructor arguments a checkpoint records

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for attr, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out[attr] = value
            elif isinstance(value, Module):
                for k, v in value.named_params().items():
                    out[f"{attr}.{k}"] = v
        return out

    # -- checkpointing ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write an .npz: a `__meta__` JSON blob of the format version and the
        constructor arguments, then each parameter array under its name."""
        meta = {"version": CHECKPOINT_VERSION,
                **{arg: getattr(self, arg) for arg in self.checkpoint_args}}
        arrays = {name: p.data for name, p in self.named_params().items()}
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)

    @classmethod
    def load(cls, path: str | Path):
        """Rebuild a module written by `save`; ValueError for another format
        version or a parameter of another shape."""
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["__meta__"]).decode())
            if meta["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['version']}")
            model = cls._blank(**{arg: meta[arg] for arg in cls.checkpoint_args})
            for name, p in model.named_params().items():
                stored = blob[name]
                if stored.shape != p.data.shape:
                    raise ValueError(f"shape mismatch for parameter {name}")
                p.data = stored.astype(np.float64)
        return model

    @classmethod
    def _blank(cls, **args):
        """A module of the recorded shape, for `load` to fill."""
        return cls(**args)


class Dense(Module):
    """Affine map over the trailing axis."""

    def __init__(self, rng, dim_in: int, dim_out: int, zero_init: bool = False):
        if zero_init:
            w = np.zeros((dim_in, dim_out))
            b = np.zeros(dim_out)
        else:
            w = _uniform(rng, (dim_in, dim_out), dim_in)
            b = _uniform(rng, (dim_out,), dim_in)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(b, requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


class Conv1d(Module):
    """Same-padded 1-D convolution, stride 1, odd kernel."""

    def __init__(self, rng, c_in: int, c_out: int, kernel: int = 3):
        assert kernel % 2 == 1
        self.kernel = kernel
        fan_in = c_in * kernel
        self.w = Tensor(_uniform(rng, (c_out, c_in, kernel), fan_in), requires_grad=True)
        self.b = Tensor(_uniform(rng, (c_out,), fan_in), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        w, b, k = self.w, self.b, self.kernel
        pad = k // 2
        xd = x.data
        batch, c_in, width = xd.shape
        c_out = w.shape[0]
        # im2col: contiguous (B*W, C*k) patches so the product hits BLAS.
        # Tap j reads position w + j - pad; taps past either edge stay zero.
        patches = np.zeros((batch, width, c_in, k))
        xt = xd.transpose(0, 2, 1)
        for j in range(k):
            lo, hi = max(0, pad - j), min(width, width + pad - j)
            if lo < hi:
                patches[:, lo:hi, :, j] = xt[:, lo + j - pad:hi + j - pad]
        patches = patches.reshape(batch * width, c_in * k)
        w2 = w.data.reshape(c_out, c_in * k)
        out_data = (patches @ w2.T).reshape(batch, width, c_out)
        out_data = out_data.transpose(0, 2, 1) + b.data[None, :, None]

        def backward(g):
            g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(batch * width, c_out)
            if w.requires_grad:
                w._accumulate((g2.T @ patches).reshape(c_out, c_in, k))
            if b.requires_grad:
                b._accumulate(g.sum(axis=(0, 2)))
            if x.requires_grad:
                dwin = (g2 @ w2).reshape(batch, width, c_in, k).transpose(0, 2, 1, 3)
                dx_pad = np.zeros((batch, c_in, width + 2 * pad))
                for j in range(k):
                    dx_pad[:, :, j:j + width] += dwin[:, :, :, j]
                x._accumulate(dx_pad[:, :, pad:pad + width])

        return Tensor._make(out_data, (x, w, b), backward)


class GroupNorm(Module):
    """Normalize per (sample, channel-group) over channels x width."""

    def __init__(self, channels: int, groups: int, eps: float = 1e-5):
        if channels % groups != 0:
            raise ShapeMismatch(f"{groups} groups do not divide {channels} channels")
        self.groups = groups
        self.eps = eps
        self.gamma = Tensor(np.ones((channels, 1)), requires_grad=True)
        self.beta = Tensor(np.zeros((channels, 1)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        batch, channels, width = x.shape
        xg = x.reshape(batch, self.groups, -1)
        mu = xg.mean(axis=2, keepdims=True)
        centered = xg - mu
        var = centered.pow(2.0).mean(axis=2, keepdims=True)
        normed = centered * (var + self.eps).pow(-0.5)
        return normed.reshape(batch, channels, width) * self.gamma + self.beta


class Attention(Module):
    """Single-head self-attention over width positions, with residual."""

    def __init__(self, rng, channels: int, groups: int):
        self.channels = channels
        self.norm = GroupNorm(channels, groups)
        self.qkv = Conv1d(rng, channels, 3 * channels, kernel=1)
        self.proj = Conv1d(rng, channels, channels, kernel=1)

    def __call__(self, x: Tensor) -> Tensor:
        c = self.channels
        h = self.norm(x)
        qkv = self.qkv(h)
        q, k, v = qkv[:, :c, :], qkv[:, c:2 * c, :], qkv[:, 2 * c:, :]
        scores = q.swapaxes(1, 2) @ k * (1.0 / np.sqrt(c))   # (B, W, W)
        attn = scores.softmax()
        out = v @ attn.swapaxes(1, 2)                         # (B, C, W)
        return x + self.proj(out)


class Embedding(Module):
    def __init__(self, rng, num: int, dim: int):
        self.table = Tensor(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(num, dim)),
                            requires_grad=True)

    def __call__(self, idx: np.ndarray) -> Tensor:
        return self.table[np.asarray(idx, dtype=np.intp)]


class ResidualBlock(Module):
    """norm -> silu -> conv, add projected embedding, norm -> silu -> conv.

    The shortcut is parameter-free: channel zero-padding when widening,
    a channel slice when narrowing.
    """

    def __init__(self, rng, c_in: int, c_out: int, emb_dim: int, groups: int):
        self.c_in = c_in
        self.c_out = c_out
        self.norm1 = GroupNorm(c_in, groups)
        self.conv1 = Conv1d(rng, c_in, c_out)
        self.emb_proj = Dense(rng, emb_dim, c_out)
        self.norm2 = GroupNorm(c_out, groups)
        self.conv2 = Conv1d(rng, c_out, c_out)

    def __call__(self, x: Tensor, emb: Tensor) -> Tensor:
        h = self.conv1(self.norm1(x).silu())
        shift = self.emb_proj(emb.silu())
        h = h + shift.reshape(shift.shape[0], self.c_out, 1)
        h = self.conv2(self.norm2(h).silu())
        if self.c_in == self.c_out:
            shortcut = x
        elif self.c_in < self.c_out:
            shortcut = pad_channels(x, self.c_out)
        else:
            shortcut = x[:, :self.c_out, :]
        return h + shortcut


def avg_pool1d(x: Tensor, factor: int = 2) -> Tensor:
    if x.shape[2] % factor != 0:
        raise ShapeMismatch(f"width {x.shape[2]} not divisible by {factor}")
    parts = [x[:, :, i::factor] for i in range(factor)]
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out * (1.0 / factor)


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    out_data = np.repeat(x.data, factor, axis=2)

    def backward(g):
        if x.requires_grad:
            b, c, w = g.shape
            x._accumulate(g.reshape(b, c, w // factor, factor).sum(axis=3))

    return Tensor._make(out_data, (x,), backward)


def sinusoidal_embedding(t: np.ndarray, dim: int) -> Tensor:
    """Classic sin/cos position code; accepts integer or fractional steps."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10_000.0) * np.arange(half) / max(half - 1, 1))
    args = t[:, None] * freqs[None, :]
    return Tensor(np.concatenate([np.sin(args), np.cos(args)], axis=1))


__all__ = [
    "Module", "Dense", "Conv1d", "GroupNorm", "Attention", "Embedding",
    "ResidualBlock", "avg_pool1d", "upsample_nearest", "sinusoidal_embedding",
    "concat",
]
