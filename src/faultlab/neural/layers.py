"""Layers for the 1-D denoiser: dense, conv, group norm, attention.

Weights are initialized with uniform fan-in scaling from an explicit
numpy Generator, so a seed pins the whole network.  Activations live in
(batch, channels, width) layout.

Each layer has one forward, `__call__`, which takes plain arrays and
returns its output and a cache, and a `backward` that takes the output
gradient and that cache, adds its parameters' gradients and returns the
gradient of its input, one array per input.  The denoiser records its
whole forward/backward pair as one node (see `denoiser`).  Both passes
use the numpy operations, operand layouts and summation order of the
primitive tape ops that the layers were once composed of (kept in
`tests/tape_oracle.py`).  Elementwise steps may be regrouped freely (an
elementwise op gives the same bits under any layout or broadcast form);
every reduction and matrix product keeps its operand layout, axis and
order.  A gradient with several terms is summed where they meet, in the
tape's order, with no zero array to start from: every non-zero element
keeps the tape's bits, and only an exactly-zero one may differ in sign.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from .tensor import Tensor, _unbroadcast


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray, into=None) -> np.ndarray:
    """x's gradient through silu(x) = x * sigmoid(x), s = sigmoid(x), added
    to `into` when given.  The tape's order: the product's term, then the
    sigmoid's."""
    by_product = g * s if into is None else into + g * s
    return by_product + g * x * s * (1.0 - s)


class Module:
    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for attr, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out[attr] = value
            elif isinstance(value, Module):
                for k, v in value.named_params().items():
                    out[f"{attr}.{k}"] = v
        return out


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

    def __call__(self, x: np.ndarray):
        """(x @ w + b, x): the input is the whole cache."""
        return x @ self.w.data + self.b.data, x

    def backward(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Gradient of x for `self(x)`, whose output gradient is g."""
        w, b = self.w, self.b
        b._accumulate(_unbroadcast(g, b.shape))
        w._accumulate(_unbroadcast(np.swapaxes(x, -1, -2) @ g, w.shape))
        return g @ np.swapaxes(w.data, -1, -2)


class Conv1d(Module):
    """Same-padded 1-D convolution, stride 1, odd kernel."""

    def __init__(self, rng, c_in: int, c_out: int, kernel: int = 3):
        assert kernel % 2 == 1
        self.kernel = kernel
        fan_in = c_in * kernel
        self.w = Tensor(_uniform(rng, (c_out, c_in, kernel), fan_in), requires_grad=True)
        self.b = Tensor(_uniform(rng, (c_out,), fan_in), requires_grad=True)

    def __call__(self, x: np.ndarray):
        k = self.kernel
        pad = k // 2
        batch, c_in, width = x.shape
        c_out = self.w.shape[0]
        # im2col: contiguous (B*W, C*k) patches so the product hits BLAS.
        # Tap j reads position w + j - pad; taps past either edge stay zero.
        patches = np.zeros((batch, width, c_in, k))
        xt = x.transpose(0, 2, 1)
        for j in range(k):
            lo, hi = max(0, pad - j), min(width, width + pad - j)
            if lo < hi:
                patches[:, lo:hi, :, j] = xt[:, lo + j - pad:hi + j - pad]
        patches = patches.reshape(batch * width, c_in * k)
        w2 = self.w.data.reshape(c_out, c_in * k)
        out = (patches @ w2.T).reshape(batch, width, c_out)
        # The output keeps this (B, W, C) memory order: the reductions and
        # products downstream were written against it.
        return out.transpose(0, 2, 1) + self.b.data[None, :, None], (patches, w2, x.shape)

    def backward(self, g: np.ndarray, cache, need_dx: bool = True):
        patches, w2, (batch, c_in, width) = cache
        w, b, k = self.w, self.b, self.kernel
        pad = k // 2
        c_out = w2.shape[0]
        g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(batch * width, c_out)
        w._accumulate((g2.T @ patches).reshape(c_out, c_in, k))
        b._accumulate(g.sum(axis=(0, 2)))
        if not need_dx:
            return None
        dwin = (g2 @ w2).reshape(batch, width, c_in, k)
        if k == 1:
            return np.ascontiguousarray(dwin[:, :, :, 0].transpose(0, 2, 1))
        # Scatter tap j back to position w + j - pad, taps in order, in the
        # (B, W, C) layout the product comes out in.
        dx_pad = np.zeros((batch, width + 2 * pad, c_in))
        for j in range(k):
            dx_pad[:, j:j + width, :] += dwin[:, :, :, j]
        return np.ascontiguousarray(dx_pad[:, pad:pad + width, :].transpose(0, 2, 1))


class GroupNorm(Module):
    """Normalize per (sample, channel-group) over channels x width."""

    def __init__(self, channels: int, groups: int, eps: float = 1e-5):
        if channels % groups != 0:
            raise ShapeMismatch(f"{groups} groups do not divide {channels} channels")
        self.groups = groups
        self.eps = eps
        self.gamma = Tensor(np.ones((channels, 1)), requires_grad=True)
        self.beta = Tensor(np.zeros((channels, 1)), requires_grad=True)

    def __call__(self, x: np.ndarray):
        batch, channels, width = x.shape
        xg = x.reshape(batch, self.groups, -1)
        inv = 1.0 / xg.shape[2]
        centered = xg - xg.sum(axis=2, keepdims=True) * inv
        var_eps = (centered ** 2.0).sum(axis=2, keepdims=True) * inv + self.eps
        scale = var_eps ** -0.5
        normed = (centered * scale).reshape(batch, channels * width)
        # The affine step as (B, C*W) rows: one long inner loop per sample.
        gamma = np.repeat(self.gamma.data, width)
        out = (normed * gamma + np.repeat(self.beta.data, width)).reshape(x.shape)
        return out, (centered, var_eps, scale, normed, gamma, inv)

    def backward(self, g: np.ndarray, cache) -> np.ndarray:
        centered, var_eps, scale, normed, gamma_row, inv = cache
        gamma, beta = self.gamma, self.beta
        beta._accumulate(_unbroadcast(g, beta.shape))
        gamma._accumulate(_unbroadcast(g * normed.reshape(g.shape), gamma.shape))
        g_normed = (g.reshape(normed.shape) * gamma_row).reshape(centered.shape)
        g_scale = _unbroadcast(g_normed * centered, scale.shape)
        g_sumsq = g_scale * -0.5 * var_eps ** -1.5 * inv
        # centered feeds the normalization and the variance: two terms
        g_centered = g_normed * scale + g_sumsq * 2.0 * centered
        # and it is xg - mean(xg): the mean's share comes back summed
        g_mean = -_unbroadcast(g_centered, scale.shape) * inv
        return (g_centered + g_mean).reshape(g.shape)


class Attention(Module):
    """Single-head self-attention over width positions, with residual."""

    def __init__(self, rng, channels: int, groups: int):
        self.channels = channels
        self.norm = GroupNorm(channels, groups)
        self.qkv = Conv1d(rng, channels, 3 * channels, kernel=1)
        self.proj = Conv1d(rng, channels, channels, kernel=1)

    def __call__(self, x: np.ndarray):
        c = self.channels
        h, norm_cache = self.norm(x)
        qkv, qkv_cache = self.qkv(h)
        q_t = np.swapaxes(qkv[:, :c, :], 1, 2)
        k, v = qkv[:, c:2 * c, :], qkv[:, 2 * c:, :]
        scores = q_t @ k * (1.0 / np.sqrt(c))                  # (B, W, W)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        attn_t = np.swapaxes(attn, 1, 2)
        out, proj_cache = self.proj(v @ attn_t)               # (B, C, W)
        return x + out, (norm_cache, qkv_cache, q_t, k, v, attn, attn_t, proj_cache)

    def backward(self, g: np.ndarray, cache) -> np.ndarray:
        """x's gradient: the residual's term plus the normalization's."""
        norm_cache, qkv_cache, q_t, k, v, attn, attn_t, proj_cache = cache
        c = self.channels
        g_out = self.proj.backward(g, proj_cache)
        g_v = g_out @ np.swapaxes(attn_t, -1, -2)
        # a C-ordered copy, as the tape stored it: the sum below reads that layout
        g_attn = np.ascontiguousarray(np.swapaxes(np.swapaxes(v, -1, -2) @ g_out, 1, 2))
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_scores = attn * (g_attn - dot) * (1.0 / np.sqrt(c))
        g_q_t = g_scores @ np.swapaxes(k, -1, -2)
        g_k = np.swapaxes(q_t, -1, -2) @ g_scores
        # q, k and v are disjoint slices of one tensor
        g_qkv = np.concatenate([np.swapaxes(g_q_t, 1, 2), g_k, g_v], axis=1)
        g_h = self.qkv.backward(g_qkv, qkv_cache)
        return g + self.norm.backward(g_h, norm_cache)


class Embedding(Module):
    def __init__(self, rng, num: int, dim: int):
        self.table = Tensor(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(num, dim)),
                            requires_grad=True)

    def __call__(self, idx: np.ndarray):
        """(the rows of idx, idx): the indices are the whole cache."""
        idx = np.asarray(idx, dtype=np.intp)
        return self.table.data[idx], idx

    def backward(self, g: np.ndarray, idx: np.ndarray) -> None:
        full = np.zeros(self.table.shape)
        np.add.at(full, idx, g)      # a row may repeat
        self.table._accumulate(full)


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

    def __call__(self, x: np.ndarray, emb: np.ndarray):
        n1, n1_cache = self.norm1(x)
        s1 = _sigmoid(n1)
        h, c1_cache = self.conv1(n1 * s1)
        es = _sigmoid(emb)
        ea = emb * es
        shift, _ = self.emb_proj(ea)
        h = h + shift.reshape(shift.shape[0], self.c_out, 1)
        n2, n2_cache = self.norm2(h)
        s2 = _sigmoid(n2)
        h, c2_cache = self.conv2(n2 * s2)
        if self.c_in == self.c_out:
            shortcut = x
        elif self.c_in < self.c_out:
            shortcut = np.zeros((x.shape[0], self.c_out, x.shape[2]))
            shortcut[:, :self.c_in, :] = x
        else:
            shortcut = x[:, :self.c_out, :]
        cache = (n1, s1, n1_cache, c1_cache, emb, es, ea, n2, s2, n2_cache, c2_cache)
        return h + shortcut, cache

    def backward(self, g: np.ndarray, cache, g_emb: np.ndarray | None = None):
        """(x's gradient, emb's gradient).  x's is the shortcut's term plus
        the first norm's; emb's silu adds its two terms to `g_emb`, the
        gradient emb has collected so far, when given."""
        n1, s1, n1_cache, c1_cache, emb, es, ea, n2, s2, n2_cache, c2_cache = cache
        g_h = self.norm2.backward(_silu_grad(self.conv2.backward(g, c2_cache), n2, s2),
                                  n2_cache)
        g_shift = _unbroadcast(g_h, (g_h.shape[0], self.c_out, 1)).reshape(g_h.shape[:2])
        g_emb = _silu_grad(self.emb_proj.backward(g_shift, ea), emb, es, into=g_emb)
        g_x = self.norm1.backward(_silu_grad(self.conv1.backward(g_h, c1_cache), n1, s1),
                                  n1_cache)
        # The shortcut's term, added to the norm's (a sum of two is the same
        # either way round): the first c_in channels of g, or g on the first
        # c_out channels, where the shortcut's term elsewhere is zero.
        if self.c_in > self.c_out:
            g_x[:, :self.c_out, :] += g
            return g_x, g_emb
        return g[:, :self.c_in, :] + g_x, g_emb


def avg_pool1d(x: np.ndarray, factor: int = 2) -> np.ndarray:
    """Mean of each run of `factor` positions along the width."""
    if x.shape[2] % factor != 0:
        raise ShapeMismatch(f"width {x.shape[2]} not divisible by {factor}")
    out = x[:, :, 0::factor]
    for i in range(1, factor):
        out = out + x[:, :, i::factor]
    return out * (1.0 / factor)


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Classic sin/cos position code; accepts integer or fractional steps."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10_000.0) * np.arange(half) / max(half - 1, 1))
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


__all__ = [
    "Module", "Dense", "Conv1d", "GroupNorm", "Attention", "Embedding",
    "ResidualBlock", "avg_pool1d", "sinusoidal_embedding",
]
