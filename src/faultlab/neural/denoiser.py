"""The noise-prediction network: one downsampling and one upsampling stage.

Layer budget (exactly): 13 convolutions, 10 group norms, 3 residual
blocks, 3 attention blocks.  Channel plan: 1 -> base (default 32) on the
top level, 2*base in the bottleneck; the up path consumes the skip
concatenation (3*base) and returns to base width.  The output projection
is a zero-initialized pointwise dense layer, so a fresh network predicts
zero noise everywhere.

Class conditioning uses a learned embedding added to the sinusoidal step
embedding; index 2 is the dedicated unconditional ("null") token used by
classifier-free training and guidance.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from .layers import (
    Attention,
    Conv1d,
    Dense,
    Embedding,
    GroupNorm,
    Module,
    ResidualBlock,
    _sigmoid,
    _silu_terms,
    avg_pool1d,
    pool_forward,
    sinusoidal_embedding,
    upsample_nearest,
)
from .tensor import Tensor, concat

PASS_CLASS = 0
FAIL_CLASS = 1
NULL_CLASS = 2
NUM_CLASSES = 3


class Denoiser(Module):
    checkpoint_args = ("base", "groups", "emb_dim")

    def __init__(self, seed: int = 0, base: int = 32, groups: int = 8, emb_dim: int = 32):
        rng = np.random.default_rng(seed)
        mid = 2 * base
        self.base = base
        self.groups = groups
        self.emb_dim = emb_dim

        self.class_embed = Embedding(rng, NUM_CLASSES, emb_dim)
        self.stem = Conv1d(rng, 1, base)                                  # conv 1
        self.res_down = ResidualBlock(rng, base, base, emb_dim, groups)   # conv 2-3
        self.attn_down = Attention(rng, base, groups)                     # conv 4-5
        self.res_mid = ResidualBlock(rng, base, mid, emb_dim, groups)     # conv 6-7
        self.attn_mid = Attention(rng, mid, groups)                       # conv 8-9
        self.res_up = ResidualBlock(rng, base + mid, base, emb_dim, groups)  # conv 10-11
        self.attn_up = Attention(rng, base, groups)                       # conv 12-13
        self.out_norm = GroupNorm(base, groups)                           # norm 10
        self.out_proj = Dense(rng, base, 1, zero_init=True)

    # -- forward -------------------------------------------------------------

    def _inputs(self, x_t, t, c):
        """x_t as (B, 1, K), t as (B,) floats and c as (B,) class indices."""
        if x_t.ndim == 2:
            x_t = x_t.reshape(x_t.shape[0], 1, x_t.shape[1])
        batch, _, width = x_t.shape
        if width % 2 != 0 or width < 4:
            raise ShapeMismatch(f"width {width} must be even and >= 4")
        t = np.broadcast_to(np.asarray(t, dtype=np.float64).ravel(), (batch,))
        if c is None:
            c = np.full(batch, NULL_CLASS, dtype=np.intp)
        else:
            c = np.broadcast_to(np.asarray(c, dtype=np.intp).ravel(), (batch,))
        return x_t, t, c

    def __call__(self, x_t, t, c) -> Tensor:
        """Predict the noise in x_t, one tape node per layer.

        x_t: Tensor or array, (B, K) or (B, 1, K); width K even and >= 4.
        t: array of timesteps (integer or fractional), shape (B,) or scalar.
        c: class indices (B,) or scalar; None means the null token.
        """
        if not isinstance(x_t, Tensor):
            x_t = Tensor(np.asarray(x_t, dtype=np.float64))
        x_t, t, c = self._inputs(x_t, t, c)
        emb = self._embed(t, c)

        h1 = self.stem(x_t)
        h1 = self.attn_down(self.res_down(h1, emb))
        h2 = avg_pool1d(h1)
        h2 = self.attn_mid(self.res_mid(h2, emb))
        h3 = upsample_nearest(h2)
        h3 = self.res_up(concat([h1, h3], axis=1), emb)
        h3 = self.attn_up(h3)
        return self._head(self.out_norm(h3))

    def predict(self, x_t: np.ndarray, t, c) -> np.ndarray:
        """(B, K) -> (B, K) noise prediction, from plain arrays only."""
        x_t, t, c = self._inputs(np.asarray(x_t, dtype=np.float64), t, c)
        emb = self._embed_forward(t, c)

        h1 = self.stem.forward(x_t)[0]
        h1 = self.attn_down.forward(self.res_down.forward(h1, emb)[0])[0]
        h2 = pool_forward(h1)
        h2 = self.attn_mid.forward(self.res_mid.forward(h2, emb)[0])[0]
        h3 = np.repeat(h2, 2, axis=2)
        h3 = self.res_up.forward(np.concatenate([h1, h3], axis=1), emb)[0]
        h3 = self.attn_up.forward(h3)[0]
        out = self._head_forward(self.out_norm.forward(h3)[0])[0]
        return out.reshape(out.shape[0], out.shape[2])

    def _embed_forward(self, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Step code plus class embedding: (B, emb_dim)."""
        return sinusoidal_embedding(t, self.emb_dim) + self.class_embed.forward(c)

    def _embed(self, t: np.ndarray, c: np.ndarray) -> Tensor:
        def backward(g):
            self.class_embed.backward(g, c)

        return self.class_embed._node(self._embed_forward(t, c), (), backward)

    def _head_forward(self, h: np.ndarray):
        """silu, then the pointwise output projection: (B, C, K) -> (B, 1, K)."""
        s = _sigmoid(h)
        a_t = np.swapaxes(h * s, 1, 2)
        return np.swapaxes(self.out_proj.forward(a_t), 1, 2), (h, s, a_t)

    def _head(self, h: Tensor) -> Tensor:
        out, (hd, s, a_t) = self._head_forward(h.data)

        def backward(g):
            # each swapaxes hands on a C-ordered copy, as the tape stored it
            g_a_t = self.out_proj.backward(np.swapaxes(g, 1, 2).copy(), a_t)
            if h.requires_grad:
                for part in _silu_terms(np.swapaxes(g_a_t, 1, 2).copy(), hd, s):
                    h._accumulate(part)

        return self.out_proj._node(out, (h,), backward)
