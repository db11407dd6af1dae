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

The network is written once.  `forward` runs it on plain arrays and
`backward` replays its layers in reverse from the output gradient, as
plain backprop.  `__call__` records that pair as a single node, the only
node of a training step; `predict` is `forward` without layer caches and
records nothing.  A gradient with several terms is summed where they
meet, in the order the autodiff tape of one node per primitive op summed
them (`tests/tape_oracle.py` keeps that tape): every non-zero element
has the tape's bits, and only an exactly-zero one may differ in sign.
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
    _silu_grad,
    avg_pool1d,
    sinusoidal_embedding,
)
from .tensor import Tensor

PASS_CLASS = 0
FAIL_CLASS = 1
NULL_CLASS = 2
NUM_CLASSES = 3


class Denoiser(Module):
    def __init__(self, seed: int = 0, base: int = 32, groups: int = 8, emb_dim: int = 32):
        rng = np.random.default_rng(seed)
        mid = 2 * base
        self.base = base
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

    def __call__(self, x_t, t, c) -> Tensor:
        """Predict the noise in x_t as one recorded node, (B, 1, K).

        x_t: Tensor or array, (B, K) or (B, 1, K); width K even and >= 4.
        t: array of timesteps (integer or fractional), shape (B,) or scalar.
        c: class indices (B,) or scalar; None means the null token.
        """
        inputs = (x_t,) if isinstance(x_t, Tensor) else ()
        caches: list = []
        out = self.forward(x_t.data if inputs else x_t, t, c, caches)

        def backward(g):
            need_dx = bool(inputs) and x_t.requires_grad
            dx = self.backward(g, caches, need_dx)
            if need_dx:
                x_t._accumulate(dx.reshape(x_t.shape))

        return Tensor(out, requires_grad=True, backward=backward, parents=inputs)

    def predict(self, x_t: np.ndarray, t, c) -> np.ndarray:
        """(B, K) -> (B, K) noise prediction, keeping no layer cache."""
        out = self.forward(x_t, t, c)
        return out.reshape(out.shape[0], out.shape[2])

    def forward(self, x_t: np.ndarray, t, c, caches: list | None = None) -> np.ndarray:
        """(B, 1, K) noise prediction from plain arrays.  When `caches` is a
        list, each layer's cache is appended to it, for `backward`."""
        x_t = np.asarray(x_t, dtype=np.float64)
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

        def run(layer, *args):
            out, cache = layer(*args)
            if caches is not None:
                caches.append(cache)
            return out

        emb = sinusoidal_embedding(t, self.emb_dim) + run(self.class_embed, c)
        h1 = run(self.stem, x_t)
        h1 = run(self.attn_down, run(self.res_down, h1, emb))
        h2 = run(self.attn_mid, run(self.res_mid, avg_pool1d(h1), emb))
        h3 = np.repeat(h2, 2, axis=2)                  # nearest upsampling
        h3 = run(self.res_up, np.concatenate([h1, h3], axis=1), emb)
        h = run(self.out_norm, run(self.attn_up, h3))
        # head: silu, then the pointwise output projection
        s = _sigmoid(h)
        out = np.swapaxes(run(self.out_proj, np.swapaxes(h * s, 1, 2)), 1, 2)
        if caches is not None:
            caches.append((h, s))
        return out

    def backward(self, g: np.ndarray, caches: list, need_dx: bool = False):
        """Replay `forward`'s layers in reverse from the output gradient g,
        adding every parameter's gradient; returns x_t's gradient, (B, 1, K),
        when need_dx.  `emb` collects res_up's terms, then res_mid's, then
        res_down's; `h1` the concatenation's slice, then the pooling's share."""
        (emb_c, stem_c, res_down_c, attn_down_c, res_mid_c, attn_mid_c,
         res_up_c, attn_up_c, out_norm_c, out_proj_c, (h, s)) = caches
        # each swapaxes hands on a C-ordered copy, as the tape stored it
        g_a_t = self.out_proj.backward(np.swapaxes(g, 1, 2).copy(), out_proj_c)
        g_h = _silu_grad(np.swapaxes(g_a_t, 1, 2).copy(), h, s)
        g_h = self.attn_up.backward(self.out_norm.backward(g_h, out_norm_c), attn_up_c)
        g_cat, g_emb = self.res_up.backward(g_h, res_up_c)
        # the upsampling's backward sums each pair of positions
        batch, channels, width = g_cat.shape
        g_h2 = g_cat[:, self.base:].reshape(batch, channels - self.base, width // 2, 2)
        g_h2 = self.attn_mid.backward(g_h2.sum(axis=3), attn_mid_c)
        g_h2, g_emb = self.res_mid.backward(g_h2, res_mid_c, g_emb)
        g_h1 = g_cat[:, :self.base] + np.repeat(g_h2 * (1.0 / 2), 2, axis=2)
        g_h1 = self.attn_down.backward(g_h1, attn_down_c)
        g_h1, g_emb = self.res_down.backward(g_h1, res_down_c, g_emb)
        self.class_embed.backward(g_emb, emb_c)
        return self.stem.backward(g_h1, stem_c, need_dx)
