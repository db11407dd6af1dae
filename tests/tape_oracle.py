"""The denoiser as a composition of primitive tape ops: the bit-exactness oracle.

Before each layer became one tape node, the layers were built from the
primitive `Tensor` ops below, one node per op.  The library's layer nodes
and its array-only inference path must reproduce these compositions bit
for bit, forward and backward, so they are kept here verbatim.  The
primitives that no layer uses any more (`pow`, `swapaxes`, indexing,
`softmax`, `silu`, channel padding, and `softplus` for the MLP's loss)
live here as functions; convolution, dense layers and upsampling were
single nodes already and come from the library.
"""

from __future__ import annotations

import numpy as np

from faultlab.neural import Tensor
from faultlab.neural.layers import sinusoidal_embedding, upsample_nearest
from faultlab.neural.tensor import concat
from faultlab.neural.denoiser import NULL_CLASS


# -- primitives --------------------------------------------------------------

def pow_(x: Tensor, p: float) -> Tensor:
    out_data = x.data ** p

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * p * x.data ** (p - 1.0))

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x), computed stably; derivative is sigmoid(x)
    out_data = np.logaddexp(0.0, x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g / (1.0 + np.exp(-x.data)))

    return Tensor._make(out_data, (x,), backward)


def silu(x: Tensor) -> Tensor:
    return x * x.sigmoid()


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out_data = np.swapaxes(x.data, a, b)

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.swapaxes(g, a, b))

    return Tensor._make(out_data, (x,), backward)


def getitem(x: Tensor, key) -> Tensor:
    out_data = x.data[key]

    def backward(g):
        if x.requires_grad:
            full = np.zeros(x.data.shape)
            # A basic index (slices, integers) selects each element once,
            # so `+=` scatters as np.add.at does; an array key may repeat.
            parts = key if type(key) is tuple else (key,)
            if all(isinstance(k, (slice, int)) for k in parts):
                full[key] += g
            else:
                np.add.at(full, key, g)
            x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def pad_channels(x: Tensor, new_channels: int) -> Tensor:
    """Zero-pad axis 1 of (B, C, W) up to new_channels."""
    b, c, w = x.shape
    out_data = np.zeros((b, new_channels, w), dtype=np.float64)
    out_data[:, :c, :] = x.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[:, :c, :])

    return Tensor._make(out_data, (x,), backward)


# -- layers ------------------------------------------------------------------

def groupnorm(gn, x: Tensor) -> Tensor:
    batch, channels, width = x.shape
    xg = x.reshape(batch, gn.groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    centered = xg - mu
    var = pow_(centered, 2.0).mean(axis=2, keepdims=True)
    normed = centered * pow_(var + gn.eps, -0.5)
    return normed.reshape(batch, channels, width) * gn.gamma + gn.beta


def attention(attn, x: Tensor) -> Tensor:
    c = attn.channels
    h = groupnorm(attn.norm, x)
    qkv = attn.qkv(h)
    q = getitem(qkv, (slice(None), slice(None, c), slice(None)))
    k = getitem(qkv, (slice(None), slice(c, 2 * c), slice(None)))
    v = getitem(qkv, (slice(None), slice(2 * c, None), slice(None)))
    scores = swapaxes(q, 1, 2) @ k * (1.0 / np.sqrt(c))   # (B, W, W)
    a = softmax(scores)
    out = v @ swapaxes(a, 1, 2)                          # (B, C, W)
    return x + attn.proj(out)


def embedding(emb, idx) -> Tensor:
    return getitem(emb.table, np.asarray(idx, dtype=np.intp))


def resblock(block, x: Tensor, emb: Tensor) -> Tensor:
    h = block.conv1(silu(groupnorm(block.norm1, x)))
    shift = block.emb_proj(silu(emb))
    h = h + shift.reshape(shift.shape[0], block.c_out, 1)
    h = block.conv2(silu(groupnorm(block.norm2, h)))
    if block.c_in == block.c_out:
        shortcut = x
    elif block.c_in < block.c_out:
        shortcut = pad_channels(x, block.c_out)
    else:
        shortcut = getitem(x, (slice(None), slice(None, block.c_out), slice(None)))
    return h + shortcut


def avg_pool1d(x: Tensor, factor: int = 2) -> Tensor:
    parts = [getitem(x, (slice(None), slice(None), slice(i, None, factor)))
             for i in range(factor)]
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out * (1.0 / factor)


def denoiser(model, x_t, t, c) -> Tensor:
    if not isinstance(x_t, Tensor):
        x_t = Tensor(np.asarray(x_t, dtype=np.float64))
    if x_t.ndim == 2:
        x_t = x_t.reshape(x_t.shape[0], 1, x_t.shape[1])
    batch = x_t.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64).ravel(), (batch,))
    if c is None:
        c = np.full(batch, NULL_CLASS, dtype=np.intp)
    else:
        c = np.broadcast_to(np.asarray(c, dtype=np.intp).ravel(), (batch,))

    emb = Tensor(sinusoidal_embedding(t, model.emb_dim)) + embedding(model.class_embed, c)

    h1 = model.stem(x_t)
    h1 = attention(model.attn_down, resblock(model.res_down, h1, emb))
    h2 = avg_pool1d(h1)
    h2 = attention(model.attn_mid, resblock(model.res_mid, h2, emb))
    h3 = upsample_nearest(h2)
    h3 = resblock(model.res_up, concat([h1, h3], axis=1), emb)
    h3 = attention(model.attn_up, h3)
    out = model.out_proj(swapaxes(silu(groupnorm(model.out_norm, h3)), 1, 2))
    return swapaxes(out, 1, 2)


class TapeDenoiser:
    """A Denoiser's parameters driven through the primitive composition, for
    `diffusion.train_step`, which only calls the model."""

    def __init__(self, model):
        self.model = model

    def __call__(self, x_t, t, c) -> Tensor:
        return denoiser(self.model, x_t, t, c)

