"""The denoiser as a composition of primitive tape ops: the bit-exactness oracle.

Before the network became one node, its layers were built from the
primitive ops below, one node per op, on a reverse-mode autodiff tape.
The library's forward and backward must reproduce these compositions:
every non-zero value bit for bit, while an exactly-zero gradient element
may differ in sign.  So they are kept here verbatim, and so is the tape
itself.  The library's `Tensor` is only a parameter or the one node a
training step records, and its `backward` runs that node alone; this
module's `Tensor`, a subclass, records nodes (`_make`) and walks the
graph of them in reverse topological order (`backward`).  It also
carries the arithmetic the layers and the diffusion loss were once
written in (`+`, `-`, `*`, `sum`, `mean`, `reshape`), whose operators
take a library-made Tensor on either side.  `ops` gives a library-made
Tensor those methods.  The other primitives that the library does not use
(`pow`, `sigmoid`, `matmul`, `swapaxes`, indexing, `softmax`, `silu`,
channel padding, concatenation, and `softplus` for the MLP's loss) live
here as functions, next to the convolution and upsampling nodes, which
were single nodes already.

`node` is the other direction: it records a library layer's forward and
`backward` as one tape node, so that tape-level checks (finite
differences, gradient comparisons) can reach a single layer.
"""

from __future__ import annotations

import numpy as np

from faultlab import neural
from faultlab.neural.denoiser import NULL_CLASS
from faultlab.neural.layers import sinusoidal_embedding
from faultlab.neural.tensor import _unbroadcast


class Tensor(neural.Tensor):
    """The library's Tensor with the tape: its ops record nodes of this
    class, and `backward` walks them.  An operand that is no Tensor is
    lifted to a leaf."""

    __slots__ = ()

    @classmethod
    def _make(cls, data, parents: tuple, backward):
        """A node over `parents`, recorded only when one of them requires a
        gradient.  A reduction, or an op on 0-d arrays, hands over a numpy
        scalar as `data`."""
        if any(p.requires_grad for p in parents):
            return cls(data, requires_grad=True, backward=backward, parents=parents)
        return cls(data)

    def backward(self, grad=None) -> None:
        """Run every recorded node between this one and the leaves, each
        after all of its consumers."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[neural.Tensor] = []
        seen: set[int] = set()

        def visit(node: neural.Tensor):
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                n, it = stack[-1]
                advanced = False
                for p in it:
                    # Leaves have no backward, so they stay out of the order.
                    if p._backward is not None and id(p) not in seen:
                        seen.add(id(p))
                        stack.append((p, iter(p._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(n)
                    stack.pop()

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __add__(self, other):
        return _add(self, _lift(other))

    def __radd__(self, other):
        return _add(_lift(other), self)

    def __neg__(self):
        return _neg(self)

    def __sub__(self, other):
        return _add(self, _neg(_lift(other)))

    def __rsub__(self, other):
        return _add(_lift(other), _neg(self))

    def __mul__(self, other):
        return _mul(self, _lift(other))

    def __rmul__(self, other):
        return _mul(_lift(other), self)

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        out_data = self.data.reshape(*shape)
        src_shape = self.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(src_shape))

        return Tensor._make(out_data, (self,), backward)


def _lift(x) -> neural.Tensor:
    return x if isinstance(x, neural.Tensor) else Tensor(x)


def ops(x: neural.Tensor) -> Tensor:
    """`x` itself, given this module's arithmetic: the same node, so its
    place on the tape and the gradient it collects do not change."""
    x.__class__ = Tensor
    return x


def _add(a: neural.Tensor, b: neural.Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._make(a.data + b.data, (a, b), backward)


def _neg(a: neural.Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return Tensor._make(-a.data, (a,), backward)


def _mul(a: neural.Tensor, b: neural.Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._make(a.data * b.data, (a, b), backward)


def node(layer, *inputs) -> Tensor:
    """`layer(...)` plus `layer.backward` as one tape node, the layer's
    parameters among its parents.  Inputs that are not Tensors (class
    indices) pass through; a layer hands back one gradient per Tensor
    input, as one array when there is one input."""
    out, cache = layer(*(x.data if isinstance(x, neural.Tensor) else x for x in inputs))
    tensors = tuple(x for x in inputs if isinstance(x, neural.Tensor))

    def backward(g):
        grads = layer.backward(g, cache)
        for x, grad in zip(tensors, grads if len(tensors) > 1 else (grads,)):
            if x.requires_grad:
                x._accumulate(grad)

    return Tensor._make(out, tensors + tuple(layer.named_params().values()), backward)


# -- primitives --------------------------------------------------------------

def sigmoid(x: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, start + size)
                t._accumulate(g[tuple(index)])
            start += size

    return Tensor._make(out_data, tuple(tensors), backward)

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
    return x * sigmoid(x)


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

def dense(layer, x: Tensor) -> Tensor:
    return matmul(x, layer.w) + layer.b


def conv1d(conv, x: Tensor) -> Tensor:
    w, b, k = conv.w, conv.b, conv.kernel
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
    qkv = conv1d(attn.qkv, h)
    q = getitem(qkv, (slice(None), slice(None, c), slice(None)))
    k = getitem(qkv, (slice(None), slice(c, 2 * c), slice(None)))
    v = getitem(qkv, (slice(None), slice(2 * c, None), slice(None)))
    scores = matmul(swapaxes(q, 1, 2), k) * (1.0 / np.sqrt(c))   # (B, W, W)
    a = softmax(scores)
    out = matmul(v, swapaxes(a, 1, 2))                           # (B, C, W)
    return x + conv1d(attn.proj, out)


def embedding(emb, idx) -> Tensor:
    return getitem(emb.table, np.asarray(idx, dtype=np.intp))


def resblock(block, x: Tensor, emb: Tensor) -> Tensor:
    h = conv1d(block.conv1, silu(groupnorm(block.norm1, x)))
    shift = dense(block.emb_proj, silu(emb))
    h = h + shift.reshape(shift.shape[0], block.c_out, 1)
    h = conv1d(block.conv2, silu(groupnorm(block.norm2, h)))
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


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    out_data = np.repeat(x.data, factor, axis=2)

    def backward(g):
        if x.requires_grad:
            b, c, w = g.shape
            x._accumulate(g.reshape(b, c, w // factor, factor).sum(axis=3))

    return Tensor._make(out_data, (x,), backward)


def denoiser(model, x_t, t, c) -> Tensor:
    if not isinstance(x_t, Tensor):
        x_t = Tensor(np.asarray(x_t, dtype=np.float64))
    if x_t.data.ndim == 2:
        x_t = x_t.reshape(x_t.shape[0], 1, x_t.shape[1])
    batch = x_t.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64).ravel(), (batch,))
    if c is None:
        c = np.full(batch, NULL_CLASS, dtype=np.intp)
    else:
        c = np.broadcast_to(np.asarray(c, dtype=np.intp).ravel(), (batch,))

    emb = Tensor(sinusoidal_embedding(t, model.emb_dim)) + embedding(model.class_embed, c)

    h1 = conv1d(model.stem, x_t)
    h1 = attention(model.attn_down, resblock(model.res_down, h1, emb))
    h2 = avg_pool1d(h1)
    h2 = attention(model.attn_mid, resblock(model.res_mid, h2, emb))
    h3 = upsample_nearest(h2)
    h3 = resblock(model.res_up, concat([h1, h3], axis=1), emb)
    h3 = attention(model.attn_up, h3)
    out = dense(model.out_proj, swapaxes(silu(groupnorm(model.out_norm, h3)), 1, 2))
    return swapaxes(out, 1, 2)


def mlp_logits(model, x: Tensor) -> Tensor:
    """`MlpFlModel.logits` on the tape."""
    h = sigmoid(dense(model.fc1, x))
    h = sigmoid(dense(model.fc2, h))
    return dense(model.fc3, h)


class TapeDenoiser:
    """A Denoiser's parameters driven through the primitive composition, for
    `diffusion.train_step`, which only calls the model."""

    def __init__(self, model):
        self.model = model

    def __call__(self, x_t, t, c) -> Tensor:
        return denoiser(self.model, x_t, t, c)

