"""AdamW with decoupled weight decay, over one flat parameter buffer.

Update for each parameter p with gradient g at step t:

    m <- b1*m + (1-b1)*g          m_hat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2        v_hat = v / (1 - b2^t)
    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p

The decay term uses the pre-update parameter value.

On construction every parameter's `data` becomes a view into one
contiguous array, with the moments `m` and `v` beside it, so a step is a
handful of whole-buffer numpy calls instead of a loop over parameters.
The calls write in place through one scratch buffer and keep the
per-element operation order of the formula above, so the result is the
same, bit for bit, as updating each parameter on its own.  A missing
gradient counts as zero.  A gradient that is not finite, or an update
that overflows a parameter, raises `NonFiniteGradient` with nothing
printed; only the former leaves the buffer untouched.  Assigning a new
array to `p.data` after construction detaches that parameter from the
optimizer.

A caller that computes its gradients by hand can write them in place into
`grad_views()` and call `step(flat_grad=True)`, which skips gathering
`p.grad` into the buffer.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NonFiniteGradient
from .tensor import Tensor


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        sizes = [p.data.size for p in self.params.values()]
        self._bounds = np.cumsum([0] + sizes)
        self.flat = np.zeros(self._bounds[-1])
        for p, lo, hi in zip(self.params.values(), self._bounds[:-1], self._bounds[1:]):
            view = self.flat[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.zeros_like(self.flat)
        self._scratch = np.zeros_like(self.flat)

    def grad_views(self) -> dict[str, np.ndarray]:
        """Each parameter's slice of the flat gradient buffer, in its shape.
        `step` reuses the buffer as scratch, so a step with `flat_grad`
        needs every view rewritten first."""
        return {name: self._grad[lo:hi].reshape(p.data.shape)
                for (name, p), lo, hi in zip(self.params.items(), self._bounds[:-1],
                                             self._bounds[1:])}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, flat_grad: bool = False) -> None:
        self.step_count += 1
        t = self.step_count
        if not self.params:
            return
        g, s, p = self._grad, self._scratch, self.flat
        if not flat_grad:
            np.concatenate([np.zeros(q.data.size) if q.grad is None else q.grad.reshape(-1)
                            for q in self.params.values()], out=g)
        # Nothing here prints a numpy warning: an update that overflows (at a
        # huge lr) is raised by the check after it.
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_finite(g, "gradient")
            self.m *= self.b1
            np.multiply(g, 1.0 - self.b1, out=s)
            self.m += s
            self.v *= self.b2
            np.multiply(g, 1.0 - self.b2, out=s)
            s *= g
            self.v += s
            # The gradient is spent: its buffer takes sqrt(v_hat) + eps, then
            # the decay lr*wd*p of the pre-update p.
            np.divide(self.v, 1.0 - self.b2 ** t, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(self.m, 1.0 - self.b1 ** t, out=s)
            s *= self.lr
            s /= g
            np.multiply(p, self.lr * self.weight_decay, out=g)
            p -= s
            p -= g
            self._check_finite(p, "updated value")

    def _check_finite(self, buf: np.ndarray, what: str) -> None:
        """Raise NonFiniteGradient naming the first parameter whose slice of
        the flat buffer `buf` holds an inf or a nan."""
        # A finite sum means every element is finite (an overflowing sum
        # falls through to the exact scan), and summing makes no temporary:
        # a boolean copy of the buffer would page-fault each step.
        if math.isfinite(buf.sum()):
            return
        for name, lo, hi in zip(self.params, self._bounds[:-1], self._bounds[1:]):
            if not np.isfinite(buf[lo:hi]).all():
                raise NonFiniteGradient(f"{what} of {name!r} is not finite")
