"""Parameters and the one node a training step records, float64 throughout.

A `Tensor` is a parameter, a value and its gradient, or the output of the
one node a training step records: the whole denoiser (see `denoiser`).
Its `backward` runs that node's backward once; there is no graph to walk.
A gradient is summed where its terms meet, in the order the autodiff tape
once summed them, and a parameter keeps a copy of its first term instead
of adding it to zeros.  So every non-zero gradient element has the tape's
bits and only an exactly-zero one may differ in sign, which AdamW cannot
carry into a parameter.  `_unbroadcast` undoes an elementwise broadcast
in a layer's backward by summing over the broadcast axes.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (the pre-broadcast operand shape)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, backward=None, parents=()):
        """A parameter when `requires_grad`; a node's output when `backward`
        is given: it takes the output gradient and hands the gradients on
        to the node's Tensor inputs, `parents`, and its parameters."""
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = backward
        self._parents: tuple[Tensor, ...] = tuple(parents)

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        # A C-ordered copy of the first term, so the stored grad never
        # aliases `grad` and has one layout whatever the term's; later terms
        # are added in place.
        if self.grad is None:
            self.grad = np.array(grad, order="C")
        else:
            self.grad += grad

    def backward(self, grad) -> None:
        """Run this node's backward from its output gradient; a leaf has none."""
        if self._backward is not None:
            self._backward(np.asarray(grad, dtype=np.float64))
