"""Reverse-mode autodiff over numpy arrays, float64 throughout.

Gradients flow through a recorded tape: a node is recorded when one of
its parents requires a gradient.  The tape holds no arithmetic: the whole
denoiser records itself as a single node (see `denoiser`) over the
parameter leaves, its layers work on plain arrays, and
`diffusion.train_step` writes the loss and its gradient out and hands that
gradient to the network's node.  `_unbroadcast` undoes an elementwise
broadcast in a layer's backward by summing over the broadcast axes.
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

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        # Zero-fill then add, not assign: broadcasting and -0.0 behave as
        # in a plain sum, and the stored grad never aliases `grad`.
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        self.grad += grad

    @classmethod
    def _make(cls, data: np.ndarray, parents: tuple, backward):
        out = object.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
        return out

    def backward(self, grad=None) -> None:
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: Tensor):
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
