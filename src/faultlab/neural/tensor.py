"""Reverse-mode autodiff over numpy arrays, float64 throughout.

Gradients flow through a recorded tape: an op records a node when one of
its operands requires a gradient.  The primitive ops here cover the
diffusion loss only: the whole denoiser records itself as a single node
(see `denoiser`), and its layers work on plain arrays.  Broadcasting in
elementwise ops is undone in the backward pass by summing over the
broadcast axes.
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

    # -- plumbing ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    def _accumulate(self, grad: np.ndarray) -> None:
        # Zero-fill then add, not assign: broadcasting and -0.0 behave as
        # in a plain sum, and the stored grad never aliases `grad`.
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        self.grad += grad

    @classmethod
    def _make(cls, data, parents: tuple, backward):
        # The ops hand over float64 arrays already; only a reduction to a
        # numpy scalar still needs wrapping.
        out = object.__new__(cls)
        out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
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

    # -- elementwise -------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)
        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # -- reductions & shape ------------------------------------------------

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
