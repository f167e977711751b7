"""Reverse-mode automatic differentiation over NumPy arrays.

The training experiments need real gradients (the paper's accuracy results
are about SGD dynamics under different shuffling schemes, with BatchNorm
behaviour as a key mechanism), so this module implements a compact
tape-based autograd: every operation records a backward closure, and
:meth:`Tensor.backward` runs the tape in reverse topological order.

Design notes (per the HPC guides): all heavy math stays inside vectorised
NumPy calls; backward closures reuse forward intermediates instead of
recomputing; broadcasting gradients are reduced with a single
``_unbroadcast`` helper.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable

import numpy as np

__all__ = ["Tensor", "no_grad"]


class _GradMode(threading.local):
    """Whether this thread records the graph: rank threads validate at the
    same time, and one's ``no_grad()`` must not switch the others off."""

    enabled = True


_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction on this thread (validation / running-stat
    updates)."""
    prev = _mode.enabled
    _mode.enabled = False
    try:
        yield
    finally:
        _mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float32) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    return arr


class Tensor:
    """N-dimensional array with reverse-mode autodiff.

    Only float tensors participate in differentiation; ``requires_grad``
    marks leaves (parameters).  Intermediate tensors track their parents so
    :meth:`backward` can traverse the graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = (), _op: str = ""):
        self.data = data if isinstance(data, np.ndarray) else _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._prev: tuple[Tensor, ...] = _prev if _mode.enabled else ()
        self._op = _op

    # ------------------------------------------------------------- properties
    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def item(self) -> float:
        """The value of a scalar tensor as a Python float."""
        return float(self.data)

    # ------------------------------------------------------------ graph build
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(self, data: np.ndarray, parents: tuple, op: str) -> "Tensor":
        if not _mode.enabled:
            return Tensor(data)
        tracked = tuple(p for p in parents if p.requires_grad or p._prev)
        out = Tensor(data, _prev=tracked, _op=op)
        out.requires_grad = bool(tracked)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # C order: closures may push transposed views (conv2d does).
            self.grad = grad.astype(self.data.dtype, order="C", copy=True)
        else:
            self.grad += grad

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data + other.data, (self, other), "add")
        if out.requires_grad:

            def backward(g: np.ndarray) -> None:
                if self.requires_grad or self._prev:
                    self._push(_unbroadcast(g, self.shape))
                if other.requires_grad or other._prev:
                    other._push(_unbroadcast(g, other.shape))

            out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data * other.data, (self, other), "mul")
        if out.requires_grad:

            def backward(g: np.ndarray) -> None:
                if self.requires_grad or self._prev:
                    self._push(_unbroadcast(g * other.data, self.shape))
                if other.requires_grad or other._prev:
                    other._push(_unbroadcast(g * self.data, other.shape))

            out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make(self.data**exponent, (self,), "pow")
        if out.requires_grad:

            def backward(g: np.ndarray) -> None:
                self._push(g * exponent * self.data ** (exponent - 1))

            out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:

            def backward(g: np.ndarray) -> None:
                if self.requires_grad or self._prev:
                    self._push(_unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape))
                if other.requires_grad or other._prev:
                    other._push(_unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape))

            out._backward = backward
        return out

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable sum over ``axis`` (all elements by default)."""
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            in_shape = self.shape

            def backward(g: np.ndarray) -> None:
                gg = g
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    axes = tuple(a % len(in_shape) for a in axes)
                    gg = np.expand_dims(gg, axis=axes)
                self._push(np.broadcast_to(gg, in_shape).astype(self.data.dtype))

            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable mean over ``axis`` (all elements by default)."""
        n = self.data.size if axis is None else _axis_size(self.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ------------------------------------------------------------ shape / view
    def reshape(self, *shape) -> "Tensor":
        """Differentiable reshape (supports -1 inference)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            in_shape = self.shape

            def backward(g: np.ndarray) -> None:
                self._push(g.reshape(in_shape))

            out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        """Differentiable axis permutation (reverse by default)."""
        axes_ = tuple(axes) if axes else None
        out = self._make(self.data.transpose(axes_), (self,), "transpose")
        if out.requires_grad:

            def backward(g: np.ndarray) -> None:
                if axes_ is None:
                    self._push(g.transpose())
                else:
                    inv = np.argsort(axes_)
                    self._push(g.transpose(inv))

            out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes)."""
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = self._make(self.data[key], (self,), "getitem")
        if out.requires_grad:
            in_shape = self.shape
            dtype = self.data.dtype

            def backward(g: np.ndarray) -> None:
                full = np.zeros(in_shape, dtype=dtype)
                np.add.at(full, key, g)
                self._push(full)

            out._backward = backward
        return out

    # ----------------------------------------------------------- element-wise
    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        out = self._make(np.maximum(self.data, 0), (self,), "relu")
        if out.requires_grad:
            mask = self.data > 0
            out._backward = lambda g: self._push(g * mask)
        return out

    # ------------------------------------------------------------ backward pass
    def _push(self, grad: np.ndarray) -> None:
        """Accumulate into this node's grad buffer during the tape walk."""
        self._accumulate(grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode AD from this tensor.

        ``grad`` defaults to ones (so a scalar loss needs no argument).
        Gradients accumulate into every reachable tensor with
        ``requires_grad=True``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward grad shape {grad.shape} != tensor shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Interior activations (nodes with parents) don't need to
                # retain grads; freeing them bounds memory on deep graphs.
                if node._prev and node is not self:
                    node.grad = None


def _axis_size(shape: tuple[int, ...], axis) -> int:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    n = 1
    for a in axes:
        n *= shape[a % len(shape)]
    return n
