"""Reverse-mode automatic differentiation over NumPy arrays.

The training experiments need real gradients (the paper's accuracy results
are about SGD dynamics under different shuffling schemes, with BatchNorm
behaviour as a key mechanism), so this module implements a compact
tape-based autograd: every operation records a graph node, and
:meth:`Tensor.backward` runs the nodes in reverse topological order,
releasing each one as it goes (PyTorch's ``retain_graph=False``).  A node
holds no tensor data: its parents are nodes, and its backward closure
keeps only the arrays it reads, so an activation no backward needs goes
back to the arena as soon as the forward drops it.

A model's step allocates its activation-sized arrays from the model's
:class:`Arena` (the outermost ``Module.__call__`` makes it current; each
graph node keeps it for its backward), so every step after the first runs
in the arrays the first one made instead of handing pages back to the
allocator.

Design notes (per the HPC guides): all heavy math stays inside vectorised
NumPy calls; backward closures reuse forward intermediates instead of
recomputing; broadcasting gradients are reduced with a single
``_unbroadcast`` helper.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading
from typing import Callable

import numpy as np

__all__ = ["Arena", "Tensor", "no_grad"]


class _GradMode(threading.local):
    """Whether this thread records the graph, and the arena its ops take
    arrays from: rank threads step their own replicas at the same time, and
    one's ``no_grad()`` or arena must not leak into the others."""

    enabled = True
    arena: "Arena | None" = None


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


class Arena:
    """One model's step arrays by ``(shape, dtype)``: :meth:`take` hands a
    block out again once nothing but the arena references it, so the arena
    holds at most the step's working set per shape (a caching allocator, as
    under PyTorch).  What it hands out is a view of the block, and so is
    every view of that: a block a live tensor, closure or view still reads
    is never handed out.  One thread steps a model at a time (each rank
    steps its own replica); two calling one arena at once could share a
    block."""

    def __init__(self) -> None:
        self._blocks: dict[tuple, list[tuple[np.ndarray, int]]] = {}
        self._made = 0

    def __len__(self) -> int:
        return self._made

    def take(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """An array of ``shape`` / ``dtype`` on an idle block (contents
        undefined)."""
        bucket = self._blocks.setdefault((shape, dtype), [])
        for i in range(len(bucket) - 1, -1, -1):  # the last one used first: still in cache
            if sys.getrefcount(bucket[i][0]) == _IDLE:
                bucket.append(bucket.pop(i))
                break
        else:
            # numpy's allocator, which asks for huge pages on large blocks.
            # Each new array starts five cache lines further into its page
            # than the last, so the operands of one elementwise loop never
            # share a page offset (4K aliasing: such loops ran a third slower).
            self._made += 1
            block = np.empty(math.prod(shape) * dtype.itemsize + 4096, np.uint8)
            bucket.append((block, (self._made * 320 - block.ctypes.data) % 4096))
        block, offset = bucket[-1]
        return np.ndarray(shape, dtype, buffer=block, offset=offset)


def _idle_refs() -> int:
    # What ``Arena.take`` counts for a block only its bucket holds.
    bucket = [(np.empty(0), 0)]
    return sys.getrefcount(bucket[0][0])


_IDLE = _idle_refs()


#: Below this an array is malloc's to recycle: its free lists hand small
#: blocks back without a page fault, for less than the arena's bookkeeping.
_ARENA_MIN_BYTES = 1 << 16


def _empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array from the current arena, or a fresh one when
    it is small or no model's call or tape is running (a bare functional
    call)."""
    arena, dtype = _mode.arena, np.dtype(dtype)
    if arena is None or math.prod(shape) * dtype.itemsize < _ARENA_MIN_BYTES:
        return np.empty(shape, dtype)
    return arena.take(tuple(shape), dtype)


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


def _add_into(acc: np.ndarray | None, grad: np.ndarray, dtype) -> np.ndarray:
    """``acc + grad`` in ``acc``; a C-order ``dtype`` array when ``acc`` is
    ``None`` (closures may push transposed views: conv2d does)."""
    if acc is None:
        acc = _empty(grad.shape, dtype)
        np.copyto(acc, grad, casting="unsafe")
    else:
        acc += grad
    return acc


class _Node:
    """A tensor's place in the graph, without its data: the gradient pushed
    into it so far, the closure that sends it on to the parent nodes
    (``None`` where no gradient flows), the arena that closure allocates
    from, and the op's name.  A leaf's node has no parents and routes what
    is pushed into its tensor's ``_accumulate``.  :meth:`Tensor.backward`
    sets ``parents`` to ``None`` once the node has run."""

    __slots__ = ("grad", "backward", "parents", "arena", "op", "dtype", "leaf")

    def __init__(self, parents: tuple, op: str, dtype=None, leaf: "Tensor | None" = None):
        self.grad: np.ndarray | None = None
        self.backward: Callable[[np.ndarray], None] | None = None
        self.parents: tuple[_Node | None, ...] | None = parents
        self.arena = _mode.arena if parents else None
        self.op, self.dtype, self.leaf = op, dtype, leaf

    def push(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Accumulate ``grad`` during the walk; a ``fresh`` one (a C-order
        array the caller made and drops) may become this node's grad."""
        if self.leaf is not None:
            self.leaf._accumulate(grad)
        elif fresh and self.grad is None and grad.dtype == self.dtype:
            self.grad = grad
        else:
            self.grad = _add_into(self.grad, grad, self.dtype)


class Tensor:
    """N-dimensional array with reverse-mode autodiff.

    Only float tensors participate in differentiation; ``requires_grad``
    marks leaves (parameters).  An op's result that a gradient flows
    through holds its graph node, whose parents are the inputs' nodes, so
    :meth:`backward` can traverse the graph without holding their data.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

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

    def _graph_node(self) -> _Node | None:
        """Where a gradient for this tensor goes: its op's node, a node
        routing into this leaf when it requires grad, or ``None``."""
        if self._node is None and self.requires_grad:
            return _Node((), "", leaf=self)
        return self._node

    def _make(self, data: np.ndarray, parents: tuple, op: str) -> "Tensor":
        """An op's result; when a gradient flows into any of ``parents``,
        its node's ``parents`` are theirs, in the same order."""
        out = Tensor(data)
        if _mode.enabled:
            nodes = tuple(p._graph_node() for p in parents)
            if any(nodes):
                out.requires_grad = True
                out._node = _Node(nodes, op, out.data.dtype)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        self.grad = _add_into(self.grad, grad, self.data.dtype)

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        if a.shape == b.shape and a.dtype == b.dtype and a.ndim:  # the residual add
            data = np.add(a, b, out=_empty(a.shape, a.dtype))
        else:
            data = a + b
        out = self._make(data, (self, other), "add")
        if out.requires_grad:
            (sn, on), s_shape, o_shape = out._node.parents, self.shape, other.shape

            def backward(g: np.ndarray) -> None:
                if sn is not None:
                    sn.push(_unbroadcast(g, s_shape))
                if on is not None:
                    on.push(_unbroadcast(g, o_shape))

            out._node.backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out = self._make(a * b, (self, other), "mul")
        if out.requires_grad:
            sn, on = out._node.parents

            def backward(g: np.ndarray) -> None:
                if sn is not None:
                    sn.push(_unbroadcast(g * b, a.shape))
                if on is not None:
                    on.push(_unbroadcast(g * a, b.shape))

            out._node.backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        out = self._make(a**exponent, (self,), "pow")
        if out.requires_grad:
            (sn,) = out._node.parents
            out._node.backward = lambda g: sn.push(g * exponent * a ** (exponent - 1))
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out = self._make(a @ b, (self, other), "matmul")
        if out.requires_grad:
            sn, on = out._node.parents

            def backward(g: np.ndarray) -> None:
                if sn is not None:
                    sn.push(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
                if on is not None:
                    on.push(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))

            out._node.backward = backward
        return out

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None) -> "Tensor":
        """Differentiable sum over ``axis`` (all elements by default)."""
        out = self._make(self.data.sum(axis=axis), (self,), "sum")
        if out.requires_grad:
            (sn,), in_shape, dtype = out._node.parents, self.shape, self.data.dtype

            def backward(g: np.ndarray) -> None:
                gg = g
                if axis is not None:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    axes = tuple(a % len(in_shape) for a in axes)
                    gg = np.expand_dims(gg, axis=axes)
                sn.push(np.broadcast_to(gg, in_shape).astype(dtype, copy=False))

            out._node.backward = backward
        return out

    def mean(self, axis=None) -> "Tensor":
        """Differentiable mean over ``axis`` (all elements by default)."""
        n = self.data.size if axis is None else _axis_size(self.shape, axis)
        return self.sum(axis=axis) * (1.0 / n)

    # ------------------------------------------------------------ shape / view
    def reshape(self, *shape) -> "Tensor":
        """Differentiable reshape (supports -1 inference)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            (sn,), in_shape = out._node.parents, self.shape
            out._node.backward = lambda g: sn.push(g.reshape(in_shape))
        return out

    def transpose(self, *axes) -> "Tensor":
        """Differentiable axis permutation (reverse by default)."""
        axes_ = tuple(axes) if axes else None
        out = self._make(self.data.transpose(axes_), (self,), "transpose")
        if out.requires_grad:
            (sn,) = out._node.parents
            inv = None if axes_ is None else tuple(np.argsort(axes_))
            out._node.backward = lambda g: sn.push(g.transpose(inv))
        return out

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes)."""
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = self._make(self.data[key], (self,), "getitem")
        if out.requires_grad:
            (sn,), in_shape, dtype = out._node.parents, self.shape, self.data.dtype

            def backward(g: np.ndarray) -> None:
                full = np.zeros(in_shape, dtype=dtype)
                np.add.at(full, key, g)
                sn.push(full)

            out._node.backward = backward
        return out

    # ----------------------------------------------------------- element-wise
    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        data = self.data
        out = self._make(np.maximum(data, 0, out=_empty(data.shape, data.dtype)), (self,), "relu")
        if out.requires_grad:
            (sn,) = out._node.parents
            mask = np.greater(data, 0, out=_empty(data.shape, np.bool_))
            out._node.backward = lambda g: sn.push(
                np.multiply(g, mask, out=_empty(g.shape, g.dtype)), fresh=True
            )
        return out

    # ------------------------------------------------------------ backward pass
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode AD from this tensor.

        ``grad`` defaults to ones (so a scalar loss needs no argument) and
        stays in this tensor's ``grad``.  Gradients accumulate into every
        reachable tensor with ``requires_grad=True``.  The walk releases the
        graph: each node drops its closure and parents once it has run, so
        what the closures saved goes back to the arena before the next node
        runs, and a second ``backward()`` through it raises ``RuntimeError``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward grad shape {grad.shape} != tensor shape {self.data.shape}"
                )

        topo: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [] if self._node is None else [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node.parents is None:
                raise RuntimeError(
                    "backward() through a graph an earlier backward() released; "
                    "run the forward again"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        if topo:
            topo[-1].grad = self.grad
        outer = _mode.arena
        try:
            while topo:
                node = topo.pop()  # the walk holds no node it has passed
                if not node.parents:
                    continue  # a leaf
                if node.backward is not None and node.grad is not None:
                    _mode.arena = node.arena
                    node.backward(node.grad)
                node.grad, node.backward, node.parents, node.arena = None, None, None, None
        finally:
            _mode.arena = outer


def _axis_size(shape: tuple[int, ...], axis) -> int:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    n = 1
    for a in axes:
        n *= shape[a % len(shape)]
    return n
