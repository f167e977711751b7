"""Module base class and Parameter (the ``torch.nn.Module`` analogue).

Modules own named parameters and buffers, support train/eval mode (which
BatchNorm keys off), and expose flat parameter access for the optimisers
and for the distributed trainer's gradient allreduce.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Arena, Tensor, _mode

__all__ = ["Parameter", "FlatParameters", "Module", "flat_views"]


class Parameter(Tensor):
    """A leaf tensor registered as a learnable parameter."""

    #: Where a step's first accumulation lands under a flattened model: this
    #: parameter's view of the flat gradient (``None``: allocate, as a Tensor).
    _grad_view: np.ndarray | None = None

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None and self._grad_view is not None:
            self._grad_view[...] = grad
            self.grad = self._grad_view
        else:
            super()._accumulate(grad)

    def __getstate__(self):
        # A copy lays out its own flat gradient (``Module.__getstate__``).
        state = {k: v for k, v in self.__dict__.items() if k != "_grad_view"}
        return state or None, {k: getattr(self, k) for k in Tensor.__slots__}


def flat_views(like: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zeroed flat float32 array, and one view of it per array of ``like``
    (back to back, same shapes)."""
    flat = np.zeros(sum(a.size for a in like), dtype=np.float32)
    offsets = np.cumsum([0] + [a.size for a in like])
    return flat, [flat[i:j].reshape(a.shape) for a, i, j in zip(like, offsets, offsets[1:])]


class FlatParameters(list):
    """A model's trainable parameters re-homed in flat float32 arrays
    (ChainerMN's ``flat`` packing, done once instead of per step): each
    ``p.data`` is a view of :attr:`data`, each gradient lands in a view of
    :attr:`grad`, and :attr:`stats` holds the float32 buffers (BatchNorm's
    running statistics) — so one allreduce carries the model and an
    optimiser updates it as *one* parameter.  The layout is fixed here: a
    parameter frozen or unfrozen later does not move."""

    def __init__(self, model: "Module"):
        super().__init__(model.trainable_parameters())
        self.data, views = flat_views([p.data for p in self])
        self._grad, grad_views = flat_views(views)
        for p, view, grad_view in zip(self, views, grad_views):
            view[...] = p.data
            p.data, p._grad_view = view, grad_view
        owners = [
            (mod, name) for mod in model.modules()
            for name, buf in mod._buffers.items() if buf.dtype == np.float32
        ]
        self.stats, views = flat_views([mod._buffers[name] for mod, name in owners])
        for (mod, name), view in zip(owners, views):
            view[...] = mod._buffers[name]
            mod.set_buffer(name, view)

    @property
    def grad(self) -> np.ndarray | None:
        """This step's flat gradient, or ``None`` before any ``backward()``
        (``zero_grad()`` keeps its meaning).  A parameter the tape did not
        reach counts as zeros; a gradient assigned by hand is copied in."""
        if all(p.grad is None for p in self):
            return None
        for p in self:
            if p.grad is not p._grad_view:
                p._grad_view[...] = 0.0 if p.grad is None else p.grad
                p.grad = p._grad_view
        return self._grad


class Module:
    """Base class: auto-registers Parameters, sub-Modules and buffers."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Non-learnable state (e.g. BatchNorm running statistics) that is
        still part of the model's replicated state."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's array."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ----------------------------------------------------------- introspection
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-name, Parameter) pairs, depth first."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters as a flat list."""
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield (dotted-name, buffer array) pairs, depth first."""
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every sub-module, depth first."""
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    # ------------------------------------------------------------------ modes
    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and all sub-modules."""
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode (running-stat normalisation)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.parameters():
            p.grad = None

    def trainable_parameters(self) -> list["Parameter"]:
        """Parameters with ``requires_grad`` — what an optimiser should own."""
        return [p for p in self.parameters() if p.requires_grad]

    def flatten(self) -> FlatParameters:
        """The model's :class:`FlatParameters`; the first call lays it out."""
        if "_flat" not in self.__dict__:
            object.__setattr__(self, "_flat", FlatParameters(self))
        return self._flat

    def __getstate__(self) -> dict:
        # A copy (a model returned across the ``procs`` pipe) owns separate
        # arrays: the views no longer alias, so it lays itself out afresh,
        # and it makes its own arena on its first call.
        return {k: v for k, v in self.__dict__.items() if k not in ("_flat", "_arena")}

    # ------------------------------------------------------------- state dict
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat copy of parameters and buffers (for broadcast / checkpoints)."""
        state = {f"param:{k}": v.data.copy() for k, v in self.named_parameters()}
        state.update({f"buffer:{k}": v.copy() for k, v in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """In-place load; shapes must match exactly."""
        params = dict(self.named_parameters())
        for key, value in state.items():
            kind, _, name = key.partition(":")
            if kind == "param":
                if name not in params:
                    raise KeyError(f"unknown parameter {name!r}")
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {params[name].data.shape} vs {value.shape}"
                    )
                params[name].data[...] = value
            elif kind == "buffer":
                self._load_buffer(name, value)
            else:
                raise KeyError(f"malformed state key {key!r}")

    def _load_buffer(self, dotted: str, value: np.ndarray) -> None:
        parts = dotted.split(".")
        mod: Module = self
        for part in parts[:-1]:
            mod = mod._modules[part]
        leaf = parts[-1]
        if leaf not in mod._buffers:
            raise KeyError(f"unknown buffer {dotted!r}")
        mod._buffers[leaf][...] = value
        object.__setattr__(mod, leaf, mod._buffers[leaf])

    # ------------------------------------------------------------------- call
    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        raise NotImplementedError

    def __call__(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float32))
        if _mode.arena is not None:  # a sub-module: the outermost call's arena
            return self.forward(x)
        if "_arena" not in self.__dict__:
            object.__setattr__(self, "_arena", Arena())
        _mode.arena = self._arena
        try:
            return self.forward(x)
        finally:
            _mode.arena = None
