"""Kaiming weight initialisation with explicit RNGs.

Every worker must initialise identical weights ("initialize the weights
with the same random seed", §IV-A), so all initialisers take a Generator
rather than using global state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kaiming_uniform",
    "compute_fans",
]


def compute_fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """(fan_in, fan_out) for dense (out,in) and conv (F,C,KH,KW) shapes."""
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        out_f, in_f = shape
        return in_f, out_f
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def kaiming_uniform(shape, *, rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He initialisation, uniform variant (ReLU networks)."""
    fan_in, _ = compute_fans(tuple(shape))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
