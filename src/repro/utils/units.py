"""Byte-size units and human-readable formatting.

The paper reasons about dataset sizes (140 GB ImageNet, 8.2 TB DeepCAM),
per-worker storage budgets ``(1+Q) * N/M`` and per-epoch communication
volumes (e.g. "each worker sends 225 MiB").  This module centralises the
unit arithmetic so every subsystem agrees on what a "GiB" is.
"""

from __future__ import annotations

__all__ = [
    "MIB",
    "GIB",
    "TIB",
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "format_size",
]

MIB = 1024**2
GIB = 1024**3
TIB = 1024**4

KB = 1000
MB = 1000**2
GB = 1000**3
TB = 1000**4
PB = 1000**5


def format_size(nbytes: float, *, binary: bool = True, precision: int = 2) -> str:
    """Format a byte count using binary (GiB) or decimal (GB) multiples."""
    if nbytes < 0:
        return "-" + format_size(-nbytes, binary=binary, precision=precision)
    step = 1024.0 if binary else 1000.0
    suffixes = (
        ["B", "KiB", "MiB", "GiB", "TiB", "PiB"]
        if binary
        else ["B", "KB", "MB", "GB", "TB", "PB"]
    )
    value = float(nbytes)
    for suffix in suffixes:
        if value < step or suffix == suffixes[-1]:
            if suffix == "B":
                return f"{int(value)} B"
            return f"{value:.{precision}f} {suffix}"
        value /= step
    raise AssertionError("unreachable")
