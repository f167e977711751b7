"""Shared utilities: size units, RNG trees, retry/backoff, ASCII tables,
crash-safe file writes."""

from .ascii_plot import ascii_chart
from .fileio import atomic_save
from .retry import Backoff, Retrier, default_retrier
from .rng import SeedTree, default_rng, hash_unit
from .tables import print_table, render_table
from .units import GB, GIB, KB, MB, MIB, PB, TB, TIB, format_size

__all__ = [
    "ascii_chart",
    "atomic_save",
    "Backoff",
    "Retrier",
    "default_retrier",
    "SeedTree",
    "default_rng",
    "hash_unit",
    "print_table",
    "render_table",
    "format_size",
    "MIB",
    "GIB",
    "TIB",
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
]
