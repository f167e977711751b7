"""Seeded random-number-generator trees for reproducible SPMD runs.

The paper's Algorithm 1 relies on *all workers drawing the same destination
permutation from a shared seed* ("all workers use the same random seed ...
to assure single source and single destination for each exchanged sample").
At the same time each worker needs an independent stream for its local
shuffle.  :class:`SeedTree` derives both kinds of streams deterministically
from one root seed using ``numpy``'s ``SeedSequence`` spawning so that

* the *shared* stream is bit-identical on every rank, and
* the *per-rank* streams are statistically independent of each other and of
  the shared stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "SeedTree",
    "default_rng",
    "default_rng_state",
    "restore_default_rng_state",
    "hash_unit",
]


def hash_unit(*keys: object) -> float:
    """Deterministic value in [0, 1) that is a pure function of ``keys``.

    The decision primitive for fault injection and retry jitter: unlike a
    drawn stream, a keyed hash is immune to thread interleaving — whether
    rank 3's send happens before or after rank 5's, the fault decision for
    a given (seed, message identity, attempt) is the same, which is what
    makes chaos runs bit-reproducible.  Keys are stringified, so use only
    value-stable components (ints, strings, tuples thereof).
    """
    blob = "\x1f".join(str(k) for k in keys).encode()
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class SeedTree:
    """Deterministic hierarchy of RNG streams derived from a root seed.

    Streams are addressed by string keys; the same ``(root_seed, key)`` pair
    always yields the same stream.  Per-epoch streams are derived via
    ``key = f"{name}/epoch{epoch}"`` so that epoch *e* of a restarted run
    replays exactly.
    """

    def __init__(self, root_seed: int):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = int(root_seed)

    def generator(self, *keys: object) -> np.random.Generator:
        """Return a fresh Generator for the stream addressed by ``keys``."""
        entropy = [self.root_seed] + [_key_to_int(k) for k in keys]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def shared(self, name: str, epoch: int = 0) -> np.random.Generator:
        """Stream identical on all ranks (used for the exchange permutation)."""
        return self.generator("shared", name, epoch)

    def per_rank(self, name: str, rank: int, epoch: int = 0) -> np.random.Generator:
        """Stream unique to ``rank`` (used for local shuffles)."""
        return self.generator("rank", rank, name, epoch)


def _key_to_int(key: object) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, str):
        # Stable 32-bit FNV-1a hash: Python's hash() is salted per process,
        # which would break cross-run reproducibility.
        h = 0x811C9DC5
        for byte in key.encode():
            h ^= byte
            h = (h * 0x01000193) & 0xFFFFFFFF
        return h
    raise TypeError(f"seed key must be int or str, got {type(key).__name__}")


# ---------------------------------------------------------------- default rng
#: Root seed of the process-wide default stream.  Arbitrary but fixed, so a
#: run that never passes explicit generators is still reproducible.
DEFAULT_ROOT_SEED = 0x0DEF

_default_generator: np.random.Generator | None = None


def default_rng() -> np.random.Generator:
    """The process-wide seeded stream for components built without an
    explicit ``rng``.

    Unlike the old ``np.random.default_rng(0)`` fallbacks scattered through
    the layers (which handed every caller the *same* fresh stream, so two
    independently constructed models silently shared their initialization
    draws), this returns one shared generator that advances with use:
    deterministic per process, distinct across consumers.  Anything that
    must be replicated across SPMD ranks should pass an explicit
    :class:`SeedTree` stream instead — this default is rank-agnostic.
    """
    global _default_generator
    if _default_generator is None:
        _default_generator = SeedTree(DEFAULT_ROOT_SEED).generator("default")
    return _default_generator


def default_rng_state() -> dict:
    """Snapshot the default stream for checkpointing.

    Captures both the bit-generator state (the stream's exact position) and
    the seed-tree root it was derived from, so a restore can verify it is
    splicing into the same stream."""
    gen = default_rng()
    return {
        "root_seed": DEFAULT_ROOT_SEED,
        "state": gen.bit_generator.state,
    }


def restore_default_rng_state(snapshot: dict) -> None:
    """Restore the default stream to a checkpointed position.

    Asserts the seed-tree position: the checkpoint must have been taken
    from a stream rooted at the same seed as the current one, otherwise the
    resumed run would silently mix two unrelated streams."""
    if snapshot["root_seed"] != DEFAULT_ROOT_SEED:
        raise ValueError(
            f"checkpointed default stream is rooted at seed "
            f"{snapshot['root_seed']:#x} but this process uses "
            f"{DEFAULT_ROOT_SEED:#x}"
        )
    default_rng().bit_generator.state = snapshot["state"]
