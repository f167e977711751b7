"""Message envelope, status objects and wildcard constants.

Mirrors the parts of the MPI standard the paper's Algorithm 1 relies on:
point-to-point messages carry a ``(source, dest, tag)`` envelope, receives
may use ``ANY_SOURCE`` / ``ANY_TAG`` wildcards, and matching is
non-overtaking per (source, tag) channel.
"""

from __future__ import annotations

import itertools
import pickle
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .codec import PackedBatch

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Status",
    "Checksummed",
    "copy_payload",
    "copied_nbytes",
    "payload_crc32",
    "payload_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1

_seq = itertools.count()


@dataclass
class Status:
    """Receive status: who sent the matched message and under which tag."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    count: int = 0
    #: ``Message.posted_s`` of the matched message.
    posted_s: float = 0.0


@dataclass(order=False)
class Message:
    """An in-flight message. ``seq`` preserves global send order so that the
    non-overtaking guarantee holds for wildcard receives too; ``posted_s``
    is ``time.monotonic()`` when the sender built the message for
    ``World.post`` — what a receiver's service time is measured from."""

    source: int
    dest: int
    tag: int
    payload: Any
    seq: int = field(default_factory=lambda: next(_seq))
    posted_s: float = field(default_factory=time.monotonic)

    def matches(self, source: int, tag: int) -> bool:
        """Whether this message satisfies a (source, tag) pattern."""
        return (source == ANY_SOURCE or source == self.source) and (
            tag == ANY_TAG or tag == self.tag
        )


def _crc(obj: Any, acc: int) -> int:
    if isinstance(obj, PackedBatch):
        # Fast path: the batch is already contiguous bytes — CRC runs over
        # header + payload directly, with zero copies (the structural walk
        # below pays one tobytes() copy per array).
        return zlib.crc32(obj.payload, zlib.crc32(obj.header, acc))
    if isinstance(obj, np.ndarray):
        acc = zlib.crc32(repr((obj.dtype.str, obj.shape)).encode(), acc)
        return zlib.crc32(obj.tobytes(), acc)
    if isinstance(obj, (bytes, bytearray)):
        return zlib.crc32(bytes(obj), acc)
    if isinstance(obj, str):
        return zlib.crc32(obj.encode(), acc)
    if isinstance(obj, (bool, int, float, complex, type(None))):
        return zlib.crc32(repr(obj).encode(), acc)
    if isinstance(obj, (tuple, list)):
        acc = zlib.crc32(f"[{len(obj)}".encode(), acc)
        for item in obj:
            acc = _crc(item, acc)
        return zlib.crc32(b"]", acc)
    if isinstance(obj, dict):
        acc = zlib.crc32(f"{{{len(obj)}".encode(), acc)
        for k, v in obj.items():
            acc = _crc(v, _crc(k, acc))
        return zlib.crc32(b"}", acc)
    return zlib.crc32(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), acc)


def payload_crc32(obj: Any) -> int:
    """Content CRC32 of a payload (arrays hashed over dtype+shape+bytes).

    Computed structurally rather than over a serialisation so the in-process
    zero-copy transport (``copy_on_send=False``) checksums the same bytes a
    wire transfer would have carried.
    """
    return _crc(obj, 0) & 0xFFFFFFFF


@dataclass(frozen=True)
class Checksummed:
    """A data-plane payload wrapped in an integrity envelope.

    ``meta`` identifies the transfer (the exchange uses
    ``(epoch, round, attempt)``) and is *not* covered by the CRC — it is the
    control information a receiver needs to classify a message even when the
    payload is damaged.  Frozen so in-flight corruption (the chaos engine)
    must build a new envelope around a *copy*, never mutate a sender's
    buffer.
    """

    meta: tuple
    payload: Any
    crc: int

    @classmethod
    def wrap(cls, payload: Any, meta: tuple = ()) -> "Checksummed":
        """Seal ``payload`` with its content CRC."""
        return cls(meta=tuple(meta), payload=payload, crc=payload_crc32(payload))

    def ok(self) -> bool:
        """Whether the payload still matches the CRC computed at wrap time."""
        return payload_crc32(self.payload) == self.crc


def copy_payload(obj: Any) -> Any:
    """Copy a payload so sender-side mutation after ``isend`` is safe.

    NumPy arrays take the fast path; everything else goes through pickle,
    which matches what a real MPI + mpi4py transfer would have done anyway.
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (int, float, complex, str, bytes, bool, type(None))):
        return obj
    if isinstance(obj, PackedBatch):
        # Zero-copy pass-through: the batch is frozen and its payload view
        # is read-only, so no sender-side mutation can reach the receiver.
        # The aliasing hazard moves to the buffer pool — a pooled backing
        # buffer must only be release()d once no receiver-side view of it
        # can be alive (the exchange protocol's ACK/commit points).
        return obj
    if isinstance(obj, Checksummed):
        # Keep the envelope cheap to copy: the CRC was computed at wrap
        # time and stays valid for a faithful payload copy.
        return Checksummed(
            meta=obj.meta, payload=copy_payload(obj.payload), crc=obj.crc
        )
    if isinstance(obj, tuple):
        # Element-wise, so pass-through members (a PackedBatch riding in a
        # protocol tuple) stay zero-copy while mutable siblings are still
        # defensively copied.
        return tuple(copy_payload(x) for x in obj)
    if isinstance(obj, list):
        return [copy_payload(x) for x in obj]
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def copied_nbytes(orig: Any, copied: Any) -> int:
    """Bytes genuinely duplicated by ``copy_payload(orig) -> copied``.

    The copy-accounting counterpart of :func:`payload_nbytes`: structures
    that passed through by reference (a :class:`~repro.mpi.codec.PackedBatch`,
    immutable scalars) cost nothing even when their *container* was rebuilt
    — e.g. re-wrapping a ``Checksummed`` envelope around a pass-through
    payload charges only the envelope's own meta + CRC word.
    """
    if copied is orig:
        return 0
    if isinstance(orig, Checksummed) and isinstance(copied, Checksummed):
        return copied_nbytes(orig.payload, copied.payload) + payload_nbytes(orig.meta) + 4
    if (
        isinstance(orig, (tuple, list))
        and isinstance(copied, (tuple, list))
        and len(orig) == len(copied)
    ):
        return sum(copied_nbytes(a, b) for a, b in zip(orig, copied))
    return payload_nbytes(copied)


def payload_nbytes(obj: Any) -> int:
    """Approximate the wire size of a payload in bytes.

    The single size model shared by the world's traffic counters, the
    flight recorder (``nbytes`` event fields) and the shuffle-layer volume
    accounting — arrays report ``.nbytes``, scalars a fixed 8 bytes,
    containers recurse, and anything else falls back to its pickled size.
    """
    if isinstance(obj, PackedBatch):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (int, float, bool, type(None))):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, Checksummed):
        # Envelope overhead: the meta tuple plus a 4-byte CRC word.
        return payload_nbytes(obj.payload) + payload_nbytes(obj.meta) + 4
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0
