"""Zero-copy batch codec for the exchange hot path.

Each exchange frame's ``(sample, label, gid)`` triples travel as one flat
envelope, so the wire layer never pickles a sample and the integrity layer
never walks a structure calling ``tobytes()`` (a full copy per checksum):

* a compact ``struct``-packed **header** (dtype / shape / label / gid /
  offset per sample) — no pickle anywhere on the data plane;
* one **contiguous payload** holding every sample's bytes back to back,
  64-byte aligned, filled by straight ``memoryview`` copies (optionally
  into a :class:`~repro.mpi.pool.BufferPool` buffer);
* **zero-copy decode**: :func:`unpack_samples` returns ``np.frombuffer``
  views into the payload — no per-sample materialisation, and CRC32 runs
  over the contiguous buffer without copying anything.

A :class:`PackedBatch` is frozen and its payload view is read-only, so it
is safe to share by reference across ranks (the in-process transport
passes it through un-copied — see ``copy_payload``).  Ownership of a
pooled backing buffer travels with the batch: the producing rank packs,
the consuming rank ``release()``\\ s the buffer once no view of it is
left (the exchange copies the samples out first, so its frames recycle)
or ``adopt()``\\ s it to keep long-lived views valid (the serve tier).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from .pool import BufferPool, PoolBuffer

__all__ = ["PackedBatch", "pack_samples", "unpack_samples", "packed_size"]

_MAGIC = b"RPB1"
# Per-record fixed part: dtype-string length (u8), ndim (u8), label (i64),
# gid (i64, -1 = untracked), payload offset (u64), payload nbytes (u64).
_REC_FIXED = struct.Struct("<BBqqQQ")
_DIM = struct.Struct("<Q")
_HEAD = struct.Struct("<4sI")
#: Payload alignment: every sample starts on a 64-byte boundary so the
#: decoded views are cache-line aligned regardless of dtype.
ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) & ~(ALIGN - 1)


@dataclass(frozen=True)
class PackedBatch:
    """One wire envelope: header bytes + contiguous read-only payload.

    ``buf`` pins the backing memory (a :class:`~repro.mpi.pool.PoolBuffer`
    when packed through a pool, else the raw ``bytearray``); callers
    retire it through :meth:`release` / :meth:`adopt` when they are done
    with the *views*, never directly.
    """

    header: bytes
    payload: memoryview
    buf: Any = field(default=None, compare=False, repr=False)

    @property
    def nbytes(self) -> int:
        """Wire size: header plus payload bytes."""
        return len(self.header) + self.payload.nbytes

    @property
    def count(self) -> int:
        """Number of samples in the batch."""
        magic, n = _HEAD.unpack_from(self.header, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad PackedBatch magic {magic!r}")
        return n

    def crc32(self) -> int:
        """CRC32 over header + payload, computed on the contiguous bytes —
        no ``tobytes()`` copies, unlike the structural payload hash."""
        return zlib.crc32(self.payload, zlib.crc32(self.header)) & 0xFFFFFFFF

    def release(self) -> None:
        """Return a pooled backing buffer for reuse.  Only call when no
        decoded view of this batch can still be alive."""
        if isinstance(self.buf, PoolBuffer):
            self.buf.release()

    def adopt(self) -> None:
        """Detach a pooled backing buffer from its pool: decoded views now
        own the bytes (GC frees them when the last view dies)."""
        if isinstance(self.buf, PoolBuffer):
            self.buf.adopt()

    def try_adopt(self) -> bool:
        """Idempotent :meth:`adopt` for teardown paths: after an aborted
        exchange the sending and receiving rank may both hold a reference
        to the same in-flight batch, and exactly one of them should win
        the retirement.  Returns whether this call detached the buffer."""
        if isinstance(self.buf, PoolBuffer):
            return self.buf.pool.adopt_if_in_use(self.buf)
        return False


def packed_size(entries: Sequence[tuple[np.ndarray, int, int | None]]) -> int:
    """Payload bytes :func:`pack_samples` will need for ``entries``
    (aligned sample extents, excluding the header)."""
    offset = 0
    for sample, _label, _gid in entries:
        offset = _aligned(offset) + np.asarray(sample).nbytes
    return offset


def pack_samples(
    entries: Iterable[tuple[np.ndarray, int, int | None]],
    *,
    pool: BufferPool | None = None,
) -> PackedBatch:
    """Coalesce ``(sample, label, gid)`` triples into one wire envelope.

    Samples may have heterogeneous dtypes and shapes; each is copied once
    (the unavoidable gather into wire form) into a contiguous buffer
    acquired from ``pool`` when given.  Object-dtype arrays are rejected:
    the codec's whole point is that payload bytes never meet pickle.
    """
    entries = list(entries)
    parts: list[bytes] = [_HEAD.pack(_MAGIC, len(entries))]
    arrays: list[tuple[np.ndarray, int]] = []
    offset = 0
    for sample, label, gid in entries:
        arr = np.asarray(sample)
        if not arr.flags.c_contiguous:
            # Note: not ascontiguousarray(), which would promote 0-d arrays
            # to shape (1,) and break shape round-tripping.
            arr = np.ascontiguousarray(arr)
        if arr.dtype.hasobject:
            raise ValueError("object-dtype arrays cannot be packed zero-copy")
        dt = arr.dtype.str.encode("ascii")
        if len(dt) > 255 or arr.ndim > 255:
            raise ValueError(f"dtype/ndim too wide to pack: {arr.dtype} ndim={arr.ndim}")
        offset = _aligned(offset)
        parts.append(
            _REC_FIXED.pack(
                len(dt), arr.ndim, int(label),
                -1 if gid is None else int(gid), offset, arr.nbytes,
            )
        )
        parts.append(dt)
        for dim in arr.shape:
            parts.append(_DIM.pack(dim))
        arrays.append((arr, offset))
        offset += arr.nbytes
    header = b"".join(parts)

    if pool is not None:
        buf: Any = pool.acquire(offset)
        dest = buf.view
    else:
        buf = bytearray(offset)
        dest = memoryview(buf)
    for arr, off in arrays:
        if arr.nbytes:
            dest[off : off + arr.nbytes] = memoryview(arr).cast("B")
    payload = (
        buf.readonly() if isinstance(buf, PoolBuffer)
        else memoryview(buf).toreadonly()
    )
    return PackedBatch(header=header, payload=payload, buf=buf)


def unpack_samples(
    batch: PackedBatch, *, copy: bool = False
) -> list[tuple[np.ndarray, int, int | None]]:
    """Decode a :class:`PackedBatch` back into ``(sample, label, gid)``.

    With ``copy=False`` (the default) the returned arrays are read-only
    ``np.frombuffer`` views into the batch payload: zero byte copies, at
    the price of every view pinning the *whole* backing buffer
    (``batch.adopt()`` records that hand-off).  ``copy=True`` materialises
    private writable arrays instead — what the exchange installs, so it
    can ``release()`` the buffer for reuse.
    """
    n = batch.count
    payload = batch.payload
    out: list[tuple[np.ndarray, int, int | None]] = []
    pos = _HEAD.size
    header = batch.header
    for _ in range(n):
        dt_len, ndim, label, gid, offset, nbytes = _REC_FIXED.unpack_from(header, pos)
        pos += _REC_FIXED.size
        dtype = np.dtype(header[pos : pos + dt_len].decode("ascii"))
        pos += dt_len
        shape = tuple(
            _DIM.unpack_from(header, pos + i * _DIM.size)[0] for i in range(ndim)
        )
        pos += ndim * _DIM.size
        if offset + nbytes > payload.nbytes:
            raise ValueError(
                f"corrupt header: sample extent [{offset}, {offset + nbytes}) "
                f"outside payload of {payload.nbytes} B"
            )
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype=dtype)
        arr = arr.reshape(shape)
        if copy:
            arr = arr.copy()
        out.append((arr, int(label), None if gid == -1 else int(gid)))
    return out
