"""Zero-copy batch codec for the exchange hot path.

Each exchange frame's ``(sample, label, gid)`` triples travel as one flat
envelope, so the wire layer never pickles a sample and the integrity layer
never walks a structure calling ``tobytes()`` (a full copy per checksum):

* a compact ``struct``-packed **header**: magic and sample count, the
  frame's one sample class (dtype string, ndim, dims), then ``n`` int64
  labels and ``n`` int64 gids — no pickle anywhere on the data plane;
* one **contiguous payload** holding every sample's bytes back to back,
  64-byte aligned, filled by straight ``memoryview`` copies into a
  :class:`~repro.mpi.pool.BufferPool` buffer;
* **zero-copy decode**: :func:`unpack_samples` returns views into the
  payload — no per-sample materialisation, and CRC32 runs over the
  contiguous buffer without copying anything.

Both directions speak in **columns** (:class:`SampleBlock`: samples,
label vector, gid vector).  A frame is *homogeneous* — one dtype and
shape, which is every frame the exchange packs — so its header names the
class once and the sample extents follow from ``n`` and the class's
aligned stride: it is written from and read back as one ``(n, *shape)``
block and two int64 columns.

A :class:`PackedBatch` is frozen and its payload view is read-only, so it
is safe to share by reference across ranks (the in-process transport
passes every payload by reference).  Ownership of a
pooled backing buffer travels with the batch: the producing rank packs,
the consuming rank ``release()``\\ s the buffer once no view of it is
left (the exchange copies the samples out first, so its frames recycle)
or ``try_adopt()``\\ s it to keep long-lived views valid (an aborted
exchange whose peer may still read the frame).
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .pool import BufferPool, PoolBuffer

__all__ = [
    "PackedBatch", "SampleBlock", "pack_samples", "unpack_samples",
]

_MAGIC = b"RPB2"
# Magic and sample count, then the class record's dtype-string length (u8)
# and ndim (u8); the dtype string, ndim u64 dims and the label and gid
# columns (n int64 each, gid -1 = untracked) follow.
_HEAD = struct.Struct("<4sI")
_CLASS = struct.Struct("<BB")
#: Payload alignment: every sample starts on a 64-byte boundary so the
#: decoded views are cache-line aligned regardless of dtype.
ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) & ~(ALIGN - 1)


@dataclass(frozen=True)
class PackedBatch:
    """One wire envelope: header bytes + contiguous read-only payload.

    ``buf`` pins the backing memory (a :class:`~repro.mpi.pool.PoolBuffer`
    when packed, a raw ``bytearray`` when a transport copied it, ``None``
    for an empty batch); callers
    retire it through :meth:`release` / :meth:`try_adopt` when they are done
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

    def release(self) -> None:
        """Return a pooled backing buffer for reuse.  Only call when no
        decoded view of this batch can still be alive."""
        if isinstance(self.buf, PoolBuffer):
            self.buf.release()

    def try_adopt(self) -> bool:
        """Detach a pooled backing buffer from its pool, idempotently, for
        teardown paths: after an aborted exchange the sending and receiving
        rank may both hold a reference to the same in-flight batch, and
        exactly one of them should win the retirement.  Decoded views then
        own the bytes.  Returns whether this call detached the buffer."""
        if isinstance(self.buf, PoolBuffer):
            return self.buf.pool.adopt_if_in_use(self.buf)
        return False


@dataclass(frozen=True, eq=False)
class SampleBlock(SequenceABC):
    """``n`` samples as columns; reads as a sequence of
    ``(sample, label, gid)`` triples.

    ``samples`` is one ``(n, *shape)`` array — a *block* — when the samples
    share a dtype and a shape of at least one dimension, else a list of
    ``n`` arrays.  ``labels`` and ``gids`` are int64 vectors; gid ``-1``
    means untracked (``None`` in a triple).  Indexing with an integer array
    returns the reordered columns.
    """

    samples: np.ndarray | Sequence[np.ndarray]
    labels: np.ndarray
    gids: np.ndarray

    @classmethod
    def concat(cls, blocks: Sequence["SampleBlock"]) -> "SampleBlock":
        """One block holding ``blocks`` back to back (samples as a list of
        the inputs' rows: nothing is copied)."""
        return cls(
            [row for block in blocks for row in block.samples],
            np.concatenate([block.labels for block in blocks]),
            np.concatenate([block.gids for block in blocks]),
        )

    @property
    def nbytes(self) -> int:
        """Logical size under the shared wire-size model
        (:func:`~repro.mpi.message.payload_nbytes` of the triples): sample
        bytes plus 8 for the label and 8 for the gid, tracked or not."""
        samples = self.samples
        if not isinstance(samples, np.ndarray):
            return sum(sample.nbytes for sample in samples) + 16 * len(samples)
        return samples.nbytes + 16 * len(samples)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            gid = int(self.gids[key])
            return self.samples[key], int(self.labels[key]), None if gid < 0 else gid
        samples = self.samples
        if isinstance(samples, np.ndarray) or isinstance(key, slice):
            samples = samples[key]
        else:
            samples = [samples[i] for i in np.asarray(key).tolist()]
        return SampleBlock(samples, self.labels[key], self.gids[key])


def _block_view(
    buffer: memoryview, n: int, dtype: np.dtype, shape: tuple[int, ...], stride: int
) -> np.ndarray:
    """``n`` aligned sample extents of ``buffer`` as one ``(n, *shape)``
    array (writable iff the buffer is)."""
    inner = [dtype.itemsize] * len(shape)
    for axis in range(len(shape) - 2, -1, -1):
        inner[axis] = inner[axis + 1] * shape[axis + 1]
    # Through frombuffer so the view's base chain ends at the memoryview
    # (np.ndarray(buffer=memoryview) would unwrap it to the raw exporter).
    flat = np.frombuffer(buffer, dtype=np.uint8)
    return np.ndarray((n, *shape), dtype, buffer=flat, strides=(stride, *inner))


def _block_class(samples) -> tuple[np.dtype, tuple[int, ...]] | None:
    """``(dtype, shape)`` if ``samples`` can travel as a block, else None."""
    if isinstance(samples, np.ndarray):
        dtype, shape = samples.dtype, samples.shape[1:]
    else:
        dtype, shape = samples[0].dtype, samples[0].shape
        for sample in samples:
            if sample.dtype != dtype or sample.shape != shape:
                return None
    if not shape or dtype.hasobject or len(dtype.str) > 255 or len(shape) > 255:
        return None
    return dtype, shape


def pack_samples(block: SampleBlock, *, pool: BufferPool) -> PackedBatch:
    """Coalesce a :class:`SampleBlock` into one wire envelope.

    The samples must share one dtype and a shape of at least one dimension
    (every frame the exchange packs does; a batch may also be empty): each
    is copied once (the unavoidable gather into wire form) into a
    contiguous buffer acquired from ``pool``.  Object-dtype
    arrays are rejected: the codec's whole point is that payload bytes
    never meet pickle.
    """
    if not len(block):
        return PackedBatch(header=_HEAD.pack(_MAGIC, 0), payload=memoryview(b""))
    cls = _block_class(block.samples)
    if cls is None:
        raise ValueError(
            "a frame packs one class of samples: one non-object-dtype and one "
            "shape of at least one dimension"
        )
    dtype, shape = cls
    n = len(block)
    nbytes = dtype.itemsize * math.prod(shape)
    stride = _aligned(nbytes)
    buf = pool.acquire((n - 1) * stride + nbytes)
    dest = buf.view
    samples = block.samples
    if nbytes and isinstance(samples, np.ndarray):
        _block_view(dest, n, dtype, shape, stride)[...] = samples
    elif nbytes:
        # Row by row through the buffer protocol: unlike an ndarray
        # assignment this never drops the GIL, and retaking it from a
        # training thread costs far more than the 12 KB memcpy.
        for off, row in zip(range(0, n * stride, stride), samples):
            if not row.flags.c_contiguous:
                row = np.ascontiguousarray(row)
            dest[off : off + nbytes] = memoryview(row).cast("B")
    dt = dtype.str.encode("ascii")
    header = b"".join((
        _HEAD.pack(_MAGIC, n),
        _CLASS.pack(len(dt), len(shape)),
        dt,
        struct.pack(f"<{len(shape)}Q", *shape),
        np.asarray(block.labels, "<i8").tobytes(),
        np.asarray(block.gids, "<i8").tobytes(),
    ))
    return PackedBatch(header=header, payload=buf.readonly(), buf=buf)


def unpack_samples(batch: PackedBatch) -> SampleBlock:
    """Decode a :class:`PackedBatch` back into ``(sample, label, gid)``
    triples, held as the columns of a :class:`SampleBlock`.

    The returned arrays are read-only views into the batch payload: zero
    byte copies, at the price of every view pinning the *whole* backing
    buffer (``batch.try_adopt()`` records that hand-off; the exchange
    instead copies the block into storage-owned slots and
    ``release()``\\ s the buffer).

    The header names one dtype and shape, whose ``n`` aligned extents
    decode into one ``(n, *shape)`` block; a header of any other length, an
    object, zero-dim or unparsable class, or extents past the payload are
    refused as corrupt.
    """
    n = batch.count
    if not n:
        return SampleBlock([], np.empty(0, np.int64), np.empty(0, np.int64))
    block = _unpack_block(batch, n)
    if block is None:
        raise ValueError(
            "corrupt header: not one sample class followed by n labels and n gids"
        )
    return block


def _unpack_block(batch: PackedBatch, n: int) -> SampleBlock | None:
    """Column-wise decode, or None if the header is not one class record
    and two columns of ``n``."""
    header, payload = batch.header, batch.payload
    dt_at = _HEAD.size + _CLASS.size
    if len(header) < dt_at:
        return None
    dt_len, ndim = _CLASS.unpack_from(header, _HEAD.size)
    dims_at = dt_at + dt_len
    cols_at = dims_at + 8 * ndim
    if not (ndim and dt_len) or len(header) != cols_at + 16 * n:
        return None
    try:
        dtype = np.dtype(header[dt_at:dims_at].decode("ascii"))
    except (TypeError, ValueError):
        return None
    if dtype.hasobject:
        return None
    shape = struct.unpack_from(f"<{ndim}Q", header, dims_at)
    nbytes = dtype.itemsize * math.prod(shape)
    stride = _aligned(nbytes)
    if (n - 1) * stride + nbytes > payload.nbytes:
        raise ValueError(
            f"corrupt header: sample extents end at {(n - 1) * stride + nbytes} B, "
            f"outside payload of {payload.nbytes} B"
        )
    cols = np.frombuffer(header, "<i8", 2 * n, cols_at)
    return SampleBlock(
        _block_view(payload, n, dtype, shape, stride), cols[:n], cols[n:]
    )
