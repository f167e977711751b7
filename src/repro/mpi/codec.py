"""Zero-copy batch codec for the exchange hot path.

Each exchange frame's ``(sample, label, gid)`` triples travel as one flat
envelope, so the wire layer never pickles a sample and the integrity layer
never walks a structure calling ``tobytes()`` (a full copy per checksum):

* a compact ``struct``-packed **header** (dtype / shape / label / gid /
  offset per sample) — no pickle anywhere on the data plane;
* one **contiguous payload** holding every sample's bytes back to back,
  64-byte aligned, filled by straight ``memoryview`` copies into a
  :class:`~repro.mpi.pool.BufferPool` buffer;
* **zero-copy decode**: :func:`unpack_samples` returns views into the
  payload — no per-sample materialisation, and CRC32 runs over the
  contiguous buffer without copying anything.

Both directions speak in **columns** (:class:`SampleBlock`: samples,
label vector, gid vector).  A frame is *homogeneous* — one dtype and
shape, which is every frame the exchange packs — so it has equal-sized
header records and equally spaced sample extents: it is written from and
read back as one ``(n, *shape)`` block and one structured header array,
with no per-record ``struct`` call, dtype parse or ``np.frombuffer``.

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
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from .pool import BufferPool, PoolBuffer

__all__ = [
    "PackedBatch", "SampleBlock", "pack_samples", "unpack_samples",
]

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


@lru_cache(maxsize=32)
def _record_dtype(dt_len: int, ndim: int) -> np.dtype:
    """One header record (``_REC_FIXED`` + dtype string + dims) as a packed
    structured dtype, so ``n`` equal-sized records are one array."""
    names = ["dt_len", "ndim", "label", "gid", "offset", "nbytes", "dt"]
    formats = ["u1", "u1", "<i8", "<i8", "<u8", "<u8", f"S{dt_len}"]
    offsets = [0, 1, 2, 10, 18, 26, _REC_FIXED.size]
    if ndim:
        names.append("dims")
        formats.append(("<u8", (ndim,)))
        offsets.append(_REC_FIXED.size + dt_len)
    return np.dtype(
        {
            "names": names, "formats": formats, "offsets": offsets,
            "itemsize": _REC_FIXED.size + dt_len + ndim * _DIM.size,
        }
    )


@lru_cache(maxsize=32)
def _extent_offsets(n: int, stride: int) -> np.ndarray:
    """Payload offsets of ``n`` equally spaced sample extents.  Cached
    (frames come in a handful of sizes) because ``np.arange`` drops the GIL
    even for sixteen elements, and a rank thread that drops it at the end
    of an epoch waits milliseconds to get it back."""
    offsets = np.arange(n, dtype=np.uint64) * np.uint64(stride)
    offsets.flags.writeable = False
    return offsets


#: Bytes of a record that name its class: (dt_len, ndim) lead it, and
#: (nbytes, dtype string, dims) are its tail from this offset on.
_CLASS_TAIL = 26


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
    dt = dtype.str.encode("ascii")
    nbytes = dtype.itemsize * math.prod(shape)
    stride = _aligned(nbytes)
    recs = np.empty(n, _record_dtype(len(dt), len(shape)))
    recs["dt_len"], recs["ndim"], recs["dt"] = len(dt), len(shape), dt
    recs["label"], recs["gid"] = block.labels, block.gids
    recs["offset"] = _extent_offsets(n, stride)
    recs["nbytes"], recs["dims"] = nbytes, shape
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
    return PackedBatch(
        header=_HEAD.pack(_MAGIC, n) + recs.tobytes(), payload=buf.readonly(), buf=buf
    )


def unpack_samples(batch: PackedBatch) -> SampleBlock:
    """Decode a :class:`PackedBatch` back into ``(sample, label, gid)``
    triples, held as the columns of a :class:`SampleBlock`.

    The returned arrays are read-only views into the batch payload: zero
    byte copies, at the price of every view pinning the *whole* backing
    buffer (``batch.try_adopt()`` records that hand-off; the exchange
    instead copies the block into storage-owned slots and
    ``release()``\\ s the buffer).

    The header's equal-sized records describe one dtype and shape at evenly
    spaced extents and decode into one ``(n, *shape)`` block; any other
    header is refused as corrupt.
    """
    n = batch.count
    if not n:
        return SampleBlock([], np.empty(0, np.int64), np.empty(0, np.int64))
    block = _unpack_block(batch, n)
    if block is None:
        raise ValueError(
            "corrupt header: not one class of samples at evenly spaced extents"
        )
    return block


def _unpack_block(batch: PackedBatch, n: int) -> SampleBlock | None:
    """Column-wise decode, or None if the header is not one class at evenly
    spaced extents."""
    header, payload = batch.header, batch.payload
    if len(header) < _HEAD.size + _REC_FIXED.size:
        return None
    dt_len, ndim, _label, _gid, _offset, nbytes = _REC_FIXED.unpack_from(
        header, _HEAD.size
    )
    if not (ndim and dt_len):
        return None
    rec = _record_dtype(dt_len, ndim)
    if len(header) != _HEAD.size + n * rec.itemsize:
        return None
    recs = np.frombuffer(header, rec, n, _HEAD.size)
    raw = recs.view(np.uint8).reshape(n, rec.itemsize)
    stride = _aligned(nbytes)
    # Record i starts where the walk would find it as long as records
    # 0..i-1 have record 0's (dt_len, ndim), so these comparisons are the
    # walk's answer, not a guess.
    if not (
        (raw[:, :2] == raw[0, :2]).all()
        and (raw[:, _CLASS_TAIL:] == raw[0, _CLASS_TAIL:]).all()
        and (recs["offset"] == _extent_offsets(n, stride)).all()
    ):
        return None
    try:
        dtype = np.dtype(bytes(recs["dt"][0]).decode("ascii"))
    except (TypeError, UnicodeDecodeError):
        return None
    shape = tuple(recs["dims"][0].tolist())
    if dtype.hasobject or nbytes != dtype.itemsize * math.prod(shape):
        return None
    if (n - 1) * stride + nbytes > payload.nbytes:
        raise ValueError(
            f"corrupt header: sample extents end at {(n - 1) * stride + nbytes} B, "
            f"outside payload of {payload.nbytes} B"
        )
    return SampleBlock(
        _block_view(payload, n, dtype, shape, stride), recs["label"], recs["gid"]
    )
