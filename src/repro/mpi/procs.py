"""``procs`` backend: ranks as forked processes, shared-memory transport.

``procs`` is a transport under the one :class:`~repro.mpi.world.World`, not
a second implementation of it.  :func:`~repro.mpi.launcher.run_spmd` builds
the real world (or the ``world_factory`` chaos world) in the launching
process as it does for ``threads``, and each rank runs the shared rank
runner (``launcher._run_rank``) in a **forked** child whose
:class:`~repro.mpi.Communicator` wraps a :class:`_ClientWorld` facade.

* **Point-to-point never visits the parent.**  A rank posts on its forked
  copy of the launch world, so the chaos ``_deliver`` seam runs at the
  sender, and delivery writes a descriptor into one single-producer /
  single-consumer ring per ordered rank pair on the :class:`_Board`, an
  anonymous mapping made before the fork.  A ``PackedBatch`` frame lies in
  a segment of the sender's own pool, so a pool miss is a local
  ``shm_open``; the receiver maps the segment by name once and reads the
  frame in place, and the frame goes back to its sender on ACK.  A read
  drains the rank's M − 1 inbound rings into a local mailbox first (FIFO
  per pair; order across sources is a race on ``threads`` too), and a
  blocking receive waits on the rank's doorbell semaphore.
* **A fold on the launch communicator** (allreduce, reduce, barrier) runs
  among the ranks over the board too (:meth:`_ClientWorld._fold_here`).
* **Liveness and accounting need no round trip**: the parent writes the
  abort and dead words inside ``World.abort`` / ``mark_dead``, and every
  ring operation reads them; the ranks count traffic, copies, their pool's
  ledger and the chaos engine's faults on the board, where the parent adds
  them up after the run (a ``SIGKILL`` notwithstanding).
* **A flight event** is stamped at the rank and put on the rank's own
  flight ring on the board, which the parent drains: when the ring is full
  (the rank's one ``flight.collect`` round trip), before any
  ``flight.dump``, and when the rank's pipe ends, so what a killed rank
  recorded outlives it.
* Every other world call crosses a per-rank pipe to **one broker thread
  per rank** in the parent, which runs it on the real world, in order, as
  one round trip.  What may cross is the RPC table (:data:`_RPC`), once:
  the facade's forwarders are generated from it and the broker dispatches
  by it.

Children are forked *before* the broker threads start (fork + threads do
not mix), and the parent unlinks every segment of the launch — its own and
every rank's, dead or alive — on every exit path.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import mmap
import multiprocessing
import pickle
import struct
import threading
import time
from dataclasses import replace as _dc_replace
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.obs.telemetry.flight import FlightRecorder

from .codec import PackedBatch
from .errors import MPIAbort, MPITimeout, PeerFailure
from .launcher import _run_rank
from .message import Checksummed, Message
from .pool import MIN_SIZE_CLASS, BufferPool, PoolBuffer, _size_class
from .shm_pool import SegmentAllocator, attach, quiet_close, unlink
from .world import _POLL_INTERVAL, World, _fold, _Mailbox

__all__ = ["host_procs"]


# --------------------------------------------------------------------------
# Wire envelopes: what payloads look like between processes.
# --------------------------------------------------------------------------


class _ShmRef:
    """Handle envelope for a pool-backed ``PackedBatch``: the payload stays
    in its shared segment; only its name and length travel."""

    __slots__ = ("header", "name", "nbytes")

    def __init__(self, header: bytes, name: str, nbytes: int):
        self.header = header
        self.name = name
        self.nbytes = nbytes


class _RawBatch:
    """A ``PackedBatch`` *not* backed by a shared pool (e.g. a chaos-
    corrupted copy) — its bytes travel with the envelope."""

    __slots__ = ("header", "payload")

    def __init__(self, header: bytes, payload: bytes):
        self.header = header
        self.payload = payload


class _ShmArray:
    """Handle envelope for an ndarray of a collective: its bytes lie in a
    segment the sending side lends for the one message."""

    __slots__ = ("name", "dtype", "shape")

    def __init__(self, name: str, dtype: str, shape: tuple):
        self.name = name
        self.dtype = dtype
        self.shape = shape

    def view(self, raw: Any) -> np.ndarray:
        """The array, in place on the mapped segment ``raw``."""
        count = math.prod(self.shape)
        return np.frombuffer(raw, np.dtype(self.dtype), count).reshape(self.shape)


class _Lender:
    """The segments one end of a pipe lends to the ndarrays it sends.

    The reader is done with a message's arrays before this end sends its
    next one (a rank copies them out as it decodes a reply; the parent folds
    or copies a contribution before it replies; a rank settles its last
    fold first), so every message reuses the same buffers: one per array
    and size class, acquired at first use and ``in_use`` in the pool's
    ledger until its end of the pipe has ended.
    """

    def __init__(self, acquire: Callable[[int], PoolBuffer]) -> None:
        self._acquire = acquire
        self._bufs: dict[int, list[PoolBuffer]] = {}
        self._lent: dict[int, int] = {}  # per size class, to this message

    def encode(self, obj: Any) -> Any:
        """:func:`_encode` with every large ndarray in a lent segment."""
        self._lent = {}
        return _encode(obj, self._lend)

    def lend(self, arr: np.ndarray) -> _ShmArray:
        """``arr`` alone in a lent segment, whatever its size."""
        self._lent = {}
        return self._lend(arr)

    def _lend(self, arr: np.ndarray) -> _ShmArray:
        cls = _size_class(arr.nbytes)
        nth = self._lent[cls] = self._lent.get(cls, -1) + 1
        bufs = self._bufs.setdefault(cls, [])
        if nth == len(bufs):
            bufs.append(self._acquire(cls))
        ref = _ShmArray(bufs[nth].segment_name, arr.dtype.str, arr.shape)
        ref.view(bufs[nth].raw)[...] = arr
        return ref

    def release_all(self) -> None:
        """Hand every lent segment back to the pool (its end has ended)."""
        for bufs in self._bufs.values():
            for buf in bufs:
                buf.release()
        self._bufs = {}


class _Peers:
    """The segments other processes own, mapped by name on first use and
    kept mapped (an owner recycles a segment, never unlinks it early)."""

    def __init__(self) -> None:
        self._segments: dict[str, mmap.mmap] = {}

    def mapped(self, name: str) -> mmap.mmap:
        seg = self._segments.get(name)
        if seg is None:
            seg = self._segments[name] = attach(name, 0)
        return seg

    def batch(self, ref: _ShmRef) -> PackedBatch:
        """A received ``PackedBatch``, viewing its sender's segment (which
        the sender retires: ``buf`` pins the mapping, not a pool buffer)."""
        seg = self.mapped(ref.name)
        payload = memoryview(seg)[: ref.nbytes].toreadonly()
        return PackedBatch(header=ref.header, payload=payload, buf=seg)

    def array(self, ref: _ShmArray) -> np.ndarray:
        """A lent ndarray where it lies."""
        return ref.view(self.mapped(ref.name))

    def close_all(self) -> None:
        """Unmap every attachment; mappings pinned by live zero-copy views
        are left for process teardown."""
        for seg in self._segments.values():
            quiet_close(seg)
        self._segments.clear()


def _lendable(obj: Any) -> bool:
    """A numeric ndarray of the pool's smallest size class or more."""
    kind = obj.dtype.kind if isinstance(obj, np.ndarray) else ""
    return kind in ("b", "i", "u", "f", "c") and obj.nbytes >= MIN_SIZE_CLASS


def _encode(obj: Any, lend: Callable[[np.ndarray], _ShmArray] | None = None) -> Any:
    """Replace shared-pool ``PackedBatch`` payloads — and, given ``lend``,
    ndarrays from the pool's smallest size class up — with handle envelopes
    (recursing through ``Checksummed``/tuple/list/dict containers) so the
    object graph pickles without copying bulk bytes."""
    if isinstance(obj, PackedBatch):
        buf = obj.buf
        if isinstance(buf, PoolBuffer) and buf.segment_name is not None:
            # The batch's own length: a frame its sender reused is shorter
            # or longer than the pool recorded when it was first acquired.
            return _ShmRef(bytes(obj.header), buf.segment_name, obj.payload.nbytes)
        return _RawBatch(bytes(obj.header), bytes(obj.payload))
    if isinstance(obj, np.ndarray):
        return lend(obj) if lend is not None and _lendable(obj) else obj
    if isinstance(obj, Checksummed):
        return _dc_replace(obj, payload=_encode(obj.payload, lend))
    if isinstance(obj, tuple):
        items = [_encode(v, lend) for v in obj]
        if hasattr(obj, "_fields"):  # namedtuple
            return type(obj)(*items)
        return tuple(items)
    if isinstance(obj, list):
        return [_encode(v, lend) for v in obj]
    if isinstance(obj, dict):
        return {k: _encode(v, lend) for k, v in obj.items()}
    return obj


def _decode(
    obj: Any,
    make_batch: Callable[[Any], PackedBatch],
    make_array: Callable[[_ShmArray], np.ndarray] | None = None,
) -> Any:
    """Inverse of :func:`_encode`; ``make_batch`` / ``make_array`` rebuild a
    ``PackedBatch`` / ndarray from its handle for whichever side (parent or
    rank) is decoding."""
    if isinstance(obj, _ShmRef):
        return make_batch(obj)
    if isinstance(obj, _ShmArray):
        return make_array(obj)
    if isinstance(obj, _RawBatch):
        raw = bytearray(obj.payload)
        return PackedBatch(
            header=obj.header, payload=memoryview(raw).toreadonly(), buf=raw
        )
    if isinstance(obj, Checksummed):
        return _dc_replace(obj, payload=_decode(obj.payload, make_batch, make_array))
    if isinstance(obj, tuple):
        items = [_decode(v, make_batch, make_array) for v in obj]
        if hasattr(obj, "_fields"):
            return type(obj)(*items)
        return tuple(items)
    if isinstance(obj, list):
        return [_decode(v, make_batch, make_array) for v in obj]
    if isinstance(obj, dict):
        return {k: _decode(v, make_batch, make_array) for k, v in obj.items()}
    return obj


def _pickle_safe(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a ``RuntimeError``
    carrying its type and message (exceptions cross the pipe by value)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# The board: what the ranks of one launch share, made before the fork.
# --------------------------------------------------------------------------

#: Bytes of a slot header: the stamp, then the pickled slot.
_HEADER = 1024
#: Bytes of one rank-to-rank ring, and of the largest entry it carries
#: inline: a larger one (a big pickle) goes in a segment of its own, which
#: its reader unlinks.
_RING = 1 << 16
_INLINE = 1 << 13
#: Per-rank counters on the board: the world's traffic lists, then the
#: rank pool's accounting.
_TRAFFIC = ("bytes_sent", "messages_sent", "bytes_copied", "copies")
_POOL = (
    "acquires", "releases", "adopts", "hits", "misses",
    "bytes_served", "bytes_allocated", "high_water",
)


class _Board:
    """One anonymous shared mapping plus semaphores, made before the fork.

    * **Folds**: per rank two counting semaphores every peer releases once
      per fold (``ready``: its slot is posted; ``done``: it has folded) and
      a slot header — a small contribution, or the segment a large one is
      lent in, stamped with the fold's number.
    * **Rings**: per ordered pair ``(src, dest)`` a byte ring of
      length-prefixed entries; ``head`` is written by ``src`` only,
      ``tail`` by ``dest`` only, ``cut`` by the parent (a rejoin), so an
      entry is published by one aligned store after its bytes.  Per rank a
      doorbell semaphore, released after every entry put for it.  No
      message uses ring ``(r, r)`` (a self-send goes to the rank's own
      inbox): it is rank ``r``'s **flight ring**, taken by the parent
      (:meth:`collect`) and passed by every rank-to-rank read.
    * **Liveness** (written by the parent): the ``abort`` word, per rank
      ``dead`` (the world's dead set) and ``exited`` (its pipe has ended).
    * **Counters**: per rank the traffic and pool counters, and a second
      slot header (slot ``size + rank``) for its chaos engine's counts.
    """

    def __init__(self, size: int, ctx) -> None:
        self.size = size
        self.ready = [ctx.Semaphore(0) for _ in range(size)]
        self.done = [ctx.Semaphore(0) for _ in range(size)]
        self.bell = [ctx.Semaphore(0) for _ in range(size)]
        pairs, ncount = size * size, len(_TRAFFIC) + len(_POOL)
        nwords = 1 + 2 * size + 3 * pairs + size * ncount
        self._slots = 8 * nwords
        self._rings = self._slots + 2 * size * _HEADER
        self._mem = mmap.mmap(-1, self._rings + pairs * _RING)
        words = np.frombuffer(self._mem, np.int64, nwords)
        self.abort, self.dead = words[:1], words[1 : 1 + size]
        self.exited = words[1 + size : 1 + 2 * size]
        self._ends = words[1 + 2 * size : 1 + 2 * size + 3 * pairs].reshape(pairs, 3)
        counters = words[1 + 2 * size + 3 * pairs :].reshape(size, ncount)
        self.traffic, self.pools = counters[:, : len(_TRAFFIC)], counters[:, len(_TRAFFIC) :]
        #: The parent's brokers take the flight rings one at a time.
        self._collecting = threading.Lock()

    # ------------------------------------------------------------ liveness
    def publish(self, aborted: bool, dead) -> None:
        """Write the world's abort flag and dead set (the parent, at every
        change) and ring every doorbell, so a blocked receive re-checks."""
        self.dead[:] = [r in dead for r in range(self.size)]
        self.abort[0] = aborted
        for bell in self.bell:
            bell.release()

    # --------------------------------------------------------------- folds
    @staticmethod
    def release(sems: list, rank: int) -> None:
        """Release every peer of ``rank`` once."""
        for peer, sem in enumerate(sems):
            if peer != rank:
                sem.release()

    def post_slot(self, rank: int, gen: int, slot: Any) -> None:
        """Post ``slot`` as ``rank``'s part of fold ``gen``."""
        data = pickle.dumps(slot)
        if len(data) > _HEADER - 8:
            raise ValueError(f"slot header of {len(data)} B exceeds {_HEADER - 8} B")
        at = self._slots + rank * _HEADER
        self._mem[at + 8 : at + 8 + len(data)] = data
        struct.pack_into("q", self._mem, at, gen)

    def stamp(self, rank: int) -> int:
        """The last fold ``rank`` posted (0: none)."""
        return struct.unpack_from("q", self._mem, self._slots + rank * _HEADER)[0]

    def slot(self, rank: int) -> Any:
        """What ``rank`` posted last (pickle ignores the bytes past it)."""
        at = self._slots + rank * _HEADER
        return pickle.loads(self._mem[at + 8 : at + _HEADER])

    # --------------------------------------------------------------- rings
    def put(self, src: int, dest: int, entry: bytes) -> bool:
        """Append ``entry`` to ring ``src -> dest``; False if it is full."""
        ring = src * self.size + dest
        ends = self._ends[ring]
        head, data = int(ends[0]), len(entry).to_bytes(4, "little") + entry
        if head - int(ends[1]) + len(data) > _RING:
            return False
        (a, k), (b, rest) = self._spans(ring, head, len(data))
        self._mem[a : a + k] = data[:k]
        self._mem[b : b + rest] = data[k:]
        ends[0] = head + len(data)
        return True

    def drain(self, dest: int) -> list[tuple[int, bytes]]:
        """Every ``(src, entry)`` another rank put for ``dest`` since its
        last drain, in put order per source."""
        return [(src, entry) for src, ring in self._inbound(dest) for entry in self._take(ring)]

    def collect(self, flight, ranks) -> None:
        """Move what the flight rings of ``ranks`` hold into the parent's
        ``flight`` log, each rank's in put order: ``(owner, event)``, the
        event as its rank stamped it."""
        with self._collecting:
            for rank in ranks:
                for entry in self._take(rank * (self.size + 1)):
                    owner, event = pickle.loads(entry)
                    flight.for_rank(owner).append(event)

    def _inbound(self, dest: int) -> list[tuple[int, int]]:
        """``(src, ring)`` of the rings other ranks put into for ``dest``."""
        return [(src, src * self.size + dest) for src in range(self.size) if src != dest]

    def _take(self, ring: int) -> list[bytes]:
        """Every entry put on ``ring`` since its reader last took, in order."""
        ends = self._ends[ring]
        head, tail = int(ends[0]), int(ends[1])
        out = []
        while tail < head:
            n = int.from_bytes(self._read(ring, tail, 4), "little")
            out.append(self._read(ring, tail + 4, n))
            tail += 4 + n
        ends[1] = tail
        return out

    def _read(self, ring: int, pos: int, n: int) -> bytes:
        (a, k), (b, rest) = self._spans(ring, pos, n)
        return self._mem[a : a + k] + self._mem[b : b + rest]

    def _spans(self, ring: int, pos: int, n: int) -> tuple[tuple[int, int], ...]:
        """Where ``n`` bytes from ``pos`` of ``ring`` lie in the mapping:
        ``(offset, length)`` up to the ring's end, then from its start."""
        base, at = self._rings + ring * _RING, pos % _RING
        first = min(n, _RING - at)
        return (base + at, first), (base, n - first)

    def cut(self, rank: int, dead) -> None:
        """A rejoin flushes ``rank``'s mailbox (the parent, in the regroup
        that revives it): what its rings hold now was sent to its previous
        incarnation.  ``rank`` skips it when admitted (:meth:`skip`); its
        flight ring keeps what the parent has not read yet."""
        for _src, ring in self._inbound(rank):
            self._ends[ring, 2] = self._ends[ring, 0]
        self.publish(bool(self.abort[0]), dead)

    def skip(self, rank: int) -> None:
        """Drop what the last :meth:`cut` of ``rank`` flushed (``rank``
        itself: only a ring's reader moves its tail)."""
        for _src, ring in self._inbound(rank):
            self._ends[ring, 1] = max(self._ends[ring, 1], self._ends[ring, 2])


# --------------------------------------------------------------------------
# The RPC table: every operation a rank may invoke on the parent, once.
# --------------------------------------------------------------------------

#: How an operation's arguments and result cross the pipe.
_PLAIN = "plain"  # pickled as they are
_HAND = "hand"    # something is built on one side (a ``_ShmRef`` through
                 # ``_encode`` / ``_decode``, a pickle guard): both halves
                 # are written out by hand below


class _Op(NamedTuple):
    """One row: ``name`` on ``target``, reached from a rank in one round
    trip.

    ``target`` is ``"world"`` or the name of one of its attributes.
    ``kind`` is ``"call"`` (a method call) or ``"get"`` (an attribute
    read).
    """

    target: str
    name: str
    kind: str = "call"
    codec: str = _PLAIN


_OPS = (
    _Op("world", "rendezvous", codec=_HAND),
    _Op("world", "check_alive"),
    _Op("world", "abort"),
    _Op("world", "mark_dead"),
    _Op("world", "epitaphs", "get"),
    _Op("world", "flush_mailbox"),
    _Op("world", "announce_crash"),
    _Op("world", "regroup_rendezvous"),
    _Op("world", "request_join"),
    _Op("world", "await_admission"),
    _Op("world", "aborted", "get"),
    _Op("world", "abort_reason", "get"),
    _Op("world", "crashed", "get"),
    _Op("world", "crash_reason", "get"),
    _Op("flight", "collect", codec=_HAND),
    _Op("flight", "dump", codec=_HAND),
    _Op("telemetry", "ingest"),
)

#: Name on the wire -> row.  The whitelist: the broker refuses any other name.
_RPC: dict[str, _Op] = {f"{op.target}.{op.name}": op for op in _OPS}


def _target(world: World, op: _Op) -> Any:
    """The parent-side object a row names."""
    return world if op.target == "world" else getattr(world, op.target)


# --------------------------------------------------------------------------
# Child side: the RPC client and the World facade rank code talks to.
# --------------------------------------------------------------------------


class _Rpc:
    """The rank's end of the pipe: one round trip at a time.

    A message to the parent is one call ``(method, args)``; its ``(ok,
    value)`` reply is all that crosses back.  One broker serves the pipe,
    so the parent runs a rank's calls in program order.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    def call(self, method: str, *args: Any) -> Any:
        """Invoke ``method`` in the parent and return (or raise) its result."""
        try:
            with self._lock:
                self._conn.send((method, args))
                ok, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise MPIAbort(f"lost connection to world host: {exc}") from exc
        if ok:
            return value
        raise value


def _forwarder(wire: str, op: _Op) -> Any:
    """The rank-side half of a row that needs no code of its own."""
    if op.kind == "get":
        return property(
            lambda self: self._rpc.call(wire),
            doc=f"``{wire}`` as the parent sees it now (one round trip).",
        )

    def forward(self, *args: Any) -> Any:
        return self._rpc.call(wire, *args)

    forward.__name__ = op.name
    forward.__doc__ = f"``{wire}`` on the parent-hosted world (one round trip)."
    return forward


def _facade(target: str) -> Callable[[type], type]:
    """Class decorator: the rank-side facade of ``target`` gets one
    class-level forwarder per row of the table it does not spell out
    itself — and must spell out the rows marked :data:`_HAND`."""

    def install(cls: type) -> type:
        for wire, op in _RPC.items():
            if op.target != target:
                continue
            if op.name in vars(cls):
                continue
            if op.codec == _HAND:
                raise TypeError(f"{cls.__name__} must implement {wire} by hand")
            setattr(cls, op.name, _forwarder(wire, op))
        return cls

    return install


class _RankPool(BufferPool):
    """The exchange pool a rank process owns, over its own segments.  Its
    ledger is the rank's alone (a frame comes back to it on ACK); each
    change of its counters is mirrored into the rank's row of the board,
    where the parent adds the ranks up after the run."""

    def __init__(self, allocator: SegmentAllocator, row: np.ndarray) -> None:
        super().__init__(allocator, name="rank-shm")
        self._row = row

    def acquire(self, nbytes: int) -> PoolBuffer:
        """:meth:`BufferPool.acquire`, counted on the board."""
        buf = super().acquire(nbytes)
        self._publish()
        return buf

    def _retire(self, buf: PoolBuffer, new_state: str, *, strict: bool = True) -> bool:
        retired = super()._retire(buf, new_state, strict=strict)
        self._publish()
        return retired

    def _publish(self) -> None:
        self._row[:] = [getattr(self, key) for key in _POOL]


class _Tally(dict):
    """The chaos engine's injected-fault counts in a rank process, each
    update posted (``post``) in the rank's counts slot on the board."""

    def __setitem__(self, kind: str, count: int) -> None:
        super().__setitem__(kind, count)
        self.post(dict(self))


@_facade("flight")
class _ClientFlightLog:
    """Rank-side proxy of the world's :class:`FlightLog`."""

    def __init__(self, rpc: _Rpc, put: Callable[[int, tuple], None], detail: bool) -> None:
        self._rpc = rpc
        self._put = put
        #: Whether per-message detail is on (as the parent's log had it at
        #: launch).
        self.detail = detail
        self._recorders: dict[int, FlightRecorder] = {}

    def for_rank(self, rank: int) -> FlightRecorder:
        """The (cached) recorder of ``rank``: the same class as in-process,
        stamping each event here, at the rank — only its ``append`` puts the
        event on this rank's flight ring, which the parent drains."""
        rec = self._recorders.get(rank)
        if rec is None:
            rec = self._recorders[rank] = FlightRecorder(rank)
            rec.detail = self.detail
            rec.append = functools.partial(self._put, rank)
        return rec

    def collect(self) -> None:
        """Have the parent drain this rank's flight ring (one round trip)."""
        self._rpc.call("flight.collect")

    def dump(self, reason: str, *, key: object = None, extra: dict | None = None):
        """Trigger a parent-side post-mortem dump (blocking, deduped by key)."""
        return self._rpc.call("flight.dump", reason, key, extra)


class _Remote:
    """A facade that is nothing but generated forwarders."""

    def __init__(self, rpc: _Rpc) -> None:
        self._rpc = rpc


@_facade("telemetry")
class _ClientTelemetry(_Remote):
    """Rank-side proxy of the world's telemetry aggregator (rank 0 ingests)."""


@_facade("world")
class _ClientWorld(_Remote):
    """The World facade a rank process programs against.

    Carries every attribute and method the :class:`Communicator`,
    :class:`~repro.mpi.request.RecvRequest`, scheduler, elastic and
    telemetry layers touch.  Point-to-point, the pool, the copy counters
    and liveness are local (the rank's forked copy of the launch world
    over the board); the rest is an RPC against the real parent-hosted
    world, and a blocking one blocks in the parent broker with the same
    semantics (abort/deadline/PeerFailure) as the threaded world.
    """

    def __init__(self, rpc: _Rpc, rank: int, launch: World, board: _Board) -> None:
        super().__init__(rpc)
        self.rank = rank
        self.size = launch.size
        self.copy_on_send = launch.copy_on_send
        self._board = board
        self._launch = launch
        # The copy counters are the board's: counted here, read by all.
        self.count_copy, self.total_bytes_copied = launch.count_copy, launch.total_bytes_copied
        self._peers = _Peers()
        self._alloc = launch.pool._allocator.for_rank(rank)
        self._spills = itertools.count(1)
        #: One lock for this rank's ring operations: a chaos-delayed
        #: delivery puts from a timer thread.
        self._lock = threading.RLock()
        self.pool = _RankPool(self._alloc, board.pools[rank])
        #: Segments lent to the arrays this rank contributes to collectives.
        self.lender = _Lender(self.pool.acquire)
        #: Folds run in the ranks: their number, and ``(key, number)`` of
        #: the last one while peers may still read its slot.
        self._folds = itertools.count(1)
        self._owed: tuple | None = None
        self.flight = _ClientFlightLog(rpc, self._record, launch.flight.detail)
        self.telemetry = _ClientTelemetry(rpc)
        chaos = getattr(launch, "chaos", None)
        if chaos is not None:
            # Duck-typed: plain worlds must NOT have the attribute at all.
            self.chaos = chaos
            chaos.counts = _Tally()
            chaos.counts.post = functools.partial(board.post_slot, self.size + rank, 1)
        # The rank's own mailbox: every read first checks liveness and
        # drains the inbound rings into it.
        self._inbox = _Mailbox(self._poll)
        self.mailboxes = [self._inbox if r == rank else None for r in range(self.size)]
        # The launch world's delivery seam (and a chaos world's) ends in
        # this rank's outbound rings, or for a self-send in its own inbox.
        launch.board = None
        launch.mailboxes = [
            self._inbox if r == rank else SimpleNamespace(deposit=functools.partial(self._put, r))
            for r in range(self.size)
        ]

    # -------------------------------------------------------------- liveness
    def check_alive(self) -> None:
        """Raise if the world was aborted or its deadline passed: read on
        the board, the parent is asked only then (its exception, its
        reason)."""
        deadline = self._launch._deadline
        if self._board.abort[0] or (deadline is not None and time.monotonic() > deadline):
            self._rpc.call("world.check_alive")

    def dead_ranks(self) -> frozenset[int]:
        """World ranks that have died, as the board has them now."""
        return frozenset(np.flatnonzero(self._board.dead).tolist())

    # ------------------------------------------------------- point-to-point
    def post(self, msg: Message) -> None:
        """Send: check the destination and liveness, charge the sender,
        and run the launch world's delivery seam here, at the sender."""
        if not 0 <= msg.dest < self.size:
            raise ValueError(f"destination rank {msg.dest} out of range [0,{self.size})")
        self.check_alive()
        self._launch._account(msg)
        self._launch._deliver(msg)

    def _put(self, dest: int, msg: Message) -> None:
        """Deliver ``msg`` into ring ``rank -> dest``.  A full ring waits
        for its reader, draining this rank's own rings meanwhile (the
        reader may be waiting on its ring to us); a message for a rank that
        will never read again, or into an aborted world, is dropped."""
        entry = pickle.dumps((msg.tag, msg.posted_s, _encode(msg.payload)), protocol=5)
        if len(entry) > _INLINE:
            name = f"{self._alloc.prefix}s{next(self._spills)}"
            seg = attach(name, len(entry))
            seg[:] = entry
            seg.close()
            entry = pickle.dumps(name)
        board = self._board
        with self._lock:
            while not board.put(self.rank, dest, entry):
                if board.abort[0] or board.dead[dest] or board.exited[dest]:
                    return
                self._drain()
                time.sleep(0.001)
        board.bell[dest].release()

    def _drain(self) -> None:
        """Move what the inbound rings hold into the inbox, in put order
        per source, each message a new arrival (``seq``) of this rank."""
        with self._lock:
            for src, entry in self._board.drain(self.rank):
                item = pickle.loads(entry)
                if isinstance(item, str):  # a spilled entry: its own segment
                    seg = attach(item, 0)
                    unlink(item)
                    item = pickle.loads(seg)
                    seg.close()
                tag, posted_s, enc = item
                self._inbox.deposit(Message(
                    src, self.rank, tag, _decode(enc, self._peers.batch), posted_s=posted_s
                ))

    def _record(self, rank: int, event: tuple) -> None:
        """Put ``rank``'s flight ``event`` on this rank's flight ring; a
        full ring is emptied by the parent first, so none is lost."""
        entry, board, me = pickle.dumps((rank, event)), self._board, self.rank
        with self._lock:
            if not board.put(me, me, entry):
                self.flight.collect()
                if not board.put(me, me, entry):
                    raise ValueError(f"flight event of {len(entry)} B exceeds its ring")

    def _poll(self) -> None:
        """What every read of the inbox starts with."""
        self.check_alive()
        self._drain()

    def take_blocking(self, dest: int, source: int, tag: int) -> Message:
        """Blocking matched receive: poll, then wait on the doorbell.  A
        receive from a specific dead source fails with :class:`PeerFailure`
        once nothing it sent before its death matches."""
        bell = self._board.bell[dest]
        while True:
            while bell.acquire(False):  # stale rings: the poll below sees them
                pass
            dead = source >= 0 and self._board.dead[source]
            msg = self._inbox.try_take(source, tag)
            if msg is not None:
                return msg
            if dead:
                raise PeerFailure(source, self.epitaphs.get(source), op="recv")
            bell.acquire(timeout=_POLL_INTERVAL)

    def await_admission(self, rank: int):
        """Block (in the parent) until an expand admits ``rank``; then drop
        what was sent to this rank's previous incarnation."""
        admission = self._rpc.call("world.await_admission", rank)
        if admission is not None:
            with self._lock:
                self._board.skip(rank)
                with self._inbox.lock:
                    self._inbox.messages.clear()
        return admission

    # ------------------------------------------------------------ collectives
    def rendezvous(self, key: tuple, rank: int, contribution: Any, group=None, fold=None):
        """Collective rendezvous (a fold on the launch communicator, context
        0, runs in the ranks); the contribution and the reply (the slot
        map, or with ``fold`` the one reduced result) round-trip through the
        wire codec, so pooled batches and large ndarrays travel as segment
        handles (an ndarray comes back as the rank's own memory)."""
        if fold is not None and key[0] == 0:
            return self._fold_here(key, rank, contribution, fold)
        self._settle()
        reply = self._rpc.call(
            "world.rendezvous", key, rank, self.lender.encode(contribution),
            None if group is None else tuple(group), fold,
        )
        return _decode(reply, self._peers.batch, lambda ref: self._peers.array(ref).copy())

    def _fold_here(self, key: tuple, rank: int, contribution: Any, fold) -> Any:
        """A fold among the rank processes, with no round trip: post this
        rank's slot (a large ndarray's raw bytes or a large pickle in its
        lent segment, a small pickle in the header), release each peer's
        ``ready``, take this fold's M − 1 and fold the M slots in rank order
        with the world's own ``_fold``.  The ``done`` wait (:meth:`_settle`)
        rarely blocks and lets the lent segment serve as the slot (two slots
        by fold parity cost 1.6 % ``peak_rss_mb`` on ``exchange_procs``)."""
        board, gen = self._board, next(self._folds)
        self._settle()
        if _lendable(contribution):
            slot = (self.lender.lend(contribution), False)
        else:
            data = pickle.dumps(contribution)
            if len(data) > _HEADER // 2:
                data = self.lender.lend(np.frombuffer(data, np.uint8))
            slot = (data, True)
        board.post_slot(rank, gen, slot)
        board.release(board.ready, rank)
        self._take(board.ready[rank], key, gen)
        self._owed = (key, gen)
        try:
            values = []
            for peer in range(self.size):
                data, pickled = board.slot(peer)
                if isinstance(data, _ShmArray):
                    data = self._peers.array(data)
                values.append(pickle.loads(data) if pickled else data)
            return _fold(values, fold)
        finally:
            board.release(board.done, rank)

    def _settle(self) -> None:
        """Before the lent segment is written again, wait until every peer
        has folded the last fold (one past its ``ready`` wait always does)."""
        if self._owed is not None:
            key, gen = self._owed
            self._owed = None
            self._take(self._board.done[self.rank], key, gen)

    def _take(self, sem, key: tuple, gen: int) -> None:
        """Take ``sem``'s M − 1 releases, checking the peers on each timeout."""
        for _ in range(self.size - 1):
            while not sem.acquire(timeout=_POLL_INTERVAL):
                self._check_peers(key, gen)

    def _check_peers(self, key: tuple, gen: int) -> None:
        """Liveness (:meth:`check_alive`), then one ``epitaphs`` read,
        raising what ``World.rendezvous`` would: :class:`PeerFailure` for a
        peer that died before posting its slot (ahead of the abort a
        process death brings), else ``MPIAbort`` / ``MPITimeout``."""
        failure = None
        try:
            self.check_alive()
        except (MPIAbort, MPITimeout) as exc:
            failure = exc
        dead = self.epitaphs
        for peer in range(self.size):  # the launch group: local = world rank
            if peer in dead and self._board.stamp(peer) != gen:
                raise PeerFailure(peer, dead[peer], op=str(key[1]))
        if failure is not None:
            raise failure

    def finish(self) -> None:
        """The rank has ended: let its chaos-delayed deliveries land, hand
        its lent segments back to its pool (peers may still read its last
        fold slot: released, a segment is neither reused nor unlinked) and
        unmap its peers' segments."""
        for timer in threading.enumerate():
            if isinstance(timer, threading.Timer):
                timer.join(timeout=1.0)
        self.lender.release_all()
        self._peers.close_all()


def _child_main(
    pipes: list, rank: int, fn: Callable[..., Any], args: tuple, launch: World, board: _Board
) -> None:
    """Rank-process entry point: run the shared rank runner against the
    facade and report its outcome over the pipe as a final ``__exit__``
    record."""
    # The fork copied every rank's pipe: keep this rank's end only, so a
    # broker reads EOF the moment its own rank dies, not when the last
    # sibling holding a copy exits.
    conn = pipes[rank][1]
    for parent_end, child_end in pipes:
        parent_end.close()
        if child_end is not conn:
            child_end.close()
    world = _ClientWorld(_Rpc(conn), rank, launch, board)
    ok, value = _run_rank(world, rank, fn, args)
    world.finish()
    try:
        value = _encode(value) if ok else _pickle_safe(value)
        chaos = getattr(launch, "chaos", None)  # its state goes on in a restart
        conn.send(("__exit__", (ok, value, chaos and chaos.handback(rank))))
        conn.close()
    except Exception:
        # Nothing left to tell the parent with: its broker sees the pipe
        # close without a record and reports the rank as lost.
        pass


# --------------------------------------------------------------------------
# Parent side: per-rank broker threads servicing the RPCs.
# --------------------------------------------------------------------------


class _Broker:
    """One rank's parent-side servant: executes that rank's world calls,
    in order, on its own thread — the thread *is* the rank as far as the
    world's blocking semantics are concerned."""

    def __init__(self, rank: int, conn, world: World) -> None:
        self._rank = rank
        self._conn = conn
        self._world = world
        self._board = world.board
        #: Segments lent to the arrays of this rank's replies.
        self._lender = _Lender(world.pool.acquire)
        #: The rank's segments its contributions arrive in.
        self._peers = _Peers()
        #: The rank's final ``(ok, payload)`` record, and its chaos engine's
        #: handback; ``None`` when its pipe dies first.
        self.outcome: tuple | None = None
        self.handback: tuple | None = None
        #: What crossed the pipe: wire name -> round trips.
        self.counts: dict[str, int] = {}

    def _lost(self) -> None:
        """The pipe died without a final record: a hard process death.
        Record the death (a peer waiting in a fold the ranks run raises
        :class:`PeerFailure` naming it) and abort the world with it, in one
        step, so surviving ranks unwind instead of hanging."""
        if not self._world.aborted:
            self._world.mark_dead(self._rank, "process terminated unexpectedly", abort=True)

    def run(self) -> None:
        """Service the rank's calls until it reports its outcome or its
        pipe dies (what it wrote before dying is served first: the pipe
        drains before it reads EOF).  Either way the parent takes what the
        rank recorded before it records the rank's death."""
        try:
            while self.outcome is None:
                self._call(*self._conn.recv())
        except (EOFError, OSError):
            pass  # no final record: handled below
        finally:
            self._flight_collect()
            if self.outcome is None:
                self._lost()
            self._board.exited[self._rank] = 1
            self._lender.release_all()
            self._peers.close_all()

    def _call(self, method: str, args: tuple) -> None:
        """Run one call and reply; the exit record has no reply."""
        if method == "__exit__":
            ok, payload, self.handback = args
            self.outcome = (ok, payload)
            self._conn.close()
            return
        self.counts[method] = self.counts.get(method, 0) + 1
        try:
            reply = (True, self._dispatch(method, args))
        except BaseException as exc:  # noqa: BLE001 - ship errors to the rank
            reply = (False, _pickle_safe(exc))
        self._conn.send(reply)

    def _dispatch(self, method: str, args: tuple) -> Any:
        """Execute one RPC against the real world, as its table row says."""
        op = _RPC.get(method)
        if op is None:
            raise ValueError(f"unknown backend RPC {method!r}")
        if op.codec == _HAND:
            return getattr(self, f"_{op.target}_{op.name}")(*args)
        target = _target(self._world, op)
        if op.kind == "get":
            # A snapshot: the reply is pickled after this returns, while
            # the other ranks' brokers keep running.
            return copy.copy(getattr(target, op.name))
        return getattr(target, op.name)(*args)

    # The parent halves of the rows marked _HAND, named _<target>_<name>.
    def _world_rendezvous(self, key: tuple, rank: int, enc: Any, group, fold) -> Any:
        # A contribution with no fold outlives the call in the slot map its
        # peers are handed, so it is copied out of the lent segment; a fold
        # has read it where it lies by the time the rank is replied to.
        contribution = _decode(
            enc, self._peers.batch,
            (lambda ref: self._peers.array(ref).copy()) if fold is None else self._peers.array,
        )
        return self._lender.encode(self._world.rendezvous(key, rank, contribution, group, fold))

    def _flight_collect(self) -> None:
        self._board.collect(self._world.flight, (self._rank,))

    def _flight_dump(self, reason: str, key: object, extra: dict | None):
        # Every rank's flight ring first: what a peer recorded before the
        # fold that led here is in the dump.
        self._board.collect(self._world.flight, range(self._board.size))
        value = self._world.flight.dump(reason, key=key, extra=extra)
        try:
            pickle.dumps(value)
            return value
        except Exception:
            return None


def _await_children(procs: list, world: World, deadline_s: float | None) -> None:
    """Wait for every rank process, enforcing the wall-clock budget with a
    small grace over the world's own deadline (so in-protocol MPITimeouts
    fire first; the hard terminate is for ranks stuck outside an RPC)."""
    deadline = None if deadline_s is None else time.monotonic() + deadline_s + 5.0
    for proc in procs:
        while proc.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                break
            proc.join(timeout=0.2)
    alive = [p for p in procs if p.is_alive()]
    if alive:
        if not world.aborted:
            world.abort(
                f"procs backend deadline exceeded with {len(alive)} rank "
                "process(es) still running"
            )
        time.sleep(0.5)
        for proc in alive:
            if proc.is_alive():
                proc.terminate()
        for proc in alive:
            proc.join(timeout=5.0)


def _copy_out(ref: _ShmRef) -> PackedBatch:
    """Materialise a returned shared-segment batch into private bytes (the
    segments are unlinked when the run ends, so results must not view them)."""
    seg = attach(ref.name, 0)
    raw = bytearray(seg[: ref.nbytes])
    seg.close()
    return PackedBatch(header=ref.header, payload=memoryview(raw).toreadonly(), buf=raw)


def host_procs(
    world: World,
    fn: Callable[..., Any],
    args: tuple,
    *,
    name_prefix: str,
    deadline_s: float | None,
) -> list[tuple[bool, Any]]:
    """The ``procs`` backend: fork one rank process per slot of ``world``,
    broker their world calls, and return one outcome per rank.

    Shared-memory segments — the parent's and every rank's — are unlinked
    on **every** exit path: normal return, rank kill, exception, deadline,
    plus an ``atexit`` backstop in the allocator itself.  Afterwards
    ``world.pool`` counts every rank pool's buffers too.
    """
    size = world.size
    ctx = multiprocessing.get_context("fork")
    # The launch's allocator: the brokers' reply segments, and the names
    # every rank's own segments are made under (and unlinked by).
    pool = world.pool = BufferPool(SegmentAllocator(), name="world-shm")
    board = world.board = _Board(size, ctx)
    for name, column in zip(_TRAFFIC, board.traffic.T):
        setattr(world, name, column)
    pipes = [ctx.Pipe() for _ in range(size)]
    # Fork every child BEFORE starting broker threads: forking a
    # multi-threaded process can deadlock the child on inherited locks.
    procs = [
        ctx.Process(
            target=_child_main,
            args=(pipes, r, fn, args, world, board),
            name=f"{name_prefix}{r}",
            daemon=True,
        )
        for r in range(size)
    ]
    try:
        for proc in procs:
            proc.start()
        for _parent_end, child_end in pipes:
            child_end.close()
        brokers = [_Broker(r, pipes[r][0], world) for r in range(size)]
        threads = [
            threading.Thread(target=b.run, name=f"{name_prefix}{r}-broker", daemon=True)
            for r, b in enumerate(brokers)
        ]
        for thread in threads:
            thread.start()
        _await_children(procs, world, deadline_s)
        for thread in threads:
            thread.join(timeout=10.0)
        outcomes: list[tuple[bool, Any]] = []
        for r, broker in enumerate(brokers):
            if broker.outcome is None:
                # No final record: the process died (or was terminated).
                # Reported as what happened to it, never as an echo.
                outcomes.append((False, PeerFailure(
                    r, f"process exited with code {procs[r].exitcode}", op="exit"
                )))
                continue
            ok, payload = broker.outcome
            if broker.handback is not None:
                world.chaos.resume(broker.handback)
            if ok:
                payload = _decode(payload, _copy_out)
            outcomes.append((ok, payload))
        world.rpc_counts = [broker.counts for broker in brokers]
        return outcomes
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        # What the ranks counted on the board, added to the parent's own.
        world.board = None
        for name in _TRAFFIC:
            setattr(world, name, [int(v) for v in getattr(world, name)])
        for name, total in zip(_POOL, board.pools.sum(axis=0)):
            setattr(pool, name, getattr(pool, name) + int(total))
        chaos = getattr(world, "chaos", None)
        for r in range(size if chaos is not None else 0):
            counts = board.slot(size + r) if board.stamp(size + r) else {}
            for kind, count in counts.items():
                chaos.counts[kind] = chaos.counts.get(kind, 0) + count
        pool.shutdown()
