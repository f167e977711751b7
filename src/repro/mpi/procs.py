"""``procs`` backend: ranks as forked processes, shared-memory transport.

``procs`` is a transport under the one :class:`~repro.mpi.world.World`, not
a second implementation of it:

* :func:`~repro.mpi.launcher.run_spmd` builds the real world (or the
  ``world_factory`` chaos world) in the launching process exactly as it
  does for ``threads`` — rendezvous bookkeeping, the epitaph channel, the
  chaos ``_deliver`` seam and the flight-recorder rings are the very same
  objects and code paths.
* Each rank runs the shared rank runner (``launcher._run_rank``) in a
  **forked** child process whose :class:`~repro.mpi.Communicator` wraps a
  :class:`_ClientWorld` facade.  A world call that returns something is one
  round trip over a per-rank duplex pipe; one that returns nothing (a
  ``post``, a buffer release, a flight event) is a **cast**: queued, it
  rides the rank's next message out and no reply crosses back.
* In the parent, one **broker thread per rank** services that rank's casts
  and calls *in order*, calling the real world methods on the rank's behalf.
  A blocking call (``take_blocking``, a rendezvous) blocks the broker thread
  just as it would block the rank's thread under the ``threads`` backend —
  so all cross-rank blocking semantics hold by construction.  A cast that
  raises is raised by the rank's next round trip (:meth:`_Broker.run`): a
  strict double release or a post into an aborted world surfaces one call
  later, never not at all.

What may cross the pipe is written down once, in the RPC table
(:data:`_RPC`): the facade's forwarders are generated from it and the
broker dispatches by it, so the two ends cannot drift, and a name that is
not in the table is refused.

One call skips the pipe: the ranks run a fold on the launch communicator
among themselves over shared memory (:meth:`_ClientWorld._fold_here`) —
the parent's result, bit for bit.  All else, p2p included, stays there.

Bulk payloads never ride the pipe: a :class:`~repro.mpi.codec.PackedBatch`
packed through the pool travels as a :class:`_ShmRef` *handle envelope*
(segment name + pool id), an ndarray of a collective — a broadcast model
— as a :class:`_ShmArray` handle to a segment its sender lends
(:class:`_Lender`), and both sides map the same
``multiprocessing.shared_memory`` segment.  The world's pool is the same
:class:`~repro.mpi.pool.BufferPool`, over a
:class:`~repro.mpi.shm_pool.SegmentAllocator`, and stays in the parent, so
the acquire/adopt/release ownership discipline — including the idempotent
teardown adopt on abort paths — stays globally exact.  Control messages,
plans and small values simply pickle through the pipe — a reduction's
operator too, and what comes back is the one result the world folded, not
the ranks' contributions.

Children are forked *before* the broker threads start (fork + threads do
not mix), and the parent unlinks every shared segment on every exit path.
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
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.obs.telemetry.flight import FlightRecorder

from .codec import PackedBatch
from .errors import MPIAbort, MPITimeout, PeerFailure
from .launcher import _run_rank
from .message import Checksummed, Message
from .pool import MIN_SIZE_CLASS, BufferPool, PoolBuffer, _size_class
from .shm_pool import SegmentAllocator, quiet_close
from .world import _POLL_INTERVAL, World, _fold

__all__ = ["host_procs"]


# --------------------------------------------------------------------------
# Wire envelopes: what payloads look like on the pipe.
# --------------------------------------------------------------------------


class _ShmRef:
    """Handle envelope for a pool-backed ``PackedBatch``: the payload stays
    in its shared segment; only the coordinates cross the pipe."""

    __slots__ = ("header", "buf_id", "name", "nbytes", "size_class")

    def __init__(self, header: bytes, buf_id: int, name: str, nbytes: int, size_class: int):
        self.header = header
        self.buf_id = buf_id
        self.name = name
        self.nbytes = nbytes
        self.size_class = size_class


class _RawBatch:
    """A ``PackedBatch`` *not* backed by the shared pool (e.g. a chaos-
    corrupted copy) — its bytes are copied through the pipe."""

    __slots__ = ("header", "payload")

    def __init__(self, header: bytes, payload: bytes):
        self.header = header
        self.payload = payload


class _ShmArray:
    """Handle envelope for an ndarray of a collective: its bytes lie in a
    segment the sending side lends for the one message."""

    __slots__ = ("buf_id", "name", "dtype", "shape")

    def __init__(self, buf_id: int, name: str, dtype: str, shape: tuple):
        self.buf_id = buf_id
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
        ref = _ShmArray(bufs[nth].buf_id, bufs[nth].segment_name, arr.dtype.str, arr.shape)
        ref.view(bufs[nth].raw)[...] = arr
        return ref

    def release_all(self) -> None:
        """Hand every lent segment back to the pool (the rank has ended)."""
        for bufs in self._bufs.values():
            for buf in bufs:
                buf.release()
        self._bufs = {}


#: Bytes of a :class:`_FoldBoard` header: the stamp, then the pickled slot.
_HEADER = 1024


class _FoldBoard:
    """What the ranks of one launch share to fold among themselves, made
    before the fork: per rank, two counting semaphores every peer releases
    once per fold (``ready``: its slot is posted; ``done``: it has folded)
    and a slot header in an anonymous mapping — a small contribution, or
    the segment a large one is lent in, stamped with the fold's number."""

    def __init__(self, size: int, ctx) -> None:
        self.ready = [ctx.Semaphore(0) for _ in range(size)]
        self.done = [ctx.Semaphore(0) for _ in range(size)]
        self._mem = mmap.mmap(-1, size * _HEADER)

    @staticmethod
    def release(sems: list, rank: int) -> None:
        """Release every peer of ``rank`` once."""
        for peer, sem in enumerate(sems):
            if peer != rank:
                sem.release()

    def publish(self, rank: int, gen: int, slot: tuple) -> None:
        """Post ``slot`` as ``rank``'s part of fold ``gen``."""
        data = pickle.dumps(slot)
        if len(data) > _HEADER - 8:
            raise ValueError(f"slot header of {len(data)} B exceeds {_HEADER - 8} B")
        at = rank * _HEADER
        self._mem[at + 8 : at + 8 + len(data)] = data
        struct.pack_into("q", self._mem, at, gen)

    def stamp(self, rank: int) -> int:
        """The last fold ``rank`` posted (0: none)."""
        return struct.unpack_from("q", self._mem, rank * _HEADER)[0]

    def slot(self, rank: int) -> tuple:
        """What ``rank`` posted last (pickle ignores the bytes past it)."""
        return pickle.loads(self._mem[rank * _HEADER + 8 : (rank + 1) * _HEADER])


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
            return _ShmRef(
                bytes(obj.header), buf.buf_id, buf.segment_name,
                obj.payload.nbytes, buf.size_class,
            )
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


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    The parent owns every segment's lifetime (create + unlink); a rank
    process registering its attachment too would double-book the name in
    the shared tracker and produce spurious leak warnings/KeyErrors at
    exit.  Rank code is single-threaded, so briefly stubbing the tracker's
    ``register`` around the attach is race-free.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


# --------------------------------------------------------------------------
# The RPC table: every operation a rank may invoke on the parent, once.
# --------------------------------------------------------------------------

#: How an operation's arguments and result cross the pipe.
_PLAIN = "plain"  # pickled as they are
_BUF = "buf"      # argument 0 is a pool buffer: its ``buf_id`` crosses, the
                 # parent finds the buffer again in its pool's ledger
_HAND = "hand"    # something is built on one side (a ``_ShmRef`` through
                 # ``_encode`` / ``_decode``, an attached segment, a pickle
                 # guard): both halves are written out by hand below


class _Op(NamedTuple):
    """One row: ``name`` on ``target``, reached from a rank.

    ``target`` is ``"world"`` or the name of one of its attributes;
    ``"mailbox"`` and ``"recorder"`` are per-rank (``world.mailboxes[r]``,
    ``world.flight.for_rank(r)``, ``r`` the leading argument).  ``kind`` is
    ``"call"`` (one round trip), ``"cast"`` (returns nothing: queued at the
    rank, no reply crosses the pipe, a failure is raised by the rank's next
    round trip) or ``"get"`` (an attribute read, one round trip).
    """

    target: str
    name: str
    kind: str = "call"
    codec: str = _PLAIN


_OPS = (
    _Op("world", "post", "cast", codec=_HAND),
    _Op("world", "take_blocking", codec=_HAND),
    _Op("world", "rendezvous", codec=_HAND),
    _Op("world", "check_alive"),
    _Op("world", "count_copy", "cast"),
    _Op("world", "abort"),
    _Op("world", "mark_dead"),
    _Op("world", "dead_ranks"),
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
    _Op("world", "total_bytes_copied"),
    _Op("mailbox", "try_take_many", codec=_HAND),
    _Op("mailbox", "peek", codec=_HAND),
    _Op("pool", "acquire", codec=_HAND),
    _Op("pool", "release", "cast", codec=_BUF),
    _Op("pool", "adopt_if_in_use", codec=_BUF),
    _Op("pool", "stats"),
    _Op("pool", "in_use"),
    _Op("pool", "assert_balanced"),
    _Op("recorder", "append", "cast"),
    _Op("flight", "dump", codec=_HAND),
    _Op("telemetry", "ingest"),
    _Op("chaos", "note_epoch"),
)

#: Name on the wire -> row.  The whitelist: the broker refuses any other name.
_RPC: dict[str, _Op] = {f"{op.target}.{op.name}": op for op in _OPS}


def _target(world: World, op: _Op, args: tuple) -> tuple[Any, tuple]:
    """The parent-side object a row names, and the arguments left for it."""
    if op.target == "world":
        return world, args
    if op.target == "mailbox":
        return world.mailboxes[args[0]], args[1:]
    if op.target == "recorder":
        return world.flight.for_rank(args[0]), args[1:]
    return getattr(world, op.target), args


# --------------------------------------------------------------------------
# Child side: the RPC client and the World facade rank code talks to.
# --------------------------------------------------------------------------


#: Casts queued at a rank before they go out on their own.
_MAX_QUEUED = 64


class _Rpc:
    """The rank's end of the pipe: ordered casts, one call at a time.

    A message to the parent is ``(casts, call)``: the ``(method, args)``
    casts queued since the last message, then at most one call, whose
    ``(ok, value)`` reply is all that crosses back.  A cast rides the next
    message out — a call, a :meth:`flush` (a ``post`` flushes: a peer is
    waiting for it), the exit record — or leaves once :data:`_MAX_QUEUED`
    have gathered.  The pipe is FIFO and one broker serves it, so the
    parent sees casts and calls in program order.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._queued: list[tuple[str, tuple]] = []
        self._lock = threading.Lock()

    def send(self, call: tuple | None, reply: bool = False) -> Any:
        """One message: the queued casts, then ``call`` (its reply awaited)."""
        with self._lock:
            casts, self._queued = self._queued, []
            self._conn.send((casts, call))
            return self._conn.recv() if reply else None

    def call(self, method: str, *args: Any) -> Any:
        """Invoke ``method`` in the parent and return (or raise) its result;
        raises the failure of an earlier cast in place of running."""
        try:
            ok, value = self.send((method, args), reply=True)
        except (EOFError, OSError) as exc:
            raise MPIAbort(f"lost connection to world host: {exc}") from exc
        if ok:
            return value
        raise value

    def cast(self, method: str, *args: Any) -> None:
        """Queue a no-reply invoke (ordered before any later ``call``)."""
        self._queued.append((method, args))
        if len(self._queued) >= _MAX_QUEUED:
            self.flush()

    def flush(self) -> None:
        """Send the queued casts now."""
        try:
            if self._queued:
                self.send(None)
        except (EOFError, OSError):
            pass


def _forwarder(wire: str, op: _Op) -> Any:
    """The rank-side half of a row that needs no code of its own."""
    if op.kind == "get":
        return property(
            lambda self: self._rpc.call(wire),
            doc=f"``{wire}`` as the parent sees it now (one round trip).",
        )
    send = _Rpc.cast if op.kind == "cast" else _Rpc.call
    if op.codec == _BUF:
        def forward(self, buf: PoolBuffer, *args: Any) -> Any:
            return send(self._rpc, wire, buf.buf_id, *args)
    else:
        def forward(self, *args: Any) -> Any:
            return send(self._rpc, wire, *args)
    forward.__name__ = op.name
    forward.__doc__ = (
        f"``{wire}`` on the parent-hosted world "
        f"({'a cast, no reply' if op.kind == 'cast' else 'one round trip'})."
    )
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


@_facade("pool")
class _ClientPool:
    """Rank-process facade of the parent's pool.

    A rank's :class:`PoolBuffer` maps the segment the parent's buffer of
    the same ``buf_id`` names; every ownership transition is an RPC against
    the parent's authoritative ledger (the rank-side ``state`` is not kept
    up), so double-release detection and idempotent teardown adopts work
    across process boundaries.
    """

    name = "world-shm"

    def __init__(self, rpc: _Rpc) -> None:
        self._rpc = rpc
        # Attach once, reuse for every buffer the segment ever backs.
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def _mapped(self, name: str) -> memoryview:
        seg = self._segments.get(name)
        if seg is None:
            seg = self._segments[name] = _attach_untracked(name)
        return seg.buf

    def _attached(self, buf_id: int, name: str, nbytes: int, size_class: int) -> PoolBuffer:
        return PoolBuffer(self._mapped(name), nbytes, size_class, self, buf_id, name)

    def close_all(self) -> None:
        """Unmap every attachment (called at rank-process exit); mappings
        pinned by live zero-copy views are left for process teardown."""
        for seg in self._segments.values():
            quiet_close(seg)
        self._segments.clear()

    def acquire(self, nbytes: int) -> PoolBuffer:
        """Acquire a segment-backed buffer from the parent pool."""
        return self._attached(*self._rpc.call("pool.acquire", int(nbytes)))

    def ref_batch(self, ref: _ShmRef) -> PackedBatch:
        """Rebuild a received ``PackedBatch`` view onto its shared segment."""
        buf = self._attached(ref.buf_id, ref.name, ref.nbytes, ref.size_class)
        return PackedBatch(header=ref.header, payload=buf.readonly(), buf=buf)

    def copy_array(self, ref: _ShmArray) -> np.ndarray:
        """A received ndarray, copied out of the segment the parent lent
        (which its next reply overwrites) into memory the rank owns."""
        return ref.view(self._mapped(ref.name)).copy()


@_facade("mailbox")
class _ClientMailbox:
    """RPC-backed view of one parent-side mailbox (peek / try_take /
    try_take_many; each checks the world is alive in the same round trip)."""

    def __init__(self, rpc: _Rpc, rank: int, world: "_ClientWorld") -> None:
        self._rpc = rpc
        self._rank = rank
        self._world = world

    def peek(self, source: int, tag: int) -> Message | None:
        """The first matching queued message, or ``None`` — its envelope
        only (source and tag are all a probe reads), the payload stays put."""
        info = self._rpc.call("mailbox.peek", self._rank, source, tag)
        if info is None:
            return None
        return Message(source=info[0], dest=self._rank, tag=info[1], payload=None)

    def try_take(self, source: int, tag: int) -> Message | None:
        """Non-blocking matched take: a batch of one."""
        got = self.try_take_many([(source, tag, False)])[0]
        return got[0] if got else None

    def try_take_many(self, wants) -> list[list[Message]]:
        """Every want's matches, taken in one round trip, with any
        shared-segment payloads decoded."""
        taken = self._rpc.call("mailbox.try_take_many", self._rank, wants)
        return [[self._world._wire_to_msg(wire) for wire in got] for got in taken]


@_facade("flight")
class _ClientFlightLog:
    """Rank-side proxy of the world's :class:`FlightLog`."""

    def __init__(self, rpc: _Rpc, detail: bool) -> None:
        self._rpc = rpc
        #: Whether per-message detail is on (as the parent's log had it at
        #: launch).
        self.detail = detail
        self._recorders: dict[int, FlightRecorder] = {}

    def for_rank(self, rank: int) -> FlightRecorder:
        """The (cached) recorder of ``rank``: the same class as in-process,
        stamping each event here, at the rank — only its ``append`` is a
        cast to the parent-hosted ring (it rides the next message out)."""
        rec = self._recorders.get(rank)
        if rec is None:
            rec = self._recorders[rank] = FlightRecorder(rank)
            rec.detail = self.detail
            rec.append = functools.partial(self._rpc.cast, "recorder.append", rank)
        return rec

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


@_facade("chaos")
class _ClientChaos(_Remote):
    """Rank-side proxy of the chaos engine's epoch hook (present only when
    the parent world is a ``ChaosWorld``, preserving the duck-typed seam).
    ``note_epoch`` is a round trip, so epoch-scoped fault clauses activate
    before the rank's next send."""


@_facade("world")
class _ClientWorld(_Remote):
    """The World facade a rank process programs against.

    Carries every attribute and method the :class:`Communicator`,
    :class:`~repro.mpi.request.RecvRequest`, scheduler, elastic and
    telemetry layers touch, each an RPC against the real parent-hosted
    world.  Blocking calls block in the parent broker with the same
    semantics (abort/deadline/PeerFailure) as the threaded world.
    """

    def __init__(
        self,
        rpc: _Rpc,
        rank: int,
        size: int,
        copy_on_send: bool,
        flight_detail: bool,
        has_chaos: bool,
        board: _FoldBoard,
    ) -> None:
        super().__init__(rpc)
        self.rank = rank
        self.size = size
        self.copy_on_send = copy_on_send
        self.pool = _ClientPool(rpc)
        #: Segments lent to the arrays this rank contributes to collectives.
        self.lender = _Lender(self.pool.acquire)
        #: Folds run in the ranks: the board, their number, and ``(key,
        #: number)`` of the last one while peers may still read its slot.
        self._board = board
        self._folds = itertools.count(1)
        self._owed: tuple | None = None
        self.flight = _ClientFlightLog(rpc, flight_detail)
        self.telemetry = _ClientTelemetry(rpc)
        if has_chaos:
            # Duck-typed: plain worlds must NOT have the attribute at all.
            self.chaos = _ClientChaos(rpc)
        self.mailboxes = [_ClientMailbox(rpc, r, self) for r in range(size)]

    def _wire_to_msg(self, wire: tuple) -> Message:
        source, dest, tag, seq, posted_s, enc = wire
        payload = _decode(enc, self.pool.ref_batch)
        return Message(source, dest, tag, payload, seq=seq, posted_s=posted_s)

    def post(self, msg: Message) -> None:
        """Send (a cast, flushed at once): the parent constructs the
        authoritative ``Message`` (with a parent-global sequence number) and
        runs the real delivery path — liveness check, accounting and the
        chaos ``_deliver`` seam; only the destination range is checked here."""
        if not 0 <= msg.dest < self.size:
            raise ValueError(f"destination rank {msg.dest} out of range [0,{self.size})")
        self._rpc.cast("world.post", msg.source, msg.dest, msg.tag, _encode(msg.payload))
        self._rpc.flush()

    def take_blocking(self, dest: int, source: int, tag: int) -> Message:
        """Blocking matched receive (parks the parent broker, exactly like a
        rank thread; PeerFailure/MPIAbort/MPITimeout propagate)."""
        return self._wire_to_msg(self._rpc.call("world.take_blocking", dest, source, tag))

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
            "world.rendezvous",
            key,
            rank,
            self.lender.encode(contribution),
            None if group is None else tuple(group),
            fold,
        )
        return _decode(reply, self.pool.ref_batch, self.pool.copy_array)

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
        board.publish(rank, gen, slot)
        board.release(board.ready, rank)
        self._take(board.ready[rank], key, gen)
        self._owed = (key, gen)
        try:
            values = []
            for peer in range(self.size):
                data, pickled = board.slot(peer)
                if isinstance(data, _ShmArray):
                    data = data.view(self.pool._mapped(data.name))
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
        """One round trip (``check_alive`` cast ahead of an ``epitaphs``
        read) raising what ``World.rendezvous`` would: :class:`PeerFailure`
        for a peer that died before posting its slot (ahead of the abort a
        process death brings), else ``MPIAbort`` / ``MPITimeout``."""
        failure = None
        try:
            self._rpc.cast("world.check_alive")
            dead = self.epitaphs
        except (MPIAbort, MPITimeout) as exc:
            failure, dead = exc, self.epitaphs
        for peer in range(self.size):  # the launch group: local = world rank
            if peer in dead and self._board.stamp(peer) != gen:
                raise PeerFailure(peer, dead[peer], op=str(key[1]))
        if failure is not None:
            raise failure


def _child_main(
    pipes: list,
    rank: int,
    size: int,
    fn: Callable[..., Any],
    args: tuple,
    copy_on_send: bool,
    flight_detail: bool,
    has_chaos: bool,
    board: _FoldBoard,
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
    rpc = _Rpc(conn)
    world = _ClientWorld(
        rpc, rank, size, copy_on_send, flight_detail, has_chaos, board
    )
    ok, value = _run_rank(world, rank, fn, args)
    # Peers may still read its last fold slot: the parent releases them.
    lent = [buf.buf_id for bufs in world.lender._bufs.values() for buf in bufs]
    try:
        value = _encode(value) if ok else _pickle_safe(value)
        rpc.send(("__exit__", (ok, value, lent)))
        conn.close()
    except Exception:
        # Nothing left to tell the parent with: its broker sees the pipe
        # close without a record and reports the rank as lost.
        pass
    world.pool.close_all()


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
        #: Segments lent to the arrays of this rank's replies.
        self._lender = _Lender(world.pool.acquire)
        #: What the first cast to raise since the last round trip raised:
        #: the rank's next call gets it in place of running.
        self._failed_cast: BaseException | None = None
        #: The rank's final ``(ok, payload)`` record; stays
        #: ``None`` when its pipe dies first.
        self.outcome: tuple | None = None
        #: The ``buf_id``s of the segments the rank lent, from its exit record.
        self.lent: list[int] = []
        #: What crossed the pipe: wire name -> ``[round trips, casts]``.
        self.counts: dict[str, list[int]] = {}

    def _lost(self) -> None:
        """The pipe died without a final record: a hard process death.
        Record the death (a peer waiting in a fold the ranks run raises
        :class:`PeerFailure` naming it) and abort the world with it, in one
        step, so surviving ranks unwind instead of hanging."""
        if not self._world.aborted:
            self._world.mark_dead(self._rank, "process terminated unexpectedly", abort=True)

    def run(self) -> None:
        """Service the rank's messages until it reports its outcome or its
        pipe dies (what it wrote before dying is served first: the pipe
        drains before it reads EOF)."""
        conn = self._conn
        try:
            while self.outcome is None:
                casts, call = conn.recv()
                for method, args in casts:
                    self.counts.setdefault(method, [0, 0])[1] += 1
                    try:
                        self._dispatch(method, args)
                    except BaseException as exc:  # noqa: BLE001 - raised by the next call
                        if self._failed_cast is None:
                            self._failed_cast = _pickle_safe(exc)
                if call is not None:
                    failed, self._failed_cast = self._failed_cast, None
                    self._call(*call, failed)
        except (EOFError, OSError):
            self._lost()
        finally:
            self._lender.release_all()

    def _call(self, method: str, args: tuple, failed: BaseException | None) -> None:
        """Run one call and reply — with ``failed``, an earlier cast's
        exception, in place of running it.  The exit record has no reply: a
        cast that failed behind the rank's last round trip becomes its
        outcome, and aborts the world as the raise would have."""
        if method == "__exit__":
            ok, payload, self.lent = args
            if ok and failed is not None:
                ok, payload = False, failed
                if not self._world.aborted:
                    self._world.abort(f"rank {self._rank}: {type(failed).__name__}: {failed}")
            self.outcome = (ok, payload)
            self._conn.close()
            return
        self.counts.setdefault(method, [0, 0])[0] += 1
        try:
            if failed is not None:
                raise failed
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
        target, args = _target(self._world, op, args)
        if op.kind == "get":
            # A snapshot: the reply is pickled after this returns, while
            # the other ranks' brokers keep running.
            return copy.copy(getattr(target, op.name))
        if op.codec == _BUF:
            args = (self._buffer(args[0]), *args[1:])
        return getattr(target, op.name)(*args)

    def _buffer(self, buf_id: int) -> PoolBuffer:
        """The parent pool's own handle for a rank's ``buf_id``."""
        try:
            return self._world.pool.buffer(buf_id)
        except KeyError:
            # Ids are issued once and the ledger forgets a buffer only when
            # it is released, so this names a released buffer: a handle in
            # that state (no bytes) makes a strict retire raise and the
            # idempotent adopt lose quietly, as they would in-process.
            gone = PoolBuffer(None, 0, 0, self._world.pool, buf_id)
            gone.state = "released"
            return gone

    def _ref_batch(self, ref: _ShmRef) -> PackedBatch:
        """Rebuild a ``PackedBatch`` on the parent's canonical pool handle
        (so chaos corruption and accounting see real payload bytes)."""
        buf = self._world.pool.buffer(ref.buf_id)
        payload = memoryview(buf.raw)[: ref.nbytes].toreadonly()
        return PackedBatch(header=ref.header, payload=payload, buf=buf)

    def _msg_to_wire(self, msg: Message) -> tuple:
        return (msg.source, msg.dest, msg.tag, msg.seq, msg.posted_s, _encode(msg.payload))

    # The parent halves of the rows marked _HAND, named _<target>_<name>.
    def _world_post(self, source: int, dest: int, tag: int, enc: Any) -> None:
        payload = _decode(enc, self._ref_batch)
        self._world.post(Message(source=source, dest=dest, tag=tag, payload=payload))

    def _world_take_blocking(self, dest: int, source: int, tag: int) -> tuple:
        return self._msg_to_wire(self._world.take_blocking(dest, source, tag))

    def _world_rendezvous(self, key: tuple, rank: int, enc: Any, group, fold) -> Any:
        contribution = _decode(
            enc, self._ref_batch, self._copy_array if fold is None else self._read_array
        )
        return self._lender.encode(
            self._world.rendezvous(key, rank, contribution, group, fold)
        )

    def _read_array(self, ref: _ShmArray) -> np.ndarray:
        """A contribution where it lies, in the segment its rank lent: the
        fold has read it by the time the rank is replied to."""
        return ref.view(self._world.pool.buffer(ref.buf_id).raw)

    def _copy_array(self, ref: _ShmArray) -> np.ndarray:
        """A contribution with no fold outlives the call in the slot map its
        peers are handed, so it is copied out of the lent segment."""
        return self._read_array(ref).copy()

    def _mailbox_try_take_many(self, rank: int, wants: list) -> list[list[tuple]]:
        taken = self._world.mailboxes[rank].try_take_many(wants)
        return [[self._msg_to_wire(msg) for msg in got] for got in taken]

    def _mailbox_peek(self, rank: int, source: int, tag: int) -> tuple | None:
        msg = self._world.mailboxes[rank].peek(source, tag)
        return None if msg is None else (msg.source, msg.tag)

    def _pool_acquire(self, nbytes: int) -> tuple[int, str, int, int]:
        buf = self._world.pool.acquire(nbytes)
        return (buf.buf_id, buf.segment_name, buf.nbytes, buf.size_class)

    def _flight_dump(self, reason: str, key: object, extra: dict | None):
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


def _copy_out(ref: _ShmRef, pool: BufferPool) -> PackedBatch:
    """Materialise a returned shared-segment batch into private bytes (the
    segments are unlinked when the run ends, so results must not view them)."""
    raw = bytearray(memoryview(pool.buffer(ref.buf_id).raw)[: ref.nbytes])
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

    Shared-memory segments are unlinked on **every** exit path — normal
    return, rank kill, exception, deadline — plus an ``atexit`` backstop in
    the allocator itself.
    """
    size = world.size
    ctx = multiprocessing.get_context("fork")
    # The world's pool *is* the shared pool in this backend, so stats and
    # leak assertions read from one authoritative place.
    pool = world.pool = BufferPool(SegmentAllocator(), name="world-shm")
    has_chaos = getattr(world, "chaos", None) is not None
    pipes = [ctx.Pipe() for _ in range(size)]
    board = _FoldBoard(size, ctx)
    # Fork every child BEFORE starting broker threads: forking a
    # multi-threaded process can deadlock the child on inherited locks.
    procs = [
        ctx.Process(
            target=_child_main,
            args=(
                pipes, r, size, fn, args, world.copy_on_send,
                world.flight.detail, has_chaos, board,
            ),
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
        for broker in brokers:
            for buf_id in broker.lent:
                pool.buffer(buf_id).release()
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
            if ok:
                payload = _decode(payload, lambda ref: _copy_out(ref, pool))
            outcomes.append((ok, payload))
        world.rpc_counts = [broker.counts for broker in brokers]
        return outcomes
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        pool.shutdown()
