"""The one shard-migration executor: recovery and rejoin both end here.

A shrink (:mod:`repro.elastic.recovery`) and an expand
(:mod:`repro.elastic.rejoin`) each plan, as a pure function of allgathered
state, which samples must change hands; :func:`migrate` carries the plan
out on every member.  Each move is ``(gid, source, dest, how)`` over local
ranks of the communicator the plan was made on, with ``how`` one of

* :data:`TRANSFER` — the source sends its copy (hot or cold)
  point-to-point on one tag of the caller's range;
* :data:`PROMOTE` — the destination promotes its own cold replica;
* :data:`READ` — no live replica: the destination re-reads the source
  dataset by gid (the parallel file system always holds the original,
  §III-A).

Afterwards a gid is hot on its destination only — the source keeps its
bytes as a cold replica — and every member re-points its ledger copy
identically: each gid is held hot by exactly one live rank, the
without-replacement premise the exchange rests on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mpi.request import waitall
from repro.mpi.tags import TagRange
from repro.shuffle.storage import StorageArea, StorageFullError

from .ledger import ReplicaLedger

__all__ = ["TRANSFER", "PROMOTE", "READ", "migrate", "scaled_capacity"]

TRANSFER = "transfer"
PROMOTE = "promote"
READ = "read"


def scaled_capacity(capacity: int | None, old_size: int, new_size: int) -> int | None:
    """The ``(1+Q)·N/M`` bound re-based from ``old_size`` to ``new_size``
    workers, rounded up (``None`` stays unbounded)."""
    return None if capacity is None else -(-capacity * old_size // new_size)


def migrate(
    comm,
    storage: StorageArea,
    ledger: ReplicaLedger,
    moves: Sequence[tuple[int, int | None, int, str]],
    *,
    tags: TagRange,
    first_tag: int = 0,
    dataset=None,
) -> int:
    """Carry out ``moves`` (collective); returns the bytes that crossed
    the wire, summed over every member.

    Move ``i`` transfers on ``tags.tag(first_tag + i)``.  Received
    transfers install first, in plan order; then promotes, reads and the
    sources' demotes run, in plan order.
    """
    me = comm.rank
    send_reqs = []
    recv_reqs: list[tuple[int, object]] = []
    for idx, (gid, src, dst, how) in enumerate(moves):
        if how != TRANSFER:
            continue
        # Wraps modulo the range width; FIFO matching per (source, tag)
        # channel keeps reused tags unambiguous within one migration.
        tag = tags.tag(first_tag + idx)
        if me == src:
            sample, label = storage.get_by_gid(gid)
            # A copy: the by-reference transport would hand the peer a view
            # of our storage, valid only while our entry lives
            # (StorageArea's view-validity rule).
            send_reqs.append(
                comm.isend((np.array(sample), label, gid), dest=dst, tag=tag)
            )
        if me == dst:
            recv_reqs.append((gid, comm.irecv(source=src, tag=tag)))
    waitall(send_reqs)
    nbytes = 0
    for gid, req in recv_reqs:
        sample, label, wire_gid = req.wait()
        if wire_gid != gid:
            raise RuntimeError(
                f"migration transfer mismatch: expected gid {gid}, got {wire_gid}"
            )
        nbytes += int(np.asarray(sample).nbytes)
        _install(storage, np.asarray(sample), int(label), gid)
    for gid, src, dst, how in moves:
        if dst == me:
            if how == PROMOTE:
                storage.promote(gid)
            elif how == READ:
                # One read: the dataset retries its own flaky reads.
                sample, label = dataset[gid]
                _install(storage, np.asarray(sample), int(label), gid)
        elif src == me:
            # The source keeps the bytes cold: a recovery replica within the
            # (1+Q) budget, evicted automatically under capacity pressure.
            sid = storage.sid_of(gid)
            if sid is not None:
                storage.demote(sid)
    # Byte count is global (every member reports the same number).
    nbytes = int(comm.allreduce(nbytes))
    for gid, _src, dst, _how in moves:
        ledger.reassign(gid, comm.group[dst])
    missing = ledger.missing_from(comm.group)
    if missing:
        raise RuntimeError(
            f"migration incomplete: {len(missing)} gid(s) still unheld "
            f"(first: {missing[:5]})"
        )
    return nbytes


def _install(storage: StorageArea, sample: np.ndarray, label: int, gid: int) -> None:
    try:
        storage.add(sample, label, gid=gid)
    except StorageFullError:
        # The plan respected every rank's capacity; reaching here means
        # cold replicas crowded the budget — drop them (they are an
        # opportunistic cache) and retry once.
        storage.drop_cold()
        storage.add(sample, label, gid=gid)
