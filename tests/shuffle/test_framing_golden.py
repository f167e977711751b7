"""Framing is a pure regrouping: golden placements from the per-sample wire.

``golden_framing.json`` was recorded by running this very module against
the parent commit, whose scheduler put every plan round in its own message
(``PYTHONPATH=<parent>/src python tests/shuffle/test_framing_golden.py
--record``).  Grouping a window's rounds into one frame per peer must not
move a single sample differently: for every case of the grid, after each
epoch every rank's ``(sid, gid)`` storage sequence, its shard checksum and
the scheduler's committed sample total equal the recording.

The recording's wire sent a rank's self-drawn rounds to itself; now they
stay in place and never leave the rank, so its byte total must be the
recording's minus those rounds' bytes, counted from the plan.  Where the
sample stays the placement is still the recording's, sid for sid.
"""

import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea

GOLDEN = Path(__file__).with_name("golden_framing.json")
EPOCHS = 3
SEED = 5

#: (M, Q, b, allow_self, N, chunked) — N mod M covers 0, 1 and 2;
#: ``chunked`` posts window by window as the training loop does.
GRID = [
    (2, 1.0, 4, True, 32, True),
    (2, 0.5, 8, True, 33, False),
    (3, 0.5, 4, True, 37, True),
    (4, 0.3, 32, False, 50, False),
]


def _case_id(case):
    m, q, b, allow_self, n, chunked = case
    return f"M{m}-Q{q:g}-b{b}-self{int(allow_self)}-N{n}-chunk{int(chunked)}"


def _dataset(n):
    x = np.random.default_rng(n).random((n, 6)).astype(np.float32)
    return x, np.arange(n) % 7


def _shard_checksum(storage):
    total = 0
    for sid, sample, label in storage.items():
        crc = zlib.crc32(np.asarray(sample).tobytes(), zlib.crc32(repr(int(label)).encode()))
        total = (total + ((storage.gid_of(sid) << 32) | crc)) & 0xFFFFFFFFFFFFFFFF
    return total


def _worker(comm, case):
    _m, q, b, allow_self, n, chunked = case
    x, y = _dataset(n)
    storage = StorageArea()
    for gid in range(comm.rank, n, comm.size):  # strided: sizes differ by <= 1
        storage.add(x[gid], int(y[gid]), gid=gid)
    sched = Scheduler(
        storage, comm, fraction=q, batch_size=b, seed=SEED,
        allow_self=allow_self,
    )
    epochs = []
    kept_bytes = 0
    for epoch in range(EPOCHS):
        if chunked:
            sched.scheduling(epoch)
            while sched.communicate_chunk():
                pass
            sched.synchronize(*sched.communicate())
            sched.clean_local_storage()
        else:
            sched.run_exchange(epoch)
        kept = int((sched.plan.destinations[:, comm.rank] == comm.rank).sum())
        kept_bytes += kept * (x[0].nbytes + 8 + 8)  # the payload_nbytes model
        epochs.append(
            {
                "placement": [[sid, storage.gid_of(sid)] for sid in storage.ids()],
                "checksum": _shard_checksum(storage),
                "sent_samples": sched.total_sent_samples,
                "sent_bytes": sched.total_sent_bytes,
                "kept_bytes": kept_bytes,
            }
        )
    return epochs


def _run(case):
    return list(run_spmd(_worker, case[0], args=(case,), deadline_s=120))


@pytest.mark.parametrize("case", GRID, ids=_case_id)
def test_matches_per_sample_recording(case):
    golden = json.loads(GOLDEN.read_text())[_case_id(case)]
    got = _run(case)
    kept = [epoch.pop("kept_bytes") for rank in got for epoch in rank]
    # Only the plain permutation draw lets a rank draw itself.
    assert (sum(kept) > 0) == case[3]
    assert got == [
        [
            {**want, "sent_bytes": want["sent_bytes"] - kept_bytes}
            for want, kept_bytes in zip(rank, kept[i * EPOCHS:])
        ]
        for i, rank in enumerate(golden)
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_framing_golden.py --record  (against the parent commit)")
    GOLDEN.write_text(
        json.dumps(
            {
                _case_id(c): [
                    [{k: v for k, v in e.items() if k != "kept_bytes"} for e in rank]
                    for rank in _run(c)
                ]
                for c in GRID
            },
            separators=(",", ":"),
        )
        + "\n"
    )
