"""Multi-rank stream merge: determinism, byte accounting, overlap report."""

import time

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.obs import (
    Event,
    FlightRecorder,
    bytes_by_rank,
    merge_ranks,
    overlap_report,
    phase_totals,
    phase_totals_by_rank,
)
from repro.shuffle import Scheduler, StorageArea
from repro.shuffle.exchange_plan import ExchangePlan, plan_frames

from exchange_steps import exchange_epoch

SEED = 7
RANKS = 4

#: What a seeded run does *not* repeat event for event, and why.  The
#: receiver verifies a frame, and the sender sees its ACK, whenever the
#: message happens to arrive — so these two kinds interleave differently
#: with the rest of the rank's stream from run to run (their multiset is
#: checked separately below).
ARRIVAL_ORDERED = ("round.verified", "round.ack")
#: The pool is one object for the whole world: how many buffers the *other*
#: ranks hold at the instant this rank commits depends on who got there first.
WORLD_SHARED = {"epoch.commit": ("pool_in_use",)}
#: A wall-clock reading among the fields: how long a delivery waited for the
#: sweep that serviced it.
WALL_CLOCK = {"round.verified": ("queued_s",)}


def exchange_worker(comm):
    """Deterministic two-epoch PLS exchange under a seeded plan."""
    storage = StorageArea()
    rng = np.random.default_rng(SEED + comm.rank)
    for _ in range(8):
        storage.add(rng.random(4).astype(np.float32), comm.rank)
    sched = Scheduler(storage, comm, fraction=0.5, seed=SEED)
    for epoch in range(2):
        exchange_epoch(sched, epoch)
    return sched.total_sent_bytes


def planned_posts(ranks=RANKS):
    """Per rank, the ``(epoch, window, peer, samples)`` of every frame the
    plan has it send in :func:`exchange_worker`: 4 rounds of its 8 samples
    per epoch, in one Q*b = 16-round window, a frame per other rank drawn."""
    out = {rank: [] for rank in range(ranks)}
    for epoch in range(2):
        plan = ExchangePlan.for_epoch(seed=SEED, epoch=epoch, size=ranks, rounds=4)
        for rank in range(ranks):
            for sends, _owed, _kept in plan_frames(plan, 16, rank):
                out[rank] += [(epoch, f.window, f.peer, len(f.positions)) for f in sends]
    return out


def run_traced(ranks=RANKS, backend=None):
    return run_spmd(
        exchange_worker, ranks, tracing=True, backend=backend
    )


def stream_shape(flight):
    """Per rank: the ordered ``(kind, fields)`` sequence of everything a
    seeded run repeats, and the sorted rest."""
    ordered, arrivals = [], []
    for rec in flight.recorders:
        events = [(kind, dict(fields)) for _ts, _dur, kind, fields in rec]
        for kind, fields in events:
            for name in (*WORLD_SHARED.get(kind, ()), *WALL_CLOCK.get(kind, ())):
                del fields[name]
        ordered.append([e for e in events if e[0] not in ARRIVAL_ORDERED])
        arrivals.append(sorted(
            (e for e in events if e[0] in ARRIVAL_ORDERED),
            key=lambda e: (e[0], sorted(e[1].items())),
        ))
    return ordered, arrivals


class TestMergeDeterminism:
    def test_per_rank_sequences_identical_across_runs(self):
        """Same seeded program twice => identical per-rank streams (kinds,
        byte counts, plan fingerprints — everything but wall-clock)."""
        a, b = run_traced(), run_traced()
        assert stream_shape(a.world.flight) == stream_shape(b.world.flight)

    def test_stream_identical_across_backends(self):
        """One traced 2-rank exchange records the same stream whether its
        ranks are threads or forked processes: same sites, same order, the
        events stamped at the rank either way."""
        threads = run_traced(2, "threads").world.flight
        procs = run_traced(2, "procs").world.flight
        ordered, arrivals = stream_shape(threads)
        assert (ordered, arrivals) == stream_shape(procs)
        kinds = {kind for events in ordered for kind, _ in events}
        assert {"exchange.plan", "round.post", "epoch.commit",
                "coll.allreduce"} <= kinds
        assert all(arrivals)

    def test_merge_is_stable_and_ordered(self):
        result = run_traced()
        merged1 = merge_ranks(result.world.flight)
        merged2 = merge_ranks(result.world.flight)
        assert merged1 == merged2
        ts = [ev.ts for ev in merged1]
        assert ts == sorted(ts)
        assert {ev.rank for ev in merged1} == set(range(RANKS))

    def test_bytes_by_rank_matches_scheduler_counters(self):
        result = run_traced()
        per_rank = bytes_by_rank(merge_ranks(result.world.flight))
        planned = planned_posts()
        for rank in range(RANKS):
            # round.post nbytes must add up to what the scheduler counted
            # (both use the shared payload_nbytes wire-size model: 16 bytes
            # of sample, 8 of label, 8 of gid), and to the plan's frames.
            assert per_rank[rank]["p2p_sent"] == result[rank]
            assert result[rank] == 32 * sum(n for *_f, n in planned[rank]) > 0
            # Balanced exchange: every rank receives what it sends.
            assert per_rank[rank]["p2p_recv"] == per_rank[rank]["p2p_sent"]

    def test_exchange_round_spans_carry_attribution(self):
        result = run_traced()
        merged = merge_ranks(result.world.flight)
        posts = [ev for ev in merged if ev.kind == "round.post"]
        assert posts
        for ev in posts:
            assert ev.dur > 0  # the timed post
            assert ev.fields["mode"] == "blocking"  # exchange_epoch posts at once
            assert ev.fields["nbytes"] == 32 * ev.fields["samples"]
        assert all(
            ev.fields["q"] == 0.5 for ev in merged if ev.kind == "exchange.plan"
        )
        # One event per frame, never per sample: a frame per (epoch, rank,
        # other rank drawn), exactly as the plan cuts them.
        for rank, frames in planned_posts().items():
            assert [
                tuple(ev.fields[f] for f in ("epoch", "window", "peer", "samples"))
                for ev in posts if ev.rank == rank
            ] == frames

    def test_overlap_report_attributes_blocking_rounds(self):
        result = run_traced()
        report = overlap_report(merge_ranks(result.world.flight))
        for rank in range(RANKS):
            assert report[rank]["blocking_rounds_s"] > 0
            assert report[rank]["overlap_rounds_s"] == 0.0


class TestPhaseTotals:
    def _mk(self, rank, kind, ts, dur):
        return Event(ts=ts, dur=dur, kind=kind, fields={}, rank=rank)

    def test_sums_phase_spans_only(self):
        events = [
            self._mk(0, "phase.io", 0.0, 1.0),
            self._mk(0, "phase.io", 2.0, 0.5),
            self._mk(0, "phase.fw_bw", 3.0, 2.0),
            self._mk(1, "phase.io", 0.0, 0.25),
            self._mk(0, "train.not_a_phase", 0.0, 9.0),
        ]
        totals = phase_totals(events)
        assert totals == {"io": 1.75, "fw_bw": 2.0}
        per_rank = phase_totals_by_rank(events)
        assert per_rank[0]["io"] == 1.5
        assert per_rank[1] == {"io": 0.25}

    def test_phase_timer_equivalence(self):
        """Summing a rank's phase regions reproduces a plain clock bracket
        around the same regions — and the always-on totals exactly."""
        rec = FlightRecorder(0)
        rec.enable_detail()
        bracket = 0.0
        for _ in range(3):
            t0 = time.perf_counter()
            with rec.phase("io"):
                time.sleep(0.002)
            bracket += time.perf_counter() - t0
        events = merge_ranks([[Event(*ev, 0) for ev in rec]])
        assert phase_totals(events)["io"] == pytest.approx(bracket, rel=0.2, abs=0.002)
        assert phase_totals(events)["io"] == pytest.approx(rec.take_phases()["io"])
        assert len([ev for ev in events if ev.kind == "phase.io"]) == 3
