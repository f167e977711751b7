"""Multi-rank trace merge: determinism, byte accounting, overlap report."""

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.obs import (
    bytes_by_rank,
    merge_ranks,
    overlap_report,
    phase_totals,
    phase_totals_by_rank,
)
from repro.obs.tracer import TraceEvent, Tracer
from repro.shuffle import Scheduler, StorageArea

SEED = 7
RANKS = 4


def exchange_worker(comm):
    """Deterministic two-epoch PLS exchange under a seeded plan."""
    storage = StorageArea()
    rng = np.random.default_rng(SEED + comm.rank)
    for _ in range(8):
        storage.add(rng.random(4).astype(np.float32), comm.rank)
    sched = Scheduler(storage, comm, fraction=0.5, seed=SEED)
    for epoch in range(2):
        sched.run_exchange(epoch)
    return sched.total_sent_bytes


def run_traced():
    return run_spmd(exchange_worker, RANKS, copy_on_send=False, tracing=True)


class TestMergeDeterminism:
    def test_per_rank_sequences_identical_across_runs(self):
        """Same seeded program twice => byte-identical per-rank span logs
        (names, categories, byte counts — everything but wall-clock)."""
        a, b = run_traced(), run_traced()

        def shape(tracers):
            return [
                [(ev.name, ev.cat, ev.ph,
                  {k: v for k, v in ev.args.items()})
                 for ev in tr.events]
                for tr in tracers
            ]

        assert shape(a.tracers) == shape(b.tracers)

    def test_merge_is_stable_and_ordered(self):
        result = run_traced()
        merged1 = merge_ranks(result.tracers)
        merged2 = merge_ranks(result.tracers)
        assert merged1 == merged2
        ts = [ev.ts for ev in merged1]
        assert ts == sorted(ts)
        assert {ev.rank for ev in merged1} == set(range(RANKS))

    def test_bytes_by_rank_matches_scheduler_counters(self):
        result = run_traced()
        merged = merge_ranks(result.tracers)
        per_rank = bytes_by_rank(merged)
        for rank in range(RANKS):
            # isend nbytes tags must add up to what the scheduler counted
            # (both use the shared payload_nbytes wire-size model).
            assert per_rank[rank]["p2p_sent"] == result[rank]
            # Balanced exchange: every rank receives what it sends.
            assert per_rank[rank]["p2p_recv"] == per_rank[rank]["p2p_sent"]

    def test_exchange_round_spans_carry_attribution(self):
        result = run_traced()
        rounds = [
            ev
            for ev in merge_ranks(result.tracers)
            if ev.name == "exchange.round"
        ]
        assert rounds
        for ev in rounds:
            assert ev.cat == "exchange"
            assert ev.args["mode"] == "blocking"  # run_exchange posts at once
            assert ev.args["q"] == 0.5
            assert ev.args["samples"] >= 1
            assert ev.args["nbytes"] > 0
            # One span per frame: 4 rounds fit one Q*b = 16-round window.
            assert ev.args["window"] == 0
            assert 0 <= ev.args["dest"] < RANKS
        # A frame per (epoch, rank, destination drawn), never per sample —
        # but between them the frames carry every planned sample.
        assert len(rounds) <= 2 * RANKS * RANKS
        assert sum(ev.args["samples"] for ev in rounds) == 2 * RANKS * 4

    def test_overlap_report_attributes_blocking_rounds(self):
        result = run_traced()
        report = overlap_report(merge_ranks(result.tracers))
        for rank in range(RANKS):
            assert report[rank]["blocking_rounds_s"] > 0
            assert report[rank]["overlap_rounds_s"] == 0.0


class TestPhaseTotals:
    def _mk(self, rank, name, ts, dur, cat="phase"):
        return TraceEvent(name=name, cat=cat, ph="X", ts=ts, dur=dur, rank=rank)

    def test_sums_phase_spans_only(self):
        events = [
            self._mk(0, "io", 0.0, 1.0),
            self._mk(0, "io", 2.0, 0.5),
            self._mk(0, "fw_bw", 3.0, 2.0),
            self._mk(1, "io", 0.0, 0.25),
            self._mk(0, "not_a_phase", 0.0, 9.0, cat="train"),
        ]
        totals = phase_totals(events)
        assert totals == {"io": 1.75, "fw_bw": 2.0}
        per_rank = phase_totals_by_rank(events)
        assert per_rank[0]["io"] == 1.5
        assert per_rank[1] == {"io": 0.25}

    def test_phase_timer_equivalence(self):
        """Summing a rank's phase spans reproduces a PhaseTimer wrapped
        around the same regions — the timer is now a view over the trace."""
        import time

        from repro.utils import PhaseTimer

        tr = Tracer(rank=0)
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("io"), tr.span("io", cat="phase"):
                time.sleep(0.002)
        trace_total = phase_totals(tr.events)["io"]
        assert trace_total == pytest.approx(timer.total("io"), rel=0.2, abs=0.002)
        assert len([ev for ev in tr.events if ev.name == "io"]) == timer.count("io")
