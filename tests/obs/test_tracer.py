"""The recorder's timed events: spans, nesting, phases, and the gated path."""

import time

import pytest

from repro.obs import FlightRecorder
from repro.obs.telemetry.flight import _NULL_SPAN


def only(rec):
    (event,) = rec.events()
    return event


class TestSpans:
    def test_span_records_complete_event(self):
        rec = FlightRecorder(3)
        with rec.span("app.work", k=1):
            time.sleep(0.001)
        ((ts, dur, kind, fields),) = rec
        assert kind == "app.work"
        assert dur >= 0.001
        assert fields == {"k": 1}
        assert only(rec) == {"ts": ts, "kind": "app.work", "dur": dur, "k": 1}

    def test_nested_spans_contained_in_parent(self):
        rec = FlightRecorder(0)
        with rec.span("outer"):
            with rec.span("inner"):
                time.sleep(0.001)
        inner, outer = rec.events()  # inner closes first
        assert inner["kind"] == "inner" and outer["kind"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    def test_post_hoc_args_via_set(self):
        rec = FlightRecorder(0)
        with rec.span("p2p.recv", peer=1) as sp:
            sp.set(nbytes=4096)
        event = only(rec)
        assert (event["peer"], event["nbytes"]) == (1, 4096)

    def test_span_recorded_even_when_body_raises(self):
        rec = FlightRecorder(0)
        with pytest.raises(ValueError):
            with rec.span("boom"):
                raise ValueError("x")
        # The event says what was attempted and that it did not happen.
        assert only(rec)["error"] == "ValueError"

    def test_instant_has_no_duration(self):
        rec = FlightRecorder(1)
        rec.record("marker", epoch=2)
        ((_ts, dur, kind, fields),) = rec
        assert (dur, kind, fields) == (0.0, "marker", {"epoch": 2})
        assert "dur" not in only(rec)

    def test_clear(self):
        rec = FlightRecorder(0)
        with rec.span("x"):
            pass
        rec.clear()
        assert len(rec) == 0


class TestPhases:
    def test_totals_accumulate_and_reset_on_take(self):
        rec = FlightRecorder(0)
        for _ in range(3):
            with rec.phase("io"):
                time.sleep(0.001)
        with rec.phase("fw_bw"):
            pass
        totals = rec.take_phases()
        assert set(totals) == {"io", "fw_bw"} and totals["io"] >= 0.003
        assert rec.take_phases() == {}
        # Always-on accounting leaves nothing in the ring...
        assert len(rec) == 0

    def test_detail_records_each_region_and_sums_to_the_totals(self):
        rec = FlightRecorder(0)
        rec.enable_detail()
        for _ in range(3):
            with rec.phase("io"):
                pass
        regions = [e for e in rec.events() if e["kind"] == "phase.io"]
        assert len(regions) == 3
        assert sum(e["dur"] for e in regions) == pytest.approx(
            rec.take_phases()["io"], rel=1e-12
        )

    def test_detail_keeps_everything(self):
        rec = FlightRecorder(0, capacity=4)
        for i in range(3):
            rec.record("before", i=i)
        rec.enable_detail()
        for i in range(100):
            rec.record("after", i=i)
        assert rec.detail and len(rec) == 103

    def test_suspended_turns_detail_off_and_back(self):
        rec = FlightRecorder(0)
        rec.enable_detail()
        with rec.suspended():
            assert not rec.detail
            with rec.suspended():
                pass
            assert not rec.detail
            rec.record("still.recorded")  # always-on events are not detail
        assert rec.detail and len(rec) == 1


class TestDisabledNoOp:
    def test_disabled_records_nothing(self):
        rec = FlightRecorder(0)
        rec.enabled = False
        with rec.span("x", big=list(range(10))):
            pass
        rec.record("y")
        assert len(rec) == 0

    def test_disabled_span_is_shared_null_object(self):
        # No per-call allocation: the disabled path returns one singleton.
        rec = FlightRecorder(0)
        rec.enabled = False
        assert rec.span("a") is rec.span("b") is _NULL_SPAN
        with rec.span("x") as sp:
            sp.set(nbytes=1)

    def test_disabled_overhead_guard(self):
        """A per-message site on a recorder with ``detail`` off must stay
        within noise of a bare loop.

        Generous bound (20x / 20µs per op) so CI jitter can't flake it while
        a regression to eager event construction (1000x) still fails.
        """
        rec = FlightRecorder(0)
        n = 20_000

        t0 = time.perf_counter()
        for _ in range(n):
            pass
        baseline = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(n):
            if rec.detail:
                with rec.span("p2p.isend", peer=1, tag=2, nbytes=3):
                    pass
        gated = time.perf_counter() - t0

        rec.enabled = False
        t0 = time.perf_counter()
        for _ in range(n):
            with rec.span("op"):
                pass
        null_span = time.perf_counter() - t0

        assert len(rec) == 0
        assert gated < max(20 * baseline, 20e-6 * n)
        assert null_span < max(60 * baseline, 20e-6 * n)
