"""Exporter round-trips: the flight dump and Chrome trace-event JSON."""

import json

import pytest

from repro.obs import (
    FlightLog,
    chrome_trace_events,
    load_trace,
    merge_ranks,
    write_chrome_trace,
)


@pytest.fixture
def log():
    log = FlightLog(3)
    rec = log.for_rank(2)
    with rec.span("phase.outer"):
        with rec.span("p2p.isend", peer=1, nbytes=128):
            pass
    rec.record("app.mark", epoch=1)
    return log


def by_kind(events):
    return {ev.kind: ev for ev in events}


class TestChrome:
    def test_valid_event_list(self, log, tmp_path):
        path = write_chrome_trace(merge_ranks(log), tmp_path / "t.json")
        rows = json.loads(path.read_text())
        assert isinstance(rows, list)
        real = [r for r in rows if r["ph"] != "M"]
        assert len(real) == 3
        for row in real:
            assert {"name", "cat", "ph", "ts", "pid", "tid", "args"} <= set(row)
            assert row["pid"] == 2
            assert row["ts"] >= 0  # rebased to the earliest event
        complete = [r for r in real if r["ph"] == "X"]
        assert {r["name"] for r in complete} == {"phase.outer", "p2p.isend"}
        assert all("dur" in r for r in complete)
        # The category is the kind's first component.
        assert {r["cat"] for r in real} == {"phase", "p2p", "app"}

    def test_process_metadata_one_per_rank(self):
        log = FlightLog(3)
        for rec in log.recorders:
            with rec.span("w"):
                pass
        rows = chrome_trace_events(merge_ranks(log))
        meta = [r for r in rows if r["ph"] == "M" and r["name"] == "process_name"]
        assert {m["pid"] for m in meta} == {0, 1, 2}
        assert {m["args"]["name"] for m in meta} == {"rank 0", "rank 1", "rank 2"}

    def test_timestamps_in_microseconds(self, log, tmp_path):
        path = write_chrome_trace(merge_ranks(log), tmp_path / "t.json")
        outer = by_kind(load_trace(path))["phase.outer"]  # back to seconds
        orig = by_kind(merge_ranks(log))["phase.outer"]
        assert outer.dur == pytest.approx(orig.dur, abs=1e-9)

    def test_nesting_survives_round_trip(self, log, tmp_path):
        path = write_chrome_trace(merge_ranks(log), tmp_path / "t.json")
        events = by_kind(load_trace(path))
        outer, inner = events["phase.outer"], events["p2p.isend"]
        assert outer.ts <= inner.ts + 1e-9
        assert inner.end <= outer.end + 1e-9
        assert inner.fields == {"peer": 1, "nbytes": 128}
        assert events["app.mark"].dur == 0.0

    def test_event_list_input(self, log, tmp_path):
        # Any event list (e.g. one rank's slice of a timeline) exports.
        events = [ev for ev in merge_ranks(log) if ev.dur]
        path = write_chrome_trace(events, tmp_path / "t.json")
        assert len(load_trace(path)) == 2


class TestFlightDump:
    def test_dump_round_trip_is_lossless(self, log, tmp_path):
        log.dump_dir = tmp_path
        dump = log.dump("round trip")
        # Raw seconds, nothing rebased or rounded: the dump *is* the stream.
        assert load_trace(dump["path"]) == merge_ranks(log) == merge_ranks(dump)

    def test_neither_format_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"series": {}}')
        with pytest.raises(ValueError, match="neither a flight dump"):
            load_trace(path)
