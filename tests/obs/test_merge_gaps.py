"""Cross-rank merge under damage: gaps degrade gracefully, never raise.

A rank that died before leaving a stream is a ``None``; a clock-skewed or
corrupted row carries a non-finite timestamp.  ``merge_ranks`` must keep
everything salvageable and warn about what was lost.
"""

import math

import pytest

from repro.obs import Event
from repro.obs.merge import merge_ranks, phase_totals


def ev(name, ts, rank=0, dur=0.5):
    return Event(ts=ts, dur=dur, kind=f"phase.{name}", fields={}, rank=rank)


class TestMissingRankStreams:
    def test_none_stream_skipped_with_warning(self):
        good = [ev("io", 1.0, rank=0)]
        with pytest.warns(RuntimeWarning, match="missing rank stream"):
            merged = merge_ranks([good, None, None])
        assert [e.kind for e in merged] == ["phase.io"]

    def test_all_streams_missing_yields_empty(self):
        with pytest.warns(RuntimeWarning):
            assert merge_ranks([None, None]) == []

    def test_no_warning_when_complete(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = merge_ranks([[ev("a", 1.0)], [ev("b", 2.0, rank=1)]])
        assert len(merged) == 2


class TestSkewedTimestamps:
    def test_non_finite_events_dropped_with_warning(self):
        events = [
            ev("ok", 1.0),
            ev("skewed", -5.0),          # negative: before the clock epoch
            ev("nan", math.nan),
            ev("inf-dur", 2.0, dur=math.inf),
        ]
        with pytest.warns(RuntimeWarning, match="non-finite or negative"):
            merged = merge_ranks([events])
        assert [e.kind for e in merged] == ["phase.ok"]

    def test_phase_totals_usable_after_drops(self):
        events = [ev("io", 1.0, dur=0.25), ev("io", math.nan)]
        with pytest.warns(RuntimeWarning):
            merged = merge_ranks([events])
        assert phase_totals(merged) == {"io": 0.25}

    def test_merge_is_deterministic(self):
        streams = [[ev("a", 2.0), ev("b", 1.0)], [ev("c", 1.0, rank=1)]]
        assert merge_ranks(list(streams)) == merge_ranks(list(streams))

    def test_damaged_dump_rows_are_dropped_not_raised(self):
        """The same rule through the dump reader: a dump whose rows carry a
        skewed timestamp still merges."""
        dump = {"ranks": {
            "0": [{"ts": 1.0, "kind": "phase.io", "dur": 0.5},
                  {"ts": -1.0, "kind": "phase.io", "dur": 0.5}],
            "1": [],
        }}
        with pytest.warns(RuntimeWarning, match="non-finite or negative"):
            merged = merge_ranks(dump)
        assert phase_totals(merged) == {"io": 0.5}
