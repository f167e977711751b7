"""`repro trace`'s summary of a stream that holds a run's lifecycle.

The post-mortem of a self-healing run — kill, shrink, checkpoint, crash,
restart, rejoin, rebalance — is a table at the top of the summary, built
from the same events as every other table; a stream without transitions
(a ``train --trace`` file) has no timeline.
"""

from repro.obs import merge_ranks, render_summary, summarize_events
from repro.obs.telemetry import FLIGHT_SCHEMA


def make_dump(ranks):
    return {"schema": FLIGHT_SCHEMA, "reason": "lifecycle complete", "ranks": ranks}


def lifecycle_dump():
    return make_dump({
        "0": [
            {"ts": 10.0, "kind": "lifecycle.checkpoint", "epoch": 1},
            {"ts": 10.5, "kind": "exchange.send", "peer": 1},
            {"ts": 12.0, "kind": "lifecycle.restart", "epoch": 2},
            {"ts": 13.0, "kind": "lifecycle.verified"},
        ],
        "1": [
            {"ts": 11.0, "kind": "rank.died", "point": "mid_exchange"},
            {"ts": 12.5, "kind": "elastic.recovered"},
        ],
    })


def split_summary(dump):
    """The summary text cut into its timeline table and what follows it."""
    text = render_summary(summarize_events(merge_ranks(dump)))
    timeline, _, rest = text.partition("\n\n")
    return timeline, rest


class TestLifecycleTimeline:
    def test_transitions_lead_the_summary_in_time_order(self):
        timeline, rest = split_summary(lifecycle_dump())
        assert timeline.startswith("lifecycle timeline: 5 event(s)")
        order = [
            "lifecycle.checkpoint", "rank.died", "lifecycle.restart",
            "elastic.recovered", "lifecycle.verified",
        ]
        positions = [timeline.index(kind) for kind in order]
        assert positions == sorted(positions), timeline
        assert rest.startswith("6 events over 2 rank(s)")

    def test_other_kinds_stay_out_of_the_timeline(self):
        timeline, _ = split_summary(lifecycle_dump())
        assert "exchange.send" not in timeline

    def test_timestamps_rebased_to_the_first_transition(self):
        # Fields of each transition are its detail column.
        timeline, _ = split_summary(lifecycle_dump())
        assert "+0.000s" in timeline and "+3.000s" in timeline
        assert "point=mid_exchange" in timeline

    def test_a_stream_without_transitions_has_no_timeline(self):
        dump = make_dump({
            "0": [{"ts": 1.0, "dur": 0.5, "kind": "phase.io", "epoch": 0}],
            "1": [{"ts": 1.2, "kind": "exchange.send", "peer": 0}],
        })
        text = render_summary(summarize_events(merge_ranks(dump)))
        assert "lifecycle timeline" not in text
        assert text.startswith("2 events over 2 rank(s)")

    def test_an_empty_ring_has_no_timeline(self):
        summary = summarize_events(merge_ranks(make_dump({"0": []})))
        assert summary.transitions == []
        assert render_summary(summary) == "0 events over 0 rank(s), wall 0.0000 s"
