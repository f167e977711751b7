"""Regression: Figure 10 totals == trace-derived totals.

The ``phase.*_s`` series a run pushes and its ``epoch.phases`` events are
the always-on totals; the ``phase.<name>`` regions of a traced run are the
same clock reads, event by event.  The series, the events and an exported
trace of the same run can never disagree.
"""

import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import run_spmd
from repro.obs import (
    load_trace,
    merge_ranks,
    phase_totals_by_rank,
    write_chrome_trace,
)
from repro.shuffle import strategy_from_name
from repro.train import TrainConfig, train_worker

PHASES = ("io", "exchange", "fw_bw", "ge_wu")
RANKS = 2


def run(tracing):
    X, y = make_classification(SyntheticSpec(128, 4, n_features=16, seed=3))
    ds = TensorDataset(X, y)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=2, batch_size=8
    )

    def worker(comm):
        return train_worker(
            comm, config, strategy_from_name("partial-0.5"), ds, y, X[:16], y[:16]
        )

    return run_spmd(worker, RANKS, copy_on_send=False, tracing=tracing, deadline_s=300)


@pytest.fixture(scope="module")
def traced_run():
    return run(tracing=True)


def pushed_totals(result):
    """Seconds per phase per rank, from the series the ranks pushed."""
    series = result.world.telemetry.snapshot()["series"]
    return {
        rank: {
            phase: sum(v for _seq, v in series[f"phase.{phase}_s"][str(rank)])
            for phase in PHASES
        }
        for rank in range(RANKS)
    }


class TestPhaseBreakdownMatchesTrace:
    def test_result_equals_trace_derived_totals(self, traced_run):
        per_rank = phase_totals_by_rank(merge_ranks(traced_run.world.flight))
        pushed = pushed_totals(traced_run)
        for rank in range(RANKS):
            for phase in PHASES:
                assert pushed[rank][phase] == pytest.approx(
                    per_rank[rank][phase], rel=1e-9
                ), (rank, phase)

    def test_epoch_phases_event_is_the_pushed_snapshot(self, traced_run):
        series = traced_run.world.telemetry.snapshot()["series"]
        for rec in traced_run.world.flight.recorders:
            epochs = [e for e in rec.events() if e["kind"] == "epoch.phases"]
            assert [e["epoch"] for e in epochs] == [0, 1]
            for e in epochs:
                for phase in PHASES:
                    points = dict(series[f"phase.{phase}_s"][str(rec.rank)])
                    assert e[phase] == points[e["epoch"]]

    def test_totals_survive_chrome_export(self, traced_run, tmp_path):
        """Round-trip through the on-disk format keeps the breakdown within
        the µs resolution of the Chrome timestamp encoding."""
        events = merge_ranks(traced_run.world.flight)
        path = write_chrome_trace(events, tmp_path / "t.json")
        per_rank = phase_totals_by_rank(load_trace(path))
        pushed = pushed_totals(traced_run)
        for rank in range(RANKS):
            for phase in PHASES:
                # Tolerance: each region loses < 1 µs to microsecond rounding.
                n_regions = sum(
                    1 for ev in events
                    if ev.rank == rank and ev.kind == f"phase.{phase}"
                )
                assert pushed[rank][phase] == pytest.approx(
                    per_rank[rank][phase], abs=max(1e-6 * n_regions, 1e-6), rel=0.01
                ), (rank, phase)


class TestUntracedDump:
    def test_phase_table_falls_back_to_the_epoch_totals(self, tmp_path, capsys):
        """An untraced stream has no ``phase.<name>`` region, only each
        epoch's ``epoch.phases`` totals: the breakdown (and `repro trace`'s
        per-phase table) is read from those."""
        from repro.cli import main

        result = run(tracing=False)
        log = result.world.flight
        log.dump_dir = tmp_path
        dump = log.dump("untraced run")
        events = load_trace(dump["path"])
        assert not any(ev.kind.startswith("phase.") for ev in events)
        per_rank = phase_totals_by_rank(events)
        pushed = pushed_totals(result)
        for rank in range(RANKS):
            for phase in PHASES:
                assert per_rank[rank][phase] == pytest.approx(pushed[rank][phase], rel=1e-9)
        assert main(["trace", dump["path"]]) == 0
        out = capsys.readouterr().out
        assert all(phase in out for phase in PHASES)
