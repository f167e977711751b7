"""Flight recorder: bounded rings, dedup'd dumps, and fault-path hooks.

The acceptance bar of the always-on telemetry work: a chaos kill and an
:class:`~repro.mpi.errors.UnrecoveredFaultError` must each leave a
post-mortem dump containing the recent exchange/phase events of every
surviving rank — without tracing, without any flag, at ring-buffer cost.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.cli import main
from repro.data import SyntheticSpec
from repro.elastic import run_lifecycle
from repro.faults import ChaosEngine, ChaosWorld
from repro.mpi import RankFailed, World, run_spmd
from repro.obs.telemetry import (
    DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_DIR_ENV,
    FLIGHT_SCHEMA,
    FlightLog,
    FlightRecorder,
)
from repro.shuffle import Scheduler, StorageArea
from repro.shuffle import scheduler as scheduler_mod
from repro.shuffle.exchange_plan import ExchangePlan, plan_frames
from repro.train.experiments import make_experiment_data
from repro.train.trainer import TrainConfig

from exchange_steps import exchange_epoch


class TestFlightRecorder:
    def test_ring_bounded_at_capacity(self):
        rec = FlightRecorder(0, capacity=8)
        for i in range(30):
            rec.record("tick", i=i)
        assert len(rec.events()) == 8
        events = rec.events()
        # Oldest first, and only the *last* 8 survived.
        assert [e["i"] for e in events] == list(range(22, 30))
        assert all(e["kind"] == "tick" for e in events)
        assert all("ts" in e for e in events)

    def test_default_capacity_covers_many_rounds(self):
        # ~4 events per reliable round: 512 keeps >= 100 rounds of context.
        assert DEFAULT_FLIGHT_CAPACITY >= 4 * 100


class TestFlightLog:
    def test_dump_structure(self):
        log = FlightLog(3, capacity=16)
        log.for_rank(1).record("hello", x=1)
        dump = log.dump("test reason")
        assert dump["schema"] == FLIGHT_SCHEMA
        assert dump["reason"] == "test reason"
        assert set(dump["ranks"]) == {"0", "1", "2"}
        assert dump["ranks"]["1"][0]["kind"] == "hello"
        assert log.dumps[-1] is dump

    def test_key_dedup(self):
        log = FlightLog(2)
        first = log.dump("boom", key=("k", 1))
        again = log.dump("boom", key=("k", 1))
        other = log.dump("boom", key=("k", 2))
        assert first is not None
        assert again is None
        assert other is not None
        assert len(log.dumps) == 2

    def test_dump_written_to_dir(self, tmp_path):
        log = FlightLog(2, dump_dir=tmp_path)
        log.for_rank(0).record("ev")
        dump = log.dump("Disk Check: reason/with bad chars")
        path = tmp_path / dump["path"].split("/")[-1]
        assert path.is_file()
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == FLIGHT_SCHEMA
        assert loaded["ranks"]["0"][0]["kind"] == "ev"

    def test_dump_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        log = FlightLog(1)
        log.dump("env routed")
        assert list(tmp_path.glob("flight-*.json"))


def _fill_storage(rank, n=8, dim=4):
    st = StorageArea()
    for i in range(n):
        st.add(np.array([rank, i, 0, 0][:dim], dtype=np.float32), label=rank)
    return st


class TestUnrecoveredFaultDump:
    """corrupt:p=1 defeats the resend machinery -> dump, then the error.

    Epoch 0 runs clean (with a barrier after it) so that when epoch 1's
    total corruption kills the exchange, every rank's ring demonstrably
    holds its recent rounds — the post-mortem the dump promises.
    """

    @pytest.fixture(scope="class")
    def aftermath(self):
        engine = ChaosEngine("corrupt:p=1,epochs=1", seed=0)
        captured = {}

        def factory(size, **kwargs):
            world = ChaosWorld(size, chaos=engine, **kwargs)
            captured["world"] = world
            return world

        def worker(comm):
            sched = Scheduler(
                _fill_storage(comm.rank), comm, fraction=0.5, batch_size=4,
                seed=7, resend_timeout_s=0.02,
            )
            exchange_epoch(sched, 0)  # clean epoch: every ring fills up
            comm.barrier()
            exchange_epoch(sched, 1)  # fully corrupted: must give up and dump
            return sched

        # Two attempts, not sixteen: the give-up comes after ~0.1 s of
        # backoff rather than seconds.
        with pytest.MonkeyPatch.context() as mp, pytest.raises(RankFailed):
            mp.setattr(scheduler_mod, "MAX_ATTEMPTS", 2)
            run_spmd(worker, 4, deadline_s=60, world_factory=factory)
        return captured["world"]

    def test_dump_taken(self, aftermath):
        assert aftermath.flight.dumps, "no post-mortem dump on UnrecoveredFaultError"

    def test_dump_names_the_fault(self, aftermath):
        kinds = {
            e["kind"]
            for dump in aftermath.flight.dumps
            for events in dump["ranks"].values()
            for e in events
        }
        assert "fault.unrecovered" in kinds

    def test_every_rank_has_exchange_events(self, aftermath):
        dump = aftermath.flight.dumps[0]
        assert set(dump["ranks"]) == {"0", "1", "2", "3"}
        for rank, events in dump["ranks"].items():
            kinds = {e["kind"] for e in events}
            assert "exchange.plan" in kinds, f"rank {rank} missing plan event"
            assert any(k.startswith("round.") for k in kinds), (
                f"rank {rank} has no per-frame exchange events"
            )
            # The clean epoch committed before the fault: its full frame
            # history is what the ring preserves for the post-mortem.
            assert "epoch.commit" in kinds, f"rank {rank} missing epoch 0"
            # One record per frame, addressed by (window, peer): epoch 0's
            # 4 plan rounds in two Q*b = 2-round windows, each cut into at
            # most one frame per other rank — the rounds a rank drew itself
            # stay and post nothing.
            plan = ExchangePlan.for_epoch(seed=7, epoch=0, size=4, rounds=4)
            frames = [
                (f.window, f.peer, len(f.positions))
                for sends, _owed, _kept in plan_frames(plan, 2, int(rank))
                for f in sends
            ]
            posts = [
                (e["window"], e["peer"], e["samples"])
                for e in events if e["kind"] == "round.post" and e["epoch"] == 0
            ]
            assert posts and posts == frames
            assert all(peer != int(rank) for _w, peer, _n in posts)


class TestChaosKillDump:
    """A fail-stop kill mid-training dumps every survivor's recent rounds."""

    @pytest.fixture(scope="class")
    def result(self):
        spec = SyntheticSpec(n_samples=240, n_classes=4, n_features=16, seed=0)
        train_ds, labels, val_X, val_y = make_experiment_data(spec)
        config = TrainConfig(
            model="mlp", in_shape=(16,), num_classes=4,
            epochs=3, batch_size=8, base_lr=0.05,
            partition="class_sorted", seed=0,
        )
        return run_lifecycle(
            config=config, workers=4, q=0.3, profile="kill:rank=1,epoch=2",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )

    def test_kill_produced_dumps(self, result):
        assert result.dead_ranks == (1,)
        assert result.results.world.flight.dumps, "chaos kill left no flight dump"
        reasons = " | ".join(d["reason"] for d in result.results.world.flight.dumps)
        assert "died" in reasons or "death" in reasons

    def test_survivors_have_exchange_and_phase_events(self, result):
        # The death-at-epoch-2 dump must carry every surviving rank's
        # recent exchange rounds and per-epoch phase breakdowns.
        dump = result.results.world.flight.dumps[0]
        for rank in ("0", "2", "3"):
            kinds = {e["kind"] for e in dump["ranks"][rank]}
            assert any(k.startswith("round.") for k in kinds), (
                f"survivor {rank} has no exchange round events"
            )
            assert "epoch.phases" in kinds, (
                f"survivor {rank} has no phase breakdown events"
            )

    def test_lifecycle_complete_dump_loads_through_repro_trace(
        self, result, tmp_path, capsys
    ):
        # One reader: `repro trace` prints the run's lifecycle timeline
        # first, then what the always-on events alone give — the
        # exchange's bytes and its timed posts and commits.
        dump = result.results.world.flight.dumps[-1]
        assert dump["reason"] == "lifecycle complete"
        path = tmp_path / "complete.json"
        path.write_text(json.dumps(dump, default=str))
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lifecycle timeline: ")
        timeline = out[: out.index("\n\n")]
        died = [row.split("|") for row in timeline.splitlines() if "rank.died" in row]
        assert died and all(cells[2].strip() == "1" for cells in died)
        assert "elastic." in timeline
        assert "exchange.send" not in timeline and "epoch.phases" not in timeline
        assert "bytes moved per rank" in out
        assert "exchange overlap attribution" in out
        assert "epoch.commit" in out  # among the top spans

    def test_telemetry_survived_the_shrink(self, result):
        # The aggregator lives on the world: series keep flowing after the
        # shrink, keyed by world rank.
        snap = result.results.world.telemetry.snapshot()
        assert snap["pushes"] > 0
        assert "train.loss" in snap["series"]


class TestStampedAtTheRank:
    """An event's ``ts`` is when it happened at the rank — not when a
    ``procs`` parent took it off the rank's flight ring, which can be
    epochs later."""

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_ts_is_the_ranks_own_clock(self, backend):
        n = 200

        def worker(comm):
            for _ in range(n):
                comm.flight.record("probe", t_rank=time.perf_counter())
            comm.barrier()

        result = run_spmd(worker, 2, backend=backend)
        for rec in result.world.flight.recorders:
            lag = sorted(
                abs(e["ts"] - e["t_rank"])
                for e in rec.events() if e["kind"] == "probe"
            )
            assert len(lag) == n
            # Two adjacent clock reads.  Every event, bar the very few where
            # the scheduler took the rank off its core between them.
            assert lag[int(0.98 * n)] < 50e-6, lag[-10:]


class TestEveryEventReachesTheParent:
    """Under ``procs`` a rank's events wait on its flight ring on the board
    until the parent drains it — before a dump, when the ring is full, when
    the rank's pipe ends — so the parent's log holds what ``threads``
    holds: a kill or a fold loses nothing."""

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_a_rank_that_dies_leaves_every_event_it_recorded(self, backend):
        def worker(comm):
            if comm.rank == 1:
                for i in range(10):
                    comm.flight.record("last.words", i=i)
                if backend == "procs":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("rank 1 dies")
            return comm.rank

        worlds = []

        def factory(size, **kwargs):
            worlds.append(World(size, **kwargs))
            return worlds[0]

        with pytest.raises(RankFailed) as err:
            run_spmd(worker, 2, backend=backend, world_factory=factory, deadline_s=60)
        assert set(err.value.failures) == {1}
        events = worlds[0].flight.for_rank(1).events()
        assert [e["i"] for e in events if e["kind"] == "last.words"] == list(range(10))

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_a_dump_after_a_fold_holds_what_the_peer_recorded_before_it(self, backend):
        def worker(comm):
            if comm.rank == 1:
                for i in range(5):
                    comm.flight.record("before.fold", i=i)
            comm.barrier()  # under procs a fold among the ranks: no round trip
            dump = comm.world.flight.dump("after the fold") if comm.rank == 0 else None
            comm.barrier()  # rank 1 outlives the dump
            return dump and [e["i"] for e in dump["ranks"]["1"] if e["kind"] == "before.fold"]

        assert list(run_spmd(worker, 2, backend=backend)) == [list(range(5)), None]

    @pytest.mark.parametrize("tracing", [False, True])
    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_several_ring_fulls_keep_every_event_in_order(self, backend, tracing):
        n = 5000  # about four flight rings' worth under procs

        def worker(comm):
            for i in range(n):
                comm.flight.record("many", i=i)

        result = run_spmd(worker, 2, backend=backend, tracing=tracing)
        kept = n if tracing else DEFAULT_FLIGHT_CAPACITY
        for rec in result.world.flight.recorders:
            assert [e["i"] for e in rec.events() if e["kind"] == "many"] == list(range(n - kept, n))
        if backend == "procs":  # the rings did fill: each rank had its own drained
            assert all(counts["flight.collect"] >= 3 for counts in result.world.rpc_counts)

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_a_ring_that_never_fills_costs_no_round_trip(self, backend):
        def worker(comm):
            for i in range(100):
                comm.flight.record("few", i=i)
            comm.barrier()

        result = run_spmd(worker, 2, backend=backend)
        for rec in result.world.flight.recorders:
            assert [e["i"] for e in rec.events() if e["kind"] == "few"] == list(range(100))
        # Nothing crossed the pipe, no flight.collect either (threads: no pipe).
        assert result.world.rpc_counts == (None if backend == "threads" else [{}, {}])


class TestTracedDump:
    def test_a_traced_runs_dump_is_its_trace(self, tmp_path, capsys):
        """`tracing=True` adds no second stream: the dump holds the detail
        events, unbounded, and `repro trace` reads both them and the
        lifecycle timeline from it."""

        def worker(comm):
            for _ in range(400):  # more than the always-on ring keeps
                comm.allreduce(1.0)
            comm.flight.record("lifecycle.checkpoint", epoch=0)

        result = run_spmd(worker, 2, tracing=True)
        log = result.world.flight
        log.dump_dir = tmp_path
        dump = log.dump("traced run")
        assert dump["capacity"] is None
        for events in dump["ranks"].values():
            colls = [e for e in events if e["kind"] == "coll.allreduce"]
            assert len(colls) == 400 and all(e["dur"] > 0 for e in colls)
        assert main(["trace", dump["path"]]) == 0
        out = capsys.readouterr().out
        assert "coll.allreduce" in out
        assert out.startswith("lifecycle timeline: 2 event(s)")
        assert "lifecycle.checkpoint" in out
