"""One pass: ``run_spmd(train_worker, ...)`` once, in this interpreter.

``run.py`` starts a fresh interpreter per pass because ``ru_maxrss`` is a
high-water mark and ``/dev/shm``, buffer pools and fd tables are
process-global; this module is what that interpreter executes.  It launches
the product's real training path (the same call ``repro train`` makes),
collects what each rank hands back, checks the pass, and returns a plain
JSON-able dict.
"""

from __future__ import annotations

import json
import os
import resource
import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from . import layers
from .spans import Patcher, Recorder, set_current
from .summary import digest
from .workloads import (
    BATCH_SIZE,
    N_CLASSES,
    N_SAMPLES,
    WORKLOADS,
    PassSpec,
    make_inputs,
)

__all__ = ["run_pass", "planned_ops", "TimedStrategy", "TracedStrategy"]


# ------------------------------------------------------------ strategy proxies
class TimedStrategy:
    """Harness-owned stand-in for the rank's shuffling strategy.

    Forwards everything to the real strategy and reads the clock once per
    epoch, at ``begin_epoch`` — an epoch, for this benchmark, is the interval
    between consecutive ``begin_epoch`` calls (the last one ends when
    ``train_worker`` returns).  This is all an untraced pass adds to the
    program.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.epoch_begin: list[float] = []

    def __getattr__(self, attr: str) -> Any:
        # Everything the trainer reads besides the hooks below (``name``,
        # ``scheduler``, ``stats`` ...) comes from the real strategy.
        return getattr(self._inner, attr)

    def begin_epoch(self, epoch: int) -> None:
        self.epoch_begin.append(perf_counter())
        self._inner.begin_epoch(epoch)

    def finish(self) -> None:
        """Called once, right after ``train_worker`` returned: the last
        epoch's closing mark."""
        self.epoch_begin.append(perf_counter())


class _AuditedLoader:
    """Wraps the epoch's loader: a ``train.step`` span opens at each
    ``next``, a ``data.io`` span covers the fetch, and the sample ids read
    back from the first element of every batch are kept for the
    exactly-once check."""

    def __init__(self, loader: Any, owner: "TracedStrategy") -> None:
        self._loader = loader
        self._owner = owner
        self._it = None

    def __len__(self) -> int:
        return len(self._loader)

    def __iter__(self) -> "_AuditedLoader":
        self._it = iter(self._loader)
        return self

    def __next__(self):
        owner = self._owner
        rec = owner.rec
        step = rec.open("train.step")
        io = rec.open("data.io")
        try:
            xb, yb = next(self._it)
        except StopIteration:
            rec.close(io)
            rec.close(step)
            raise
        rec.close(io)
        owner.step_span = step
        first = np.asarray(xb).reshape(len(xb), -1)[:, 0]
        owner.seen_ids[-1].extend(np.rint(first * N_SAMPLES).astype(np.int64).tolist())
        return xb, yb


class TracedStrategy(TimedStrategy):
    """The traced pass's proxy: additionally opens the ``train.epoch`` /
    ``train.step`` spans every other span hangs under, and times the three
    hooks whose duration is the exchange cost the training thread sees."""

    def __init__(self, inner: Any, rec: Recorder) -> None:
        super().__init__(inner)
        self.rec = rec
        self.epoch_span = -1
        self.step_span = -1
        self.end_epoch_done: list[float] = []
        self.seen_ids: list[list[int]] = []

    def setup(self, comm: Any, dataset: Any, **kwargs: Any) -> None:
        span = self.rec.open("shuffle.setup")
        try:
            self._inner.setup(comm, dataset, **kwargs)
        finally:
            self.rec.close(span)

    def begin_epoch(self, epoch: int) -> None:
        rec = self.rec
        if self.epoch_span >= 0:
            rec.close(self.epoch_span)
        self.epoch_begin.append(perf_counter())
        self.epoch_span = rec.open("train.epoch")
        self.seen_ids.append([])
        span = rec.open("shuffle.begin_epoch")
        try:
            self._inner.begin_epoch(epoch)
        finally:
            rec.close(span)

    def epoch_loader(self, epoch: int, batch_size: int) -> _AuditedLoader:
        return _AuditedLoader(self._inner.epoch_loader(epoch, batch_size), self)

    def on_iteration(self) -> None:
        rec = self.rec
        span = rec.open("shuffle.on_iteration")
        try:
            self._inner.on_iteration()
        finally:
            rec.close(span)
            if self.step_span >= 0:
                rec.close(self.step_span)
                self.step_span = -1

    def end_epoch(self) -> None:
        span = self.rec.open("shuffle.end_epoch")
        try:
            self._inner.end_epoch()
        finally:
            self.rec.close(span)
            self.end_epoch_done.append(perf_counter())

    def finish(self) -> None:
        if self.epoch_span >= 0:
            self.rec.close(self.epoch_span)
            self.epoch_span = -1
        super().finish()


# ------------------------------------------------------------------ rank side
@dataclass
class _Context:
    """What every rank needs, built once before launch (forked ranks inherit
    it; nothing here is pickled)."""

    spec: PassSpec
    config: Any
    dataset: Any
    labels: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    patcher: Patcher


def shard_checksum(storage: Any) -> int:
    """Order-independent checksum of a rank's hot shard: the sum, mod 2^64,
    of ``gid << 32 | crc32(label, bytes)`` over its samples."""
    total = 0
    for sid, sample, label in storage.items():
        gid = storage.gid_of(sid)
        crc = zlib.crc32(np.asarray(sample).tobytes(), zlib.crc32(repr(int(label)).encode()))
        total = (total + ((int(gid) << 32) | crc)) & 0xFFFFFFFFFFFFFFFF
    return total


def pinned_bytes(storage: Any) -> int:
    """Bytes kept alive by the hot samples' root buffers.

    A sample installed zero-copy is a view; following ``.base`` (and a
    memoryview's ``.obj``) reaches the buffer that actually owns the memory —
    the whole dataset array for never-exchanged samples, a received envelope
    or shared segment for exchanged ones.  Each root counts once.
    """
    roots: dict[int, int] = {}
    for _sid, sample, _label in storage.items():
        root: Any = sample
        while True:
            if isinstance(root, np.ndarray) and root.base is not None:
                root = root.base
            elif isinstance(root, memoryview):
                root = root.obj
            else:
                break
        size = root.nbytes if isinstance(root, np.ndarray) else len(root)
        roots[id(root)] = size
    return sum(roots.values())


def _rank_main(comm: Any, ctx: _Context) -> dict[str, Any]:
    """What each rank runs: the product's ``train_worker`` behind a proxy."""
    from repro.shuffle.partial import strategy_from_name
    from repro.train.trainer import train_worker

    t_in = perf_counter()
    spec = ctx.spec
    inner = strategy_from_name(spec.strategy)
    rec = None
    if spec.traced:
        rec = Recorder()
        layers.install_rank_wrappers(ctx.patcher, comm)
        strategy: TimedStrategy = TracedStrategy(inner, rec)
        set_current(rec)
    else:
        strategy = TimedStrategy(inner)
    try:
        history = train_worker(
            comm, ctx.config, strategy, ctx.dataset, ctx.labels, ctx.val_x, ctx.val_y
        )
    finally:
        set_current(None)
    strategy.finish()
    t_out = strategy.epoch_begin[-1]
    storage = inner.storage
    out: dict[str, Any] = {
        "rank": comm.rank,
        "pid": os.getpid(),
        "t_in": t_in,
        "t_out": t_out,
        "epoch_begin": strategy.epoch_begin,
        "records": [
            (r.epoch, r.train_loss, r.val_accuracy, r.lr, r.samples_seen)
            for r in history.records
        ],
        "stats": history.stats,
        "hot_gids": storage.hot_gids(),
        "shard_checksum": shard_checksum(storage),
        "peak_count": storage.peak_count,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if isinstance(strategy, TracedStrategy):
        out["end_epoch_done"] = strategy.end_epoch_done
        out["seen_ids"] = strategy.seen_ids
        out["spans"] = rec.table()
        out["storage_nbytes"] = storage.nbytes
        out["pinned_bytes"] = pinned_bytes(storage)
    return out


# --------------------------------------------------------------- harness side
def _planned_rounds(spec: PassSpec) -> int:
    """Exchange rounds one rank plans per epoch (granularity 1)."""
    from repro.shuffle.exchange_plan import exchange_count

    if not spec.strategy.startswith("partial-"):
        return 0
    q = float(spec.strategy.split("-", 1)[1])
    return exchange_count(N_SAMPLES // spec.ranks, q)


def planned_ops(spec: PassSpec) -> dict[str, int]:
    """The operations a pass sets out to do: one per training step and one
    per planned exchange round, per rank; none done yet."""
    epochs_x_ranks = spec.ranks * spec.epochs
    return {
        "steps_planned": epochs_x_ranks * (N_SAMPLES // spec.ranks // BATCH_SIZE),
        "steps_done": 0,
        "rounds_planned": epochs_x_ranks * _planned_rounds(spec),
        "rounds_committed": 0,
    }


def _check(ranks: list[dict[str, Any]], spec: PassSpec, world: dict[str, Any]) -> dict[str, bool]:
    """The correctness checks one pass can decide on its own."""
    records = [r["records"] for r in ranks]
    hot = [sorted(r["hot_gids"]) for r in ranks]
    stats = [r["stats"] for r in ranks]
    checks = {
        "history_identical": all(rec == records[0] for rec in records),
        "epochs_complete": len(records[0]) == spec.epochs,
        "samples_seen": all(rec[4] == N_SAMPLES for rec in records[0]),
        "shards_partition": (
            sorted(g for h in hot for g in h) == list(range(N_SAMPLES))
            and all(len(h) == N_SAMPLES // spec.ranks for h in hot)
        ),
        "no_degraded_epochs": all(s.get("degraded_epochs", 0) == 0 for s in stats),
        "no_q_deficit": all(s.get("q_deficit", 0) == 0 for s in stats),
        "pool_balanced": world["pool"]["in_use"] == 0,
        "no_live_segments": not world["live_segments"],
    }
    if spec.traced:
        epochs = len(ranks[0]["seen_ids"])
        checks["exactly_once"] = epochs == spec.epochs and all(
            sorted(i for r in ranks for i in r["seen_ids"][e]) == list(range(N_SAMPLES))
            for e in range(epochs)
        )
    return checks


def _traced_extras(ranks: list[dict[str, Any]], spec: PassSpec, out_dir: str) -> dict[str, Any]:
    """Aggregate the ranks' spans, write the trace file, derive the layer
    metrics that come from spans."""
    steady = spec.epochs - 1
    rounds = _planned_rounds(spec)
    prepared = []
    for r in ranks:
        begins, ends = r["epoch_begin"], r["end_epoch_done"]
        tails = [begins[e + 1] - ends[e] for e in range(1, len(ends))]
        committed = r["stats"].get("sent_samples", 0)
        prepared.append(
            {
                "agg": layers.aggregate(r["spans"]),
                "steps": steady * (N_SAMPLES // spec.ranks // BATCH_SIZE),
                # Committed rounds of the steady epochs (all but epoch 0's);
                # at granularity 1 also the samples installed and retired.
                "rounds": committed - min(committed, rounds),
                "epoch_tails": tails,
            }
        )
    path = os.path.join(out_dir, f"trace-{spec.workload}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": spec.workload,
                "clock": "time.perf_counter seconds (CLOCK_MONOTONIC, shared by all ranks)",
                "ranks": [{"rank": r["rank"], **r["spans"]} for r in ranks],
            },
            fh,
        )
    return {"layers": layers.derive(prepared, steady_epochs=steady), "trace_file": path}


def run_pass(spec: PassSpec, out_dir: str) -> dict[str, Any]:
    """Run one pass and return its result (never raises for a failed run:
    the failure is the result)."""
    from repro.data.dataset import TensorDataset
    from repro.mpi.launcher import run_spmd
    from repro.mpi.shm_pool import live_segments
    from repro.train.trainer import TrainConfig

    wl = WORKLOADS[spec.workload]
    train_x, labels, val_x, val_y = make_inputs(spec.seed, wl.sample_shape)
    config = TrainConfig(
        model=wl.model, in_shape=wl.sample_shape, num_classes=N_CLASSES,
        epochs=spec.epochs, batch_size=BATCH_SIZE, seed=spec.seed,
    )
    patcher = Patcher()
    ctx = _Context(spec, config, TensorDataset(train_x, labels), labels, val_x, val_y, patcher)
    result: dict[str, Any] = {"spec": spec.to_json(), "ok": False, "ops": planned_ops(spec)}
    if spec.traced:
        layers.install_wrappers(patcher)
    cpu0 = os.times()
    t_entry = perf_counter()
    try:
        # The call `repro train` makes (train/experiments.py): zero-copy
        # sends, flight recorder on, backend by name.
        res = run_spmd(
            _rank_main, spec.ranks, args=(ctx,), copy_on_send=False,
            deadline_s=170.0, backend=spec.backend,
        )
    except Exception as exc:  # the failed run is reported, not raised
        result["error"] = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        t_exit = perf_counter()
        patcher.remove_all()
    cpu1 = os.times()
    ranks: list[dict[str, Any]] = list(res)
    world = {
        "pool": res.world.pool.stats(),
        "bytes_copied": res.world.total_bytes_copied(),
        "live_segments": live_segments(),
    }
    host_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rank_kb = sum(r["ru_maxrss_kb"] for r in ranks if r["pid"] != os.getpid())
    # Rank 0's clock, shared with the harness that launched this pass: it
    # lines the epochs up with its host-speed samples (see hostspeed).
    marks = ranks[0]["epoch_begin"]
    epochs_wall = [b - a for a, b in zip(marks, marks[1:])]
    cpu_s = sum(
        getattr(cpu1, f) - getattr(cpu0, f)
        for f in ("user", "system", "children_user", "children_system")
    )
    checks = _check(ranks, spec, world)
    committed = sum(r["stats"].get("sent_samples", 0) for r in ranks)
    result["ops"].update(
        steps_done=result["ops"]["steps_planned"] if checks["epochs_complete"] else 0,
        rounds_committed=committed,
    )
    result.update(
        ok=True,
        checks=checks,
        # Steady epochs only: epoch 0 pays lazy initialisation and is part
        # of set-up.  The last epoch ends when train_worker returns.
        steady_epoch_s=epochs_wall[1:],
        epoch_marks=marks,
        t_entry=t_entry,
        setup_s=max(r["epoch_begin"][1] for r in ranks) - t_entry,
        launch_s=[r["t_in"] - t_entry for r in ranks],
        teardown_s=t_exit - max(r["t_out"] for r in ranks),
        wall_s=t_exit - t_entry,
        peak_rss_mb=(host_kb + rank_kb) / 1024.0,
        cpu_s=cpu_s,
        losses=[rec[1] for rec in ranks[0]["records"]],
        history_digest=digest(
            f"{e}:{float(loss).hex()}:{float(acc).hex()}:{n}"
            for e, loss, acc, _lr, n in ranks[0]["records"]
        ),
        shard_checksums=[r["shard_checksum"] for r in ranks],
        peak_count=[r["peak_count"] for r in ranks],
        stats=[r["stats"] for r in ranks],
        world=world,
    )
    if spec.traced:
        result["pinned_ratio"] = [
            r["pinned_bytes"] / r["storage_nbytes"] for r in ranks
        ]
        result.update(_traced_extras(ranks, spec, out_dir))
    return result
