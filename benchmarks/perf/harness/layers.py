"""Where the wrappers go, and how spans become per-layer numbers.

``install_wrappers`` names every boundary the traced pass times; the span
names are ``<layer>.<what>`` with the layer being the ``repro`` sub-package
that owns the function.  ``aggregate`` folds one rank's span table into
per-(name, parent) totals split by region (set-up, warm-up epoch 0, steady
epochs); ``derive`` turns those totals and the run's counters into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any

from .spans import Patcher, self_times
from .summary import mean, median, tail_percentile

__all__ = ["install_wrappers", "install_rank_wrappers", "aggregate", "derive"]

EPOCH = "train.epoch"
STEP = "train.step"

#: Collectives of the public ``Communicator`` surface, each wrapped as
#: ``mpi.<name>``; their calls per step is ``mpi.collectives_per_step``.
COLLECTIVES = (
    "allreduce", "bcast", "barrier", "allgather", "gather", "reduce", "scatter",
    "alltoall",
)


def install_wrappers(p: Patcher) -> None:
    """Wrap the boundaries whose owner is known before launch.

    Module-level functions are patched in the namespace that looks them up
    (``trainer`` imports ``allreduce_gradients`` by name, so that is where
    the wrapper must sit); methods are patched on their class.
    """
    import repro.nn.functional as functional
    import repro.shuffle.scheduler as scheduler_mod
    import repro.train.trainer as trainer
    from repro.mpi.communicator import Communicator
    from repro.mpi.message import Checksummed
    from repro.mpi.request import RecvRequest
    from repro.nn import optim
    from repro.nn.module import Module
    from repro.nn.tensor import Tensor
    from repro.shuffle.scheduler import Scheduler
    from repro.shuffle.storage import StorageArea

    # train: collective steps of the loop and the epoch tail.
    p.install(trainer, "broadcast_model", "train.broadcast", leaf=False)
    p.install(trainer, "allreduce_gradients", "train.ge", leaf=False)
    p.install(trainer, "allreduce_batchnorm_stats", "train.bn_sync", leaf=False)
    p.install(trainer, "evaluate", "train.evaluate")
    # nn: forward (model call and loss), backward, weight update.
    p.install(Module, "__call__", "nn.fw")
    p.install(functional, "cross_entropy", "nn.fw")
    p.install(Tensor, "backward", "nn.bw")
    for cls in [optim.Optimizer, *optim.Optimizer.__subclasses__()]:
        if "step" in vars(cls):
            p.install(cls, "step", "nn.wu")
    # shuffle: the scheduler's four phases and the storage area under them.
    p.install(Scheduler, "scheduling", "shuffle.plan", leaf=False)
    p.install(Scheduler, "communicate_chunk", "shuffle.post", leaf=False)
    p.install(Scheduler, "communicate", "shuffle.post", leaf=False)
    p.install(Scheduler, "synchronize", "shuffle.sync", leaf=False)
    p.install(Scheduler, "clean_local_storage", "shuffle.install", leaf=False)
    p.install(StorageArea, "get", "storage.get")
    p.install(StorageArea, "add", "storage.add")
    p.install(StorageArea, "add_many", "storage.add_many")
    p.install(StorageArea, "demote", "storage.demote")
    p.install(StorageArea, "remove", "storage.remove")
    # mpi: codec, integrity envelope, p2p and collectives.
    p.install(scheduler_mod, "pack_samples", "mpi.pack", leaf=False)
    p.install(scheduler_mod, "unpack_samples", "mpi.unpack")
    p.install(Checksummed, "wrap", "mpi.crc")
    p.install(Checksummed, "ok", "mpi.crc")
    p.install(Communicator, "isend", "mpi.isend")
    p.install(Communicator, "irecv", "mpi.irecv")
    p.install(Communicator, "iprobe", "mpi.poll")
    p.install(Communicator, "recv", "mpi.poll")
    p.install(RecvRequest, "test", "mpi.poll")
    p.install(RecvRequest, "wait", "mpi.poll")
    for coll in COLLECTIVES:
        p.install(Communicator, coll, f"mpi.{coll}")
    # obs: the per-epoch telemetry push (its sends show as mpi children).
    p.install(trainer, "push_metrics", "obs.push", leaf=False)
    p.install(trainer, "drain_pending", "obs.push", leaf=False)


def install_rank_wrappers(p: Patcher, comm: Any) -> None:
    """Wrap the boundaries whose concrete class depends on the backend: the
    exchange pool and the flight-recorder ring a rank actually talks to
    (under ``procs`` both are RPC proxies, so the span includes the pipe)."""
    p.install(type(comm.pool), "acquire", "mpi.acquire")
    p.install(type(comm.flight), "record", "obs.flight")


# --------------------------------------------------------------- aggregation
def aggregate(table: dict[str, Any]) -> dict[str, Any]:
    """Fold one rank's span table into totals.

    Returns ``regions`` — for each of ``setup`` (outside any epoch),
    ``epoch0`` and ``steady``, a map ``"name|parent-name" -> [count, total
    duration, total self time]`` — plus the per-epoch walls, the steady step
    durations, and the steady epochs' unattributed time (self time of the
    epoch and step spans: wall inside an epoch that no named layer covers).
    """
    names = table["names"]
    name, start, end, parent = (
        table["name"], table["start"], table["end"], table["parent"]
    )
    selfs = self_times(start, end, parent)
    epoch_id = names.index(EPOCH) if EPOCH in names else -1
    step_id = names.index(STEP) if STEP in names else -1
    regions: dict[str, dict[str, list[float]]] = {"setup": {}, "epoch0": {}, "steady": {}}
    epoch_of = [-1] * len(name)
    epoch_walls: list[float] = []
    steps: list[float] = []
    unattributed: list[float] = []
    for i, nid in enumerate(name):
        p = parent[i]
        dur = end[i] - start[i]
        if nid == epoch_id:
            epoch_of[i] = len(epoch_walls)
            epoch_walls.append(dur)
            unattributed.append(selfs[i])
            continue
        epoch = epoch_of[p] if p >= 0 else -1
        epoch_of[i] = epoch
        if nid == step_id:
            unattributed[epoch] += selfs[i]
            if epoch >= 1:
                steps.append(dur)
            continue
        region = regions["setup" if epoch < 0 else "epoch0" if epoch == 0 else "steady"]
        key = f"{names[nid]}|{names[name[p]] if p >= 0 else ''}"
        slot = region.get(key)
        if slot is None:
            region[key] = [1, dur, selfs[i]]
        else:
            slot[0] += 1
            slot[1] += dur
            slot[2] += selfs[i]
    return {
        "regions": regions,
        "epoch_walls": epoch_walls,
        "steps": steps,
        "unattributed": unattributed[1:],
    }


class _Totals:
    """Read access to one rank's ``regions`` by span name and parent."""

    def __init__(self, region: dict[str, list[float]]):
        self._rows = [(*key.split("|", 1), *vals) for key, vals in region.items()]

    def _pick(self, name: str, under: str | None):
        for n, parent, count, dur, self_t in self._rows:
            if n == name and (under is None or parent == under):
                yield count, dur, self_t

    def count(self, name: str, *, under: str | None = None) -> float:
        return sum(c for c, _, _ in self._pick(name, under))

    def dur(self, name: str, *, under: str | None = None) -> float:
        return sum(d for _, d, _ in self._pick(name, under))

    def self_time(self, name: str) -> float:
        return sum(s for _, _, s in self._pick(name, None))


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def derive(ranks: list[dict[str, Any]], *, steady_epochs: int) -> dict[str, dict[str, float]]:
    """Per-layer metrics of one traced pass from its ranks' aggregates.

    ``ranks[r]`` holds the :func:`aggregate` output under ``"agg"`` and the
    counters the rank returned (``steps`` and committed ``rounds`` over the
    steady epochs; at granularity 1 a round moves one sample each way).  Every metric is computed per
    rank and reported as ``{"value": mean over ranks, "max": max over
    ranks}``; the slower rank sets each step, so the max is what blocks.
    """
    per_rank: list[dict[str, float]] = []
    for r in ranks:
        agg = r["agg"]
        steady = _Totals(agg["regions"]["steady"])
        setup = _Totals(agg["regions"]["setup"])
        steps = r["steps"] or 1
        rounds = r["rounds"]
        epochs = steady_epochs or 1
        ms_step = 1e3 / steps
        ms_epoch = 1e3 / epochs
        step_sorted = sorted(agg["steps"])
        pct, tail = tail_percentile(step_sorted)
        sched = ("shuffle.plan", "shuffle.post", "shuffle.sync", "shuffle.install")
        p2p = steady.dur("mpi.isend") + steady.dur("mpi.irecv") + steady.dur("mpi.poll")
        polls = steady.count("mpi.poll", under="shuffle.sync")
        collectives = sum(steady.count(f"mpi.{c}") for c in COLLECTIVES)
        m = {
            "train.epoch_s_p50": median(agg["epoch_walls"][1:]),
            "train.step_ms_p50": 1e3 * median(step_sorted),
            "train.step_ms_tail": 1e3 * tail,
            "train.ge_ms_per_step": steady.dur("train.ge") * ms_step,
            "train.epoch_tail_ms_per_epoch": 1e3 * mean(r["epoch_tails"]),
            "train.epoch0_s": agg["epoch_walls"][0],
            "train.broadcast_ms": 1e3 * setup.dur("train.broadcast"),
            "train.unattributed_ms_per_epoch": 1e3 * mean(agg["unattributed"]),
            "shuffle.setup_ms": 1e3 * setup.dur("shuffle.setup"),
            "nn.fw_ms_per_step": steady.dur("nn.fw", under=STEP) * ms_step,
            "nn.bw_ms_per_step": steady.dur("nn.bw", under=STEP) * ms_step,
            "nn.wu_ms_per_step": steady.dur("nn.wu", under=STEP) * ms_step,
            "data.io_ms_per_step": steady.dur("data.io") * ms_step,
            "data.io_wait_share": _div(steady.dur("data.io"), sum(agg["steps"])),
            "shuffle.plan_ms_per_epoch": steady.dur("shuffle.plan") * ms_epoch,
            "shuffle.post_ms_per_epoch": steady.dur("shuffle.post") * ms_epoch,
            "shuffle.sync_ms_per_epoch": steady.dur("shuffle.sync") * ms_epoch,
            "shuffle.install_ms_per_epoch": steady.dur("shuffle.install") * ms_epoch,
            "shuffle.self_us_per_round": _div(
                1e6 * sum(steady.self_time(s) for s in sched), rounds
            ),
            "shuffle.exposed_ms_per_epoch": (
                steady.dur("shuffle.begin_epoch")
                + steady.dur("shuffle.on_iteration")
                + steady.dur("shuffle.end_epoch")
            ) * ms_epoch,
            # Reads: the loader and the send path fetching a sample.  Writes:
            # installing received samples, retiring sent ones.
            "shuffle.storage_get_us": _div(
                1e6 * steady.dur("storage.get"), steady.count("storage.get")
            ),
            "shuffle.storage_install_us_per_sample": _div(
                1e6 * steady.dur("storage.add_many"), rounds
            ),
            "shuffle.storage_remove_us_per_sample": _div(
                1e6 * (steady.dur("storage.demote") + steady.dur("storage.remove")),
                rounds,
            ),
            "mpi.pack_us_per_round": _div(1e6 * steady.self_time("mpi.pack"), rounds),
            "mpi.unpack_us_per_round": _div(1e6 * steady.dur("mpi.unpack"), rounds),
            "mpi.crc_us_per_round": _div(1e6 * steady.dur("mpi.crc"), rounds),
            "mpi.acquire_us": _div(
                1e6 * steady.dur("mpi.acquire"), steady.count("mpi.acquire")
            ),
            "mpi.isend_us": _div(1e6 * steady.dur("mpi.isend"), steady.count("mpi.isend")),
            "mpi.irecv_us": _div(1e6 * steady.dur("mpi.irecv"), steady.count("mpi.irecv")),
            "mpi.poll_us": _div(1e6 * steady.dur("mpi.poll"), steady.count("mpi.poll")),
            "mpi.polls_per_round": _div(polls, rounds),
            "mpi.p2p_ms_per_epoch": p2p * ms_epoch,
            "mpi.allreduce_ms": _div(
                1e3 * steady.dur("mpi.allreduce"), steady.count("mpi.allreduce")
            ),
            "mpi.collectives_per_step": collectives / steps,
            "obs.flight_ms_per_epoch": (
                steady.dur("obs.flight") + steady.dur("obs.push")
            ) * ms_epoch,
            "obs.flight_records_per_epoch": steady.count("obs.flight") / epochs,
        }
        per_rank.append(m)
    out: dict[str, dict[str, float]] = {
        key: {
            "value": mean([m[key] for m in per_rank]),
            "max": max(m[key] for m in per_rank),
        }
        for key in per_rank[0]
    }
    # Every rank runs the same number of steps, so the rung is the same.
    out["train.step_ms_tail"]["percentile"] = pct
    return out
