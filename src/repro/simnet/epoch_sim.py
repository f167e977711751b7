"""Discrete-event simulation of one distributed training epoch.

The analytic model in :mod:`repro.perfmodel` expresses the paper's Figure
9/10 quantities in closed form.  This module *derives* them instead: it
simulates the per-iteration timeline of every worker — stochastic batch
I/O, compute, the synchronising gradient allreduce, and the overlapped
exchange chunks — and accumulates exactly the four phases the paper
measures (I/O, EXCHANGE, FW+BW, GE+WU).  Because the allreduce is a
barrier, a worker that drew a slow batch read delays *everyone*, and the
victims book the wait under GE+WU — reproducing the paper's observation
that "because some of the workers enter the collective lately (due to poor
I/O performance), all the workers are delayed, and the average time spent
performing the gradient exchange reaches 70s" without assuming it.

The per-batch I/O times are lognormal: tight for node-local SSD reads,
heavy-tailed for the congested PFS (matching the 11.9 s fastest vs 142 s
slowest per-epoch spread at 512 workers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.presets import DatasetSpec, MachineSpec
from repro.perfmodel.profiles import ComputeProfile

__all__ = ["SimEpochResult", "simulate_epoch"]


@dataclass(frozen=True)
class SimEpochResult:
    """Phase accumulations (mean across workers, seconds) plus spreads."""

    strategy: str
    workers: int
    iterations: int
    io: float
    exchange: float
    fw_bw: float
    ge_wu: float
    makespan: float
    io_per_worker: np.ndarray  # epoch I/O time of every worker
    ge_wait_per_worker: np.ndarray

    @property
    def total(self) -> float:
        """Sum of the phase times (the epoch total)."""
        return self.io + self.exchange + self.fw_bw + self.ge_wu


def _per_batch_io_params(
    machine: MachineSpec,
    dataset: DatasetSpec,
    strategy: str,
    workers: int,
    batch_size: int,
    q: float | None,
) -> tuple[float, float]:
    """(mean seconds per batch, lognormal sigma) for one batch's reads."""
    sample_bytes = dataset.sample_bytes
    if strategy == "global":
        per_file = machine.pfs_meta_latency_s * (
            1.0 + machine.pfs_meta_congestion * min(workers, machine.pfs_meta_saturation)
        )
        bw = min(machine.pfs_client_bw, machine.pfs_total_bw / workers)
        mean = batch_size * (per_file + sample_bytes / bw)
        # Heavy tail: calibrated so the slowest worker's *epoch* total lands
        # near the straggler spread of the analytic model.
        sigma = 0.45 + 0.1 * math.log2(max(2, workers)) / 10
        return mean, sigma
    local_fraction = 1.0 if strategy == "local" else (1.0 - (q or 0.0))
    mean = (
        batch_size
        * local_fraction
        * (machine.local_read_latency_s + sample_bytes / machine.local_bw)
    )
    return mean, 0.08  # SSD reads are tight


def simulate_epoch(
    *,
    strategy: str,
    machine: MachineSpec,
    dataset: DatasetSpec,
    profile: ComputeProfile,
    workers: int,
    batch_size: int,
    q: float | None = None,
    seed: int = 0,
    worker_heterogeneity: float = 0.35,
) -> SimEpochResult:
    """Simulate one epoch; returns the averaged phase breakdown.

    ``strategy`` in {"global", "local", "partial"} as in the analytic model.
    ``worker_heterogeneity`` is the lognormal sigma of a *persistent*
    per-worker I/O slowdown factor applied to PFS reads (bad OST placement,
    cold caches): it controls how much of the straggling is the same worker
    every iteration versus transient per-batch noise.  Zero disables it.
    """
    if worker_heterogeneity < 0:
        raise ValueError(f"worker_heterogeneity must be >= 0, got {worker_heterogeneity}")
    if strategy == "partial":
        if q is None or not 0.0 <= q <= 1.0:
            raise ValueError(f"partial needs q in [0,1], got {q}")
    elif strategy in ("global", "local"):
        if q is not None:
            raise ValueError(f"q is meaningless for {strategy}")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if workers < 1 or batch_size < 1:
        raise ValueError("workers and batch_size must be >= 1")

    samples_per_worker = dataset.samples // workers
    if samples_per_worker < 1:
        raise ValueError("more workers than samples")
    iterations = max(1, samples_per_worker // batch_size)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51E9]))

    io_mean, io_sigma = _per_batch_io_params(
        machine, dataset, strategy, workers, batch_size, q
    )
    compute_per_iter = profile.fwbw_time(1, batch_size)
    allreduce = _ring_allreduce_time(machine, profile.grad_bytes, workers)

    # Exchange chunk per iteration (partial only): Q*b samples of network
    # time that can hide under the iteration's compute; install cost and the
    # final sync are paid at epoch end.
    exchange_chunk = 0.0
    install_total = 0.0
    sync_cost = 0.0
    if strategy == "partial" and q:
        k = int(round(q * samples_per_worker))
        congestion = 1.0 + machine.alltoall_congestion * workers
        net_total = (
            k * machine.link_latency_s * congestion
            + k * dataset.sample_bytes / machine.link_bw
        )
        exchange_chunk = net_total / iterations
        install_total = k * (
            machine.local_write_latency_s + dataset.sample_bytes / machine.local_write_bw
        )
        sync_cost = (
            machine.link_latency_s * congestion
            * machine.exchange_sync_coeff * math.sqrt(workers)
        )

    # Per-worker clocks and phase accumulators.
    now = np.zeros(workers)
    io_acc = np.zeros(workers)
    ge_acc = np.zeros(workers)
    ex_acc = np.zeros(workers)
    fw_acc = np.zeros(workers)

    # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
    mu = math.log(max(io_mean, 1e-12)) - io_sigma**2 / 2.0
    # Persistent per-worker slowdown (PFS only: local SSDs are private).
    if strategy == "global" and worker_heterogeneity > 0:
        wh = worker_heterogeneity
        worker_factor = rng.lognormal(mean=-(wh**2) / 2.0, sigma=wh, size=workers)
    else:
        worker_factor = np.ones(workers)

    for _ in range(iterations):
        batch_io = (
            rng.lognormal(mean=mu, sigma=io_sigma, size=workers) * worker_factor
            if io_mean > 0
            else np.zeros(workers)
        )
        io_acc += batch_io
        fw_acc += compute_per_iter
        # Exchange chunk hides under compute; only the excess is visible.
        visible_chunk = max(0.0, exchange_chunk - compute_per_iter)
        ex_acc += visible_chunk
        arrival = now + batch_io + compute_per_iter + visible_chunk
        # The allreduce is a barrier: everyone leaves together.
        barrier = arrival.max()
        ge_acc += (barrier - arrival) + allreduce
        now = np.full(workers, barrier + allreduce)

    # Epoch-end exchange completion (synchronize + clean_local_storage).
    if strategy == "partial" and q:
        ex_acc += install_total + sync_cost
        now += install_total + sync_cost

    return SimEpochResult(
        strategy=strategy if q is None else f"partial-{q:g}",
        workers=workers,
        iterations=iterations,
        io=float(io_acc.mean()),
        exchange=float(ex_acc.mean()),
        fw_bw=float(fw_acc.mean()),
        ge_wu=float(ge_acc.mean()),
        makespan=float(now.max()),
        io_per_worker=io_acc,
        ge_wait_per_worker=ge_acc,
    )


def _ring_allreduce_time(machine: MachineSpec, grad_bytes: int, workers: int) -> float:
    if workers == 1:
        return 0.0
    bw_term = 2.0 * grad_bytes * (workers - 1) / workers / machine.allreduce_bw
    lat_term = machine.link_latency_s * math.log2(workers) * 2
    return bw_term + lat_term
