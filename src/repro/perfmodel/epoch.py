"""Analytic epoch-time model behind Figures 7(b), 9 and 10.

Wall-clock on this machine says nothing about Lustre metadata servers or
TofuD congestion, so the timing figures are reproduced from a
first-principles model calibrated to the anchors the paper reports:

* **I/O.**  DL input pipelines issue one small (~100 KB) read per sample;
  the cost is dominated by per-file latency, not bandwidth ([10], [11]).
  Local SSD: ``files x local_read_latency``.  PFS: per-file latency grows
  with the number of concurrent clients (metadata contention, saturating
  once the metadata servers are fully congested), and the *slowest* worker
  is further inflated by a straggler spread ``1 + c*(1-exp(-M/tau))`` —
  the paper measures 11.9 s fastest vs 142 s slowest at 512 workers.
* **EXCHANGE.**  The PLS sample exchange is a personalised all-to-all:
  ``k = Q*N/M`` messages per worker, each paying link latency scaled by a
  congestion factor growing with M, plus bandwidth for the payload.  It
  overlaps with compute at per-iteration granularity (Figure 4), so only
  the excess over the compute time plus a per-epoch synchronisation tail
  is visible — which is why partial-0.1 matches local shuffling up to 512
  workers but degrades at 1,024-2,048 where an epoch is only 40/20
  iterations.
* **FW+BW.**  iterations x per-iteration compute (profile-calibrated).
* **GE+WU.**  Ring-allreduce cost per iteration; under global shuffling the
  collective additionally absorbs the I/O straggler wait (the paper's 70 s
  average at 512 workers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.presets import DatasetSpec, MachineSpec

from .profiles import ComputeProfile

__all__ = ["EpochBreakdown", "epoch_breakdown"]


@dataclass(frozen=True)
class EpochBreakdown:
    """Per-epoch, per-worker average times (seconds) — one Fig. 10 bar."""

    strategy: str
    workers: int
    io: float
    exchange: float
    fw_bw: float
    ge_wu: float
    io_slowest: float  # straggler read time (drives the GS collective wait)

    @property
    def total(self) -> float:
        """Sum of the phase times (the epoch total)."""
        return self.io + self.exchange + self.fw_bw + self.ge_wu


def _allreduce_time(machine: MachineSpec, grad_bytes: int, workers: int) -> float:
    """Ring allreduce: 2*(M-1)/M of the buffer at the collective's effective
    bus bandwidth (NVLink/torus-assisted, hence above the per-rank link rate)
    plus log-depth latency."""
    if workers == 1:
        return 0.0
    bw_term = 2.0 * grad_bytes * (workers - 1) / workers / machine.allreduce_bw
    lat_term = machine.link_latency_s * math.log2(workers) * 2
    return bw_term + lat_term


def epoch_breakdown(
    *,
    strategy: str,
    machine: MachineSpec,
    dataset: DatasetSpec,
    profile: ComputeProfile,
    workers: int,
    batch_size: int,
    q: float | None = None,
    overlap: bool = True,
) -> EpochBreakdown:
    """Average per-worker epoch time breakdown for one configuration.

    ``strategy`` in {"global", "local", "partial"}; ``q`` required for
    "partial".
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if strategy == "partial":
        if q is None or not 0.0 <= q <= 1.0:
            raise ValueError(f"partial needs q in [0,1], got {q}")
    elif strategy in ("global", "local"):
        if q is not None:
            raise ValueError(f"q is meaningless for {strategy}")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    samples_per_worker = dataset.samples // workers
    if samples_per_worker < 1:
        raise ValueError(
            f"{workers} workers exceed the dataset's {dataset.samples} samples"
        )
    iterations = max(1, samples_per_worker // batch_size)
    sample_bytes = dataset.sample_bytes

    fw_bw = profile.fwbw_time(iterations, batch_size)
    ge_wu = iterations * _allreduce_time(machine, profile.grad_bytes, workers)

    if strategy == "global":
        # Per-file PFS latency grows with concurrent clients (metadata
        # contention), bandwidth bounded by the per-client/total caps.
        # Metadata contention grows with clients then saturates once the
        # metadata servers are fully congested ([10], [11]).
        per_file = machine.pfs_meta_latency_s * (
            1.0 + machine.pfs_meta_congestion * min(workers, machine.pfs_meta_saturation)
        )
        bw = min(machine.pfs_client_bw, machine.pfs_total_bw / workers)
        io = samples_per_worker * per_file + samples_per_worker * sample_bytes / bw
        spread = 1.0 + machine.pfs_straggler_coeff * (
            1.0 - math.exp(-workers / machine.pfs_straggler_tau)
        )
        io_slowest = io * spread
        # Workers blocked on stragglers surface the wait inside the
        # gradient collective (the paper's 70 s GE+WU at 512 workers); the
        # *mean* worker waits a fraction of the full slowest-minus-mean gap.
        ge_wu += machine.straggler_wait_fraction * (io_slowest - io)
        exchange = 0.0
    else:
        local_fraction = 1.0 if strategy == "local" else (1.0 - q)
        files = int(round(local_fraction * samples_per_worker))
        io = files * machine.local_read_latency_s + (
            files * sample_bytes / machine.local_bw
        )
        io_slowest = io
        exchange = 0.0
        if strategy == "partial" and q > 0:
            k = int(round(q * samples_per_worker))
            congestion = 1.0 + machine.alltoall_congestion * workers
            # Network leg of the exchange (overlappable with FW+BW).
            raw = (
                k * machine.link_latency_s * congestion
                + k * sample_bytes / machine.link_bw
            )
            # Non-overlappable legs: installing the k received samples into
            # local storage (clean_local_storage's writes + evictions) and
            # the per-epoch synchronisation across all ranks, whose cost
            # grows with scale like a congested barrier.
            install = k * (
                machine.local_write_latency_s + sample_bytes / machine.local_write_bw
            )
            sync = (
                machine.link_latency_s
                * congestion
                * machine.exchange_sync_coeff
                * math.sqrt(workers)
            )
            if overlap:
                # Only the network excess over the compute window is visible,
                # plus the last chunk's drain.
                tail = raw / iterations
                exchange = max(0.0, raw - fw_bw) + tail + install + sync
            else:
                exchange = raw + install + sync

    return EpochBreakdown(
        strategy=strategy if q is None else f"partial-{q:g}",
        workers=workers,
        io=io,
        exchange=exchange,
        fw_bw=fw_bw,
        ge_wu=ge_wu,
        io_slowest=io_slowest,
    )
