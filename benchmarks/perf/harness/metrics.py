"""The benchmark's metric registry: name, unit, direction, one-line meaning.

``BENCHMARK.json`` at the repository root lists the same names (a harness
self-test keeps the two in step); the README's glossary is this table with
the "should move / should not move" reasoning added.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "REPEATS_EXACTLY", "TIMING_UNITS"]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    what: str
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric("samples_per_s", "samples/s", "higher",
           "N / median wall of the pooled steady epochs (begin_epoch to begin_epoch on rank 0), "
           "at the reference host speed",
           0.25),
    Metric("setup_s", "s", "lower",
           "run_spmd entry to the slowest rank's second begin_epoch, at the reference host "
           "speed; median over passes",
           0.25),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the pass's interpreter plus, under procs, of every rank process; "
           "max over passes",
           0.05),
)

PER_LAYER: tuple[Metric, ...] = (
    # --- train ---
    Metric("train.epoch_s_p50", "s", "lower", "median steady epoch wall, traced pass"),
    Metric("train.step_ms_p50", "ms", "lower", "median training step"),
    Metric("train.step_ms_tail", "ms", "lower",
           "step time at the highest percentile with >= 10 samples beyond it"),
    Metric("train.ge_ms_per_step", "ms", "lower", "allreduce_gradients per step"),
    Metric("train.epoch_tail_ms_per_epoch", "ms", "lower",
           "end_epoch return to next begin_epoch: BN sync, evaluate, telemetry push, "
           "loss allreduces"),
    Metric("train.epoch0_s", "s", "lower", "warm-up epoch 0 wall"),
    Metric("train.broadcast_ms", "ms", "lower", "broadcast_model"),
    Metric("train.local_epoch_s", "s", "lower",
           "median steady epoch of the reference pass with the local strategy"),
    Metric("train.single_worker_samples_per_s", "samples/s", "higher",
           "reference pass on one rank with the local strategy"),
    Metric("train.scaling_efficiency", "ratio", "higher",
           "samples_per_s / (M x single-worker samples_per_s)"),
    Metric("train.unattributed_ms_per_epoch", "ms", "lower",
           "traced epoch wall no layer span covers (self time of epoch and step spans)"),
    # --- nn ---
    Metric("nn.fw_ms_per_step", "ms", "lower", "model call + cross_entropy per step"),
    Metric("nn.bw_ms_per_step", "ms", "lower", "Tensor.backward per step"),
    Metric("nn.wu_ms_per_step", "ms", "lower", "Optimizer.step per step"),
    # --- data ---
    Metric("data.io_ms_per_step", "ms", "lower", "next(loader) per step"),
    Metric("data.io_wait_share", "ratio", "lower", "next(loader) share of step time"),
    # --- shuffle ---
    Metric("shuffle.setup_ms", "ms", "lower", "strategy.setup (partition + stage the shard)"),
    Metric("shuffle.plan_ms_per_epoch", "ms", "lower", "Scheduler.scheduling"),
    Metric("shuffle.post_ms_per_epoch", "ms", "lower",
           "Scheduler.communicate_chunk + communicate"),
    Metric("shuffle.sync_ms_per_epoch", "ms", "lower",
           "Scheduler.synchronize: wait, verify, ACK/NACK service, commit allreduce"),
    Metric("shuffle.install_ms_per_epoch", "ms", "lower", "Scheduler.clean_local_storage"),
    Metric("shuffle.self_us_per_round", "us", "lower",
           "scheduler spans minus their mpi/storage/obs children, per committed round"),
    Metric("shuffle.exposed_ms_per_epoch", "ms", "lower",
           "training-thread time inside begin_epoch + on_iteration + end_epoch"),
    Metric("shuffle.exposed_exchange_share", "ratio", "lower",
           "1 - local epoch / PLS epoch (untraced passes): the Fig. 9/10 number"),
    Metric("shuffle.storage_get_us", "us", "lower", "StorageArea.get per call"),
    Metric("shuffle.storage_install_us_per_sample", "us", "lower",
           "StorageArea.add_many per installed sample"),
    Metric("shuffle.storage_remove_us_per_sample", "us", "lower",
           "StorageArea.demote/remove per retired sample"),
    Metric("shuffle.storage_peak_ratio", "ratio", "lower",
           "storage.peak_count / ((1+Q) N/M); must be <= 1"),
    Metric("shuffle.storage_pinned_ratio", "ratio", "lower",
           "bytes kept alive by hot samples' root buffers / storage.nbytes"),
    Metric("shuffle.rounds_per_epoch", "count", "higher", "committed rounds per rank per epoch"),
    Metric("shuffle.sent_bytes_per_epoch", "B", "lower", "committed sample bytes per rank per epoch"),
    Metric("shuffle.effective_q", "ratio", "higher", "realised / planned exchange fraction"),
    Metric("shuffle.retry_share", "ratio", "lower",
           "(resends + timeout NACKs + CRC rejects) / committed rounds"),
    # --- mpi ---
    Metric("mpi.launch_ms", "ms", "lower", "run_spmd entry to worker entry"),
    Metric("mpi.teardown_ms", "ms", "lower", "last worker return to run_spmd return"),
    Metric("mpi.pack_us_per_round", "us", "lower", "pack_samples minus its pool acquire"),
    Metric("mpi.unpack_us_per_round", "us", "lower", "unpack_samples"),
    Metric("mpi.crc_us_per_round", "us", "lower", "Checksummed.wrap + .ok"),
    Metric("mpi.acquire_us", "us", "lower", "comm.pool.acquire per call"),
    Metric("mpi.pool_hit_rate", "ratio", "higher", "pool hits / acquires"),
    Metric("mpi.pool_alloc_ratio", "ratio", "lower", "pool bytes allocated / bytes served"),
    Metric("mpi.isend_us", "us", "lower", "Communicator.isend per call"),
    Metric("mpi.irecv_us", "us", "lower", "Communicator.irecv per call"),
    Metric("mpi.poll_us", "us", "lower", "iprobe / recv / Request.test per call"),
    Metric("mpi.polls_per_round", "ratio", "lower",
           "polls inside synchronize per committed round (wasted-work ratio)"),
    Metric("mpi.p2p_ms_per_epoch", "ms", "lower", "isend + irecv + poll time per epoch"),
    Metric("mpi.allreduce_ms", "ms", "lower", "Communicator.allreduce per call"),
    Metric("mpi.collectives_per_step", "ratio", "lower", "collective calls / training steps"),
    Metric("mpi.bytes_copied_per_sent_byte", "ratio", "lower",
           "world.total_bytes_copied() / committed sample bytes"),
    # --- obs ---
    Metric("obs.flight_ms_per_epoch", "ms", "lower", "FlightRecorder.record + push_metrics"),
    Metric("obs.flight_records_per_epoch", "count", "lower", "flight ring appends per epoch"),
    # --- process ---
    Metric("proc.cpu_s_per_epoch", "s", "lower",
           "CPU seconds (pass interpreter + children) / epochs, untraced pass"),
    Metric("proc.cpu_utilisation", "ratio", "higher", "CPU seconds / (wall x nproc)"),
    Metric("proc.host_speed", "ratio", "higher",
           "host speed over the traced pass's steady epochs (1 = reference machine, fast "
           "state); every timing metric is already scaled by it"),
    Metric("trace.overhead_ratio", "ratio", "higher", "traced / untraced samples_per_s"),
)

#: Metrics that count rather than time: two runs of one commit must agree on
#: them exactly (``--compare`` fails otherwise).  ``history_digest`` joins
#: them when both runs used the same seed.
REPEATS_EXACTLY = (
    "shuffle.rounds_per_epoch",
    "shuffle.sent_bytes_per_epoch",
    "mpi.bytes_copied_per_sent_byte",
    "mpi.pool_hit_rate",
)

#: Units whose metrics are timings; with fewer than two cores they measure
#: the OS scheduler, so the report marks them ``unresolved``.
TIMING_UNITS = ("s", "ms", "us", "samples/s")
