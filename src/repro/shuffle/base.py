"""Strategy interface shared by global, local and partial-local shuffling.

A strategy encapsulates *where a worker's samples live* and *what changes
between epochs*.  The distributed trainer drives it through four hooks:

1. ``setup(comm, dataset, ...)`` — initial distribution (the staging step).
2. ``begin_epoch(epoch)`` — per-epoch preparation (PLS: pick samples +
   destinations; GS: advance the global permutation).
3. ``epoch_loader(epoch, batch_size)`` — the local data view to train on,
   plus ``on_iteration()`` called once per training step (PLS posts its
   Q*b-sample exchange chunk here, overlapping communication with FW+BW).
4. ``end_epoch()`` — completion (PLS: synchronize + clean_local_storage).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.data.partition import partition_indices
from repro.mpi.communicator import Communicator

__all__ = ["ShuffleStrategy"]


class ShuffleStrategy(ABC):
    """Per-worker shuffling behaviour (one instance per rank)."""

    #: Human-readable name used in benchmark tables ("global", "local",
    #: "partial-0.1", ...).
    name: str = "abstract"

    def __init__(self) -> None:
        self.comm: Communicator | None = None
        self.seed: int = 0
        # I/O accounting (samples): feeds the examples and tests.
        self.local_reads = 0
        self.remote_reads = 0

    # ------------------------------------------------------------------ setup
    @abstractmethod
    def setup(
        self,
        comm: Communicator,
        dataset: Dataset,
        *,
        labels: np.ndarray | None = None,
        partition: str = "random",
        seed: int = 0,
    ) -> None:
        """Stage the initial distribution of ``dataset`` for this worker.

        ``partition`` selects the Figure 2 permutation scheme (see
        :func:`repro.data.partition.partition_indices`); label-aware schemes
        need ``labels``.
        """

    def _shard_indices(
        self,
        dataset: Dataset,
        comm: Communicator,
        *,
        labels: np.ndarray | None,
        partition: str,
        seed: int,
    ) -> np.ndarray:
        shards = partition_indices(
            len(dataset), comm.size, scheme=partition, labels=labels, seed=seed
        )
        return shards[comm.rank]

    # ------------------------------------------------------------ epoch hooks
    def begin_epoch(self, epoch: int) -> None:
        """Per-epoch preparation; default is a no-op."""

    @abstractmethod
    def epoch_loader(self, epoch: int, batch_size: int) -> DataLoader:
        """The batches this worker trains on during ``epoch``."""

    def on_iteration(self) -> None:
        """Called once per training iteration (overlap hook); default no-op."""

    def end_epoch(self) -> None:
        """Per-epoch completion; default is a no-op."""

    # ------------------------------------------------------------- accounting
    @abstractmethod
    def storage_samples(self) -> int:
        """Samples this worker must be able to store (peak)."""

    def stats(self) -> dict[str, Any]:
        """Accounting snapshot for benchmarks."""
        return {
            "name": self.name,
            "local_reads": self.local_reads,
            "remote_reads": self.remote_reads,
            "storage_samples": self.storage_samples(),
        }
