"""``PLS.ImageFolder`` analogue: a worker-local on-disk shard with the
save/remove hooks the scheduler needs (Figure 3 / §III-C).

"The newly wrapped dataset requires additional functions for saving, and
removing the samples from the local storage.  The implementation of those
functions depends on the way each dataset is organized."

:class:`PLSFolderDataset` stages this worker's partition of a source
:class:`~repro.data.folder.FolderDataset` into a worker-private directory
(one ``.npy`` file per sample — the paper's one-file-per-sample layout),
then serves as both a map-style ``Dataset`` for the ``DataLoader`` and the
``StorageArea`` the :class:`~repro.shuffle.scheduler.Scheduler` mutates.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset
from repro.data.folder import FolderDataset
from repro.data.partition import partition_indices
from repro.mpi.communicator import Communicator

from .storage import DiskStorageArea

__all__ = ["PLSFolderDataset"]


class PLSFolderDataset(Dataset):
    """Worker-local shard of an on-disk dataset, backed by real files."""

    def __init__(
        self,
        source: FolderDataset,
        comm: Communicator,
        local_dir: str | Path,
        *,
        partition: str = "random",
        seed: int = 0,
        capacity_bytes: int | None = None,
    ):
        self.comm = comm
        self.classes = list(source.classes)
        labels = np.array([source.sample_label(i) for i in range(len(source))])
        shards = partition_indices(
            len(source), comm.size, scheme=partition, labels=labels, seed=seed
        )
        local_dir = Path(local_dir) / f"rank{comm.rank:04d}"
        self.storage = DiskStorageArea(local_dir, capacity_bytes=capacity_bytes)
        for idx in shards[comm.rank]:
            sample, label = source[int(idx)]
            self.storage.add(np.asarray(sample), int(label))
        self._view_ids = self.storage.ids()

    def refresh(self) -> None:
        """Re-snapshot the storage (call after the scheduler's
        ``clean_local_storage`` so the next epoch sees the new shard)."""
        self._view_ids = self.storage.ids()

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.storage.get(self._view_ids[index])

    def __len__(self) -> int:
        return len(self._view_ids)
