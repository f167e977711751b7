"""Local shuffling (LS): each worker trains on a fixed shard forever.

"With local shuffling, workers only store a subset of the dataset to which
all their data access is restricted in all epochs." (§V-C)  The shard is
re-permuted locally every epoch, but no samples ever cross workers — the
zero-I/O extreme the paper shows is usually (but not always) accurate
enough.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.data.sampler import RandomSampler
from repro.mpi.communicator import Communicator
from repro.utils.rng import SeedTree

from .base import ShuffleStrategy
from .storage import StorageArea

__all__ = ["LocalShuffle"]


class LocalShuffle(ShuffleStrategy):
    """Per-epoch local permutation of a static worker shard."""

    name = "local"

    def __init__(self) -> None:
        super().__init__()
        self.storage = StorageArea()
        self._tree: SeedTree | None = None

    def setup(
        self,
        comm: Communicator,
        dataset: Dataset,
        *,
        labels: np.ndarray | None = None,
        partition: str = "random",
        seed: int = 0,
    ) -> None:
        """Stage this worker's initial data distribution."""
        self.comm = comm
        self.seed = seed
        self._tree = SeedTree(seed)
        shard = self._shard_indices(
            dataset, comm, labels=labels, partition=partition, seed=seed
        )
        # One call: the shard is copied into slots sized by it.  The dataset
        # index is the sample's *global* id: it gives every sample a
        # cluster-wide identity the elastic layer can track across exchanges
        # and re-fetch by after a failure.
        self.storage.add_many((*dataset[int(idx)], int(idx)) for idx in shard)

    def adopt(
        self,
        comm: Communicator,
        *,
        storage: StorageArea,
        seed: int = 0,
    ) -> None:
        """Bind to ``comm`` with an externally reconstructed shard.

        The restart/rejoin counterpart of :meth:`setup`: no partitioning
        happens — ``storage`` was rebuilt from a snapshot manifest (or
        handed over in a JOIN handshake) and its hot-set *order* is part of
        the restored state, since selection permutations and epoch loaders
        iterate it in insertion order.
        """
        self.comm = comm
        self.seed = seed
        self._tree = SeedTree(seed)
        self.storage = storage

    def epoch_loader(self, epoch: int, batch_size: int) -> DataLoader:
        """Batches this worker trains on during the epoch."""
        if self.comm is None:
            raise RuntimeError("call setup() first")
        view = self.storage.as_dataset()
        # Fresh but reproducible per-rank, per-epoch permutation.
        sampler = RandomSampler(view, seed=_epoch_seed(self._tree, self.comm.rank))
        sampler.set_epoch(epoch)
        # drop_last: a trailing 1-sample batch would break BatchNorm training
        # statistics (and real recipes drop it too).  Falls back to keeping
        # the tail when the shard is smaller than one batch.
        drop_last = len(view) >= batch_size
        loader = DataLoader(view, batch_size, sampler=sampler, drop_last=drop_last)
        self.local_reads += len(loader) * batch_size if drop_last else len(view)
        return loader

    def storage_samples(self) -> int:
        """Peak number of samples this worker must store."""
        return max(len(self.storage), self.storage.peak_count)


def _epoch_seed(tree: SeedTree, rank: int) -> int:
    """Stable per-rank sampler seed derived from the strategy's seed tree."""
    return int(tree.per_rank("loader", rank).integers(0, 2**31 - 1))
