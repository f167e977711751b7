"""The paper's contribution: data partitioning, shuffling and redistribution.

* :class:`GlobalShuffle` / :class:`LocalShuffle` /
  :class:`PartialLocalShuffle` — the three schemes compared throughout the
  evaluation (GS, LS, partial-x).
* :class:`ExchangePlan` — Algorithm 1's seed-synchronised balanced matching.
* :class:`Scheduler` — the Figure 3/4 exchange manager (scheduling /
  communicate / synchronize / clean_local_storage, with Q*b-per-iteration
  overlap chunks).
* :class:`StorageArea` / :class:`DiskStorageArea` — byte-accounted
  worker-local stores; :class:`PLSFolderDataset` — the ``PLS.ImageFolder``
  analogue over real files.
* :func:`compute_volumes` — §III closed-form storage/traffic volumes.
* :func:`hierarchical_exchange` — the §V-F congestion mitigation.
"""

from .base import ShuffleStrategy
from .cached import UncontrolledCachedShuffle
from .exchange_plan import ExchangePlan, exchange_count
from .global_ import GlobalShuffle
from .hierarchical import HierarchicalExchangeResult, hierarchical_exchange
from .local import LocalShuffle
from .partial import PartialLocalShuffle, strategy_from_name
from .pls_dataset import PLSFolderDataset
from .scheduler import Scheduler
from .storage import DiskStorageArea, StorageArea, StorageDataset
from .volumes import ShuffleVolumes, compute_volumes

__all__ = [
    "ShuffleStrategy",
    "UncontrolledCachedShuffle",
    "ExchangePlan",
    "exchange_count",
    "GlobalShuffle",
    "HierarchicalExchangeResult",
    "hierarchical_exchange",
    "LocalShuffle",
    "PartialLocalShuffle",
    "strategy_from_name",
    "PLSFolderDataset",
    "Scheduler",
    "DiskStorageArea",
    "StorageArea",
    "StorageDataset",
    "ShuffleVolumes",
    "compute_volumes",
]
