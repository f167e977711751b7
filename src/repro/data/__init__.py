"""PyTorch-like data pipeline: datasets, samplers, loaders, partitioning.

This is the substrate under the paper's Figure 3 training scripts: the
``Dataset`` / ``DataLoader`` / ``DistributedSampler`` trio, an on-disk
``FolderDataset`` (the ``ImageFolder`` analogue), synthetic dataset
generators standing in for the paper's datasets, and the worker-shard
partitioners of Figure 2.
"""

from .dataloader import DataLoader, default_collate
from .dataset import Dataset, TensorDataset, TransformedDataset
from .folder import FolderDataset, materialize_folder_dataset
from .prefetch import PrefetchLoader
from .partition import PARTITION_SCHEMES, partition_indices, partition_sizes
from .registry import TABLE1, ExperimentEntry, list_entries
from .sampler import DistributedSampler, RandomSampler, Sampler, SequentialSampler
from .synthetic import (
    SyntheticSpec,
    make_classification,
    train_val_split,
)

__all__ = [
    "DataLoader",
    "default_collate",
    "Dataset",
    "TensorDataset",
    "TransformedDataset",
    "FolderDataset",
    "materialize_folder_dataset",
    "PrefetchLoader",
    "PARTITION_SCHEMES",
    "partition_indices",
    "partition_sizes",
    "TABLE1",
    "ExperimentEntry",
    "list_entries",
    "DistributedSampler",
    "RandomSampler",
    "Sampler",
    "SequentialSampler",
    "SyntheticSpec",
    "make_classification",
    "train_val_split",
]
