"""PyTorch-like data pipeline: datasets, samplers, loaders, partitioning.

This is the substrate under the paper's Figure 3 training scripts: the
``Dataset`` / ``DataLoader`` / ``DistributedSampler`` trio, an on-disk
``FolderDataset`` (the ``ImageFolder`` analogue), synthetic dataset
generators standing in for the paper's datasets, and the worker-shard
partitioners of Figure 2.
"""

from .dataloader import DataLoader, default_collate
from .dataset import (
    CachedDataset,
    ConcatDataset,
    Dataset,
    Subset,
    TensorDataset,
    TransformedDataset,
)
from .folder import FolderDataset, materialize_folder_dataset
from .sharded import ShardedNpzDataset, materialize_sharded_dataset
from .prefetch import PrefetchLoader
from .partition import PARTITION_SCHEMES, partition_indices, partition_sizes
from .registry import TABLE1, ExperimentEntry, get_entry, list_entries
from .sampler import (
    BatchSampler,
    DistributedSampler,
    RandomSampler,
    Sampler,
    SequentialSampler,
    WeightedRandomSampler,
)
from .synthetic import (
    SyntheticSpec,
    make_classification,
    make_deepcam_like,
    make_image_classification,
    stratified_split,
    train_val_split,
)
from .transforms import (
    Compose,
    GaussianNoise,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    ToFloat32,
)

__all__ = [
    "DataLoader",
    "default_collate",
    "CachedDataset",
    "ConcatDataset",
    "Dataset",
    "Subset",
    "TensorDataset",
    "TransformedDataset",
    "FolderDataset",
    "ShardedNpzDataset",
    "materialize_sharded_dataset",
    "materialize_folder_dataset",
    "PrefetchLoader",
    "PARTITION_SCHEMES",
    "partition_indices",
    "partition_sizes",
    "TABLE1",
    "ExperimentEntry",
    "get_entry",
    "list_entries",
    "BatchSampler",
    "DistributedSampler",
    "WeightedRandomSampler",
    "RandomSampler",
    "Sampler",
    "SequentialSampler",
    "SyntheticSpec",
    "make_classification",
    "make_deepcam_like",
    "make_image_classification",
    "train_val_split",
    "stratified_split",
    "Compose",
    "GaussianNoise",
    "Normalize",
    "RandomCrop",
    "RandomHorizontalFlip",
    "ToFloat32",
]
