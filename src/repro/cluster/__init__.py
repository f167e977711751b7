"""Machine/dataset presets: the Fig. 1 landscape and the evaluation systems."""

from .presets import (
    ABCI,
    DEEPCAM,
    FIG1_DATASETS,
    FUGAKU,
    IMAGENET1K,
    IMAGENET21K,
    TOP500_MACHINES,
    DatasetSpec,
    MachineSpec,
)

__all__ = [
    "ABCI",
    "DEEPCAM",
    "FIG1_DATASETS",
    "FUGAKU",
    "IMAGENET1K",
    "IMAGENET21K",
    "TOP500_MACHINES",
    "DatasetSpec",
    "MachineSpec",
]
