"""Distributed synchronous-SGD training harness over the simulated MPI."""

from .distributed import allreduce_batchnorm_stats, allreduce_gradients, broadcast_model
from .evaluate import evaluate
from .experiments import (
    ExperimentResult,
    make_experiment_data,
    run_comparison,
    run_pretrain_finetune,
    transfer_backbone,
)
from .history import EpochRecord, RunHistory
from .trainer import TrainConfig, train_worker
from .robustness import RobustnessReport, StrategyStats, run_multi_seed
from .tuning import TuningResult, tune_exchange_fraction

__all__ = [
    "allreduce_batchnorm_stats",
    "allreduce_gradients",
    "broadcast_model",
    "evaluate",
    "ExperimentResult",
    "make_experiment_data",
    "run_comparison",
    "run_pretrain_finetune",
    "transfer_backbone",
    "EpochRecord",
    "RunHistory",
    "TrainConfig",
    "train_worker",
    "RobustnessReport",
    "StrategyStats",
    "run_multi_seed",
    "TuningResult",
    "tune_exchange_fraction",
]
