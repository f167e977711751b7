"""NumPy deep-learning framework: autograd, layers, optimisers, model zoo.

Stands in for PyTorch in the reproduction; the accuracy experiments need
real SGD + BatchNorm dynamics, which this package provides at laptop scale.
"""

from . import functional
from .gradcheck import gradcheck, numerical_grad
from .init import compute_fans, kaiming_uniform
from .layers import (
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from .lr_scheduler import LRScheduler, MultiStepLR, WarmupWrapper
from .metrics import RunningAverage, accuracy, topk_accuracy
from .models import (
    MODEL_NAMES,
    BasicBlock,
    ConvNet,
    MLPClassifier,
    TinyResNet,
    build_model,
)
from .module import Module, Parameter
from .norm import BatchNorm1d, BatchNorm2d, GroupNorm
from .optim import LARS, SGD, Optimizer
from .tensor import Tensor, concatenate, is_grad_enabled, no_grad

__all__ = [
    "functional",
    "gradcheck",
    "numerical_grad",
    "compute_fans",
    "kaiming_uniform",
    "Conv2d",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Sequential",
    "LRScheduler",
    "MultiStepLR",
    "WarmupWrapper",
    "RunningAverage",
    "accuracy",
    "topk_accuracy",
    "MODEL_NAMES",
    "BasicBlock",
    "ConvNet",
    "MLPClassifier",
    "TinyResNet",
    "build_model",
    "Module",
    "Parameter",
    "BatchNorm1d",
    "BatchNorm2d",
    "GroupNorm",
    "LARS",
    "SGD",
    "Optimizer",
    "Tensor",
    "concatenate",
    "is_grad_enabled",
    "no_grad",
]
