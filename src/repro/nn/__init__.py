"""NumPy deep-learning framework: autograd, layers, optimisers, model zoo.

Stands in for PyTorch in the reproduction; the accuracy experiments need
real SGD + BatchNorm dynamics, which this package provides at laptop scale.
"""

from . import functional
from .gradcheck import gradcheck, numerical_grad
from .init import compute_fans, kaiming_uniform
from .layers import (
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
)
from .metrics import RunningAverage, accuracy
from .models import (
    MODEL_NAMES,
    BasicBlock,
    MLPClassifier,
    TinyResNet,
    build_model,
)
from .module import Module, Parameter
from .norm import BatchNorm1d, BatchNorm2d, GroupNorm
from .optim import SGD, Optimizer
from .tensor import Tensor, no_grad

__all__ = [
    "functional",
    "gradcheck",
    "numerical_grad",
    "compute_fans",
    "kaiming_uniform",
    "Conv2d",
    "GlobalAvgPool2d",
    "Linear",
    "ReLU",
    "Sequential",
    "RunningAverage",
    "accuracy",
    "MODEL_NAMES",
    "BasicBlock",
    "MLPClassifier",
    "TinyResNet",
    "build_model",
    "Module",
    "Parameter",
    "BatchNorm1d",
    "BatchNorm2d",
    "GroupNorm",
    "SGD",
    "Optimizer",
    "Tensor",
    "no_grad",
]
