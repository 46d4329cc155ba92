"""From-scratch numpy deep-learning framework.

The paper builds its biometric extractor in PyTorch; this environment
has none, so :mod:`repro.nn` implements the required subset -- layered
modules with explicit forward/backward, im2col convolution, batch
normalisation, cross-entropy, Adam -- with numerically gradient-checked
backpropagation (see :mod:`repro.nn.gradcheck` and the test suite).
"""

from repro.nn.activations import GELU, LeakyReLU, Softmax, Tanh
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.optim import SGD, Adam, RMSProp
from repro.nn.serialize import load_state_dict, save_state_dict
from repro.nn.tensor import Parameter

__all__ = [
    "Adam",
    "GELU",
    "LeakyReLU",
    "RMSProp",
    "Softmax",
    "Tanh",
    "ArrayDataset",
    "BatchNorm2d",
    "Conv2d",
    "CrossEntropyLoss",
    "DataLoader",
    "Dropout",
    "Flatten",
    "Linear",
    "MSELoss",
    "Module",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "load_state_dict",
    "save_state_dict",
]
