"""From-scratch numpy deep-learning framework.

The paper builds its biometric extractor in PyTorch; this environment
has none, so :mod:`repro.nn` implements the required subset -- layered
modules with explicit forward/backward, im2col convolution, batch
normalisation, cross-entropy, Adam -- with backpropagation that the
test suite checks against central-difference gradients.

Only the inference half -- layers, parameters, serialization -- is
imported here, because it is all the serving path needs.  Training
code imports the rest from its module: :mod:`repro.nn.data`,
:mod:`repro.nn.losses`, :mod:`repro.nn.optim`.
"""

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
)
from repro.nn.serialize import load_state_dict, save_state_dict
from repro.nn.tensor import Parameter

__all__ = [
    "BatchNorm2d",
    "Conv2d",
    "Flatten",
    "Linear",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "load_state_dict",
    "save_state_dict",
]
