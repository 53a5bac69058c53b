"""Differentiable computation graph core: tensors, ops, optimizer, gradcheck."""

from . import tensor
from .tensor import *  # noqa: F401,F403 -- exactly tensor.__all__
from .registry import Linear, ParamRegistry
from .optim import AdamW
from .gradcheck import grad_check

__all__ = [*tensor.__all__, "ParamRegistry", "Linear", "AdamW", "grad_check"]
