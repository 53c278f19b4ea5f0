"""Numpy-based DNN substrate.

The paper profiles ResNet-18 with PyTorch on a GPU to obtain per-block
inference compute time ``c(s)``, memory footprint ``mu(s)`` and training
cost ``ct(s)``.  This package provides an equivalent substrate built from
scratch on numpy:

* :mod:`repro.dnn.ops` -- the compiled engine's kernels and FLOP counters
* :mod:`repro.dnn.layers` -- parameterized layer objects
* :mod:`repro.dnn.graph` -- sequential / residual module composition
* :mod:`repro.dnn.compile` -- fused, buffer-reusing inference plans (the
  one executor of a model)
* :mod:`repro.dnn.resnet` -- ResNet-18 as a stem + 4 layer-blocks + head
* :mod:`repro.dnn.mobilenet` -- MobileNetV2 on the same block partition
* :mod:`repro.dnn.pruning` -- DepGraph-style structured channel pruning
* :mod:`repro.dnn.profiler` -- wall clock / FLOPs / memory measurement
* :mod:`repro.dnn.training` -- fine-tuning surrogate for CONFIG A..E
  (learning curves, training memory and cost; no training loop)
* :mod:`repro.dnn.configs` -- the Table I block configurations
* :mod:`repro.dnn.repository` -- profiled block/path repository for DOT
"""

from repro.dnn.compile import CompiledModule, compile_module
from repro.dnn.configs import BlockConfig, TABLE_I_CONFIGS
from repro.dnn.mobilenet import build_mobilenetv2
from repro.dnn.profiler import BlockProfile, ModelProfile, profile_model
from repro.dnn.resnet import BlockwiseModel, ResNet18, build_resnet18

__all__ = [
    "build_resnet18",
    "build_mobilenetv2",
    "CompiledModule",
    "compile_module",
    "BlockwiseModel",
    "ResNet18",
    "BlockProfile",
    "ModelProfile",
    "profile_model",
    "BlockConfig",
    "TABLE_I_CONFIGS",
]
