"""repro — full reproduction of vDNN (Rhu et al., MICRO 2016).

vDNN is a runtime memory manager that virtualizes DNN training memory
across GPU and CPU: feature maps are offloaded to pinned host memory
during forward propagation (overlapped with compute on a second CUDA
stream) and prefetched back during backward propagation, so networks
whose network-wide footprint far exceeds physical GPU memory become
trainable with little performance loss.

This package provides:

* ``repro.graph`` — DNN dataflow graphs with shape inference, in-place
  aliasing, and consumer refcounts;
* ``repro.zoo`` — every network configuration the paper studies;
* ``repro.hw`` / ``repro.kernels`` / ``repro.sim`` — models of the
  Titan X, cuDNN 4.0's convolution algorithms, and two-stream execution;
* ``repro.alloc`` — the cnmem-style pool allocator;
* ``repro.core`` — the vDNN manager itself (static all/conv policies,
  Figure-10 prefetching, and the dynamic profiling-pass planner);
* ``repro.numerics`` — a numpy training runtime that executes the same
  manager decisions on real buffers, proving bit-identical training;
* ``repro.profiler`` / ``repro.reporting`` — the measurement code behind
  every figure in the paper's evaluation.

Subpackages load on first use: ``import repro`` imports none of them,
and numpy loads only with ``repro.numerics``.

Quick start::

    from repro import zoo
    from repro.core import evaluate

    result = evaluate(zoo.build("vgg16", 256), policy="dyn")
    print(result.trainable, result.max_usage_bytes)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: subpackage -> itself (see :mod:`repro._lazy`)
_EXPORTS = {name: name for name in (
    "alloc", "core", "graph", "hw", "kernels", "numerics", "profiler",
    "reporting", "sim", "zoo")}

__all__ = ["__version__"] + sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
