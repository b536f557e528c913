"""DNN dataflow graph: tensors, layers, shape inference, networks."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "NetworkBuilder": "builder",
    "Activation": "layer",
    "ActivationKind": "layer",
    "BatchNorm": "layer",
    "Concat": "layer",
    "Conv2D": "layer",
    "Dropout": "layer",
    "EltwiseAdd": "layer",
    "EltwiseMul": "layer",
    "FullyConnected": "layer",
    "Input": "layer",
    "Layer": "layer",
    "LayerKind": "layer",
    "LRN": "layer",
    "Pool2D": "layer",
    "PoolMode": "layer",
    "Slice": "layer",
    "Softmax": "layer",
    "GraphError": "network",
    "Network": "network",
    "NetworkNode": "network",
    "FP32_BYTES": "tensor",
    "TensorRole": "tensor",
    "TensorSpec": "tensor",
    "gb": "tensor",
    "mb": "tensor",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
