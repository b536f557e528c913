"""Reference network zoo: every configuration the paper evaluates."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "build_alexnet": "alexnet",
    "build_googlenet": "googlenet",
    "build_overfeat": "overfeat",
    "RESNET_STAGES": "resnet",
    "build_deep_resnet": "resnet",
    "build_resnet": "resnet",
    "build_unrolled_lstm": "lstm",
    "build_unrolled_rnn": "rnn",
    "PAPER_CONVENTIONAL": "registry",
    "PAPER_NETWORKS": "registry",
    "PAPER_VERY_DEEP": "registry",
    "available": "registry",
    "build": "registry",
    "paper_conventional_networks": "registry",
    "paper_very_deep_networks": "registry",
    "recipe": "registry",
    "VGG16_GROUPS": "vgg",
    "build_deep_vgg": "vgg",
    "build_vgg16": "vgg",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
