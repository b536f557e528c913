"""Reference network zoo: every configuration the paper evaluates."""

from .alexnet import build_alexnet
from .googlenet import build_googlenet
from .overfeat import build_overfeat
from .resnet import RESNET_STAGES, build_deep_resnet, build_resnet
from .lstm import build_unrolled_lstm
from .rnn import build_unrolled_rnn
from .registry import (
    PAPER_CONVENTIONAL,
    PAPER_NETWORKS,
    PAPER_VERY_DEEP,
    available,
    build,
    paper_conventional_networks,
    paper_very_deep_networks,
    recipe,
)
from .vgg import VGG16_GROUPS, build_deep_vgg, build_vgg16

__all__ = [
    "PAPER_CONVENTIONAL",
    "PAPER_NETWORKS",
    "PAPER_VERY_DEEP",
    "RESNET_STAGES",
    "VGG16_GROUPS",
    "available",
    "build",
    "build_alexnet",
    "build_deep_resnet",
    "build_deep_vgg",
    "build_resnet",
    "build_unrolled_lstm",
    "build_unrolled_rnn",
    "build_googlenet",
    "build_overfeat",
    "build_vgg16",
    "paper_conventional_networks",
    "paper_very_deep_networks",
    "recipe",
]
