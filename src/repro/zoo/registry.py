"""Named catalog of every network configuration the paper studies.

Section IV-C lists ten studied DNNs: four conventional ImageNet winners
(AlexNet, OverFeat, GoogLeNet at batch 128; VGG-16 at batch 64/128/256)
and four very deep VGG variants at batch 32.  :data:`PAPER_NETWORKS`
preserves the paper's figure ordering, and :func:`build` resolves any
of them (or a custom batch size) by name.

Builders are deterministic and networks immutable, so :func:`build`
hands every caller of one recipe the same live network: its compiled
plans (:mod:`repro.core.plan`), digest and liveness analysis are
derived once and shared.  The table is weak-valued, so it keeps no
network alive; a recipe rebuilt after its last holder dropped it is a
new network.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from ..graph import Network
from .alexnet import build_alexnet
from .googlenet import build_googlenet
from .overfeat import build_overfeat
from .resnet import build_deep_resnet, build_resnet
from .lstm import build_unrolled_lstm
from .rnn import build_unrolled_rnn
from .vgg import build_deep_vgg, build_vgg16

_BUILDERS: Dict[str, Callable[[int], Network]] = {
    "alexnet": build_alexnet,
    "overfeat": build_overfeat,
    "googlenet": build_googlenet,
    "vgg16": build_vgg16,
    "vgg116": lambda batch: build_deep_vgg(116, batch),
    "vgg216": lambda batch: build_deep_vgg(216, batch),
    "vgg316": lambda batch: build_deep_vgg(316, batch),
    "vgg416": lambda batch: build_deep_vgg(416, batch),
    "resnet18": lambda batch: build_resnet(18, batch),
    "resnet34": lambda batch: build_resnet(34, batch),
    "resnet50": lambda batch: build_resnet(50, batch),
    "resnet152": lambda batch: build_resnet(152, batch),
    "rnn": lambda batch: build_unrolled_rnn(batch_size=batch),
    "lstm": lambda batch: build_unrolled_lstm(batch_size=batch),
}

#: (builder key, batch size) in the paper's presentation order.
PAPER_CONVENTIONAL = [
    ("alexnet", 128),
    ("overfeat", 128),
    ("googlenet", 128),
    ("vgg16", 64),
    ("vgg16", 128),
    ("vgg16", 256),
]

PAPER_VERY_DEEP = [
    ("vgg116", 32),
    ("vgg216", 32),
    ("vgg316", 32),
    ("vgg416", 32),
]

PAPER_NETWORKS = PAPER_CONVENTIONAL + PAPER_VERY_DEEP


def available() -> List[str]:
    """Names accepted by :func:`build`."""
    return sorted(_BUILDERS)


def recipe(name: str, batch_size: Optional[int] = None) -> Tuple[str, int]:
    """The ``(builder key, batch size)`` that :func:`build` makes.

    Builders are deterministic, so the recipe names the built network's
    content without building it.  Raises as :func:`build` does.
    """
    key = name.lower().replace("-", "").replace("_", "")
    if key not in _BUILDERS:
        raise KeyError(f"unknown network {name!r}; available: {available()}")
    if batch_size is None:
        defaults = {"vgg16": 64, "vgg116": 32, "vgg216": 32,
                    "vgg316": 32, "vgg416": 32}
        batch_size = defaults.get(key, 128)
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    return key, batch_size


#: recipe -> the network :func:`build` made from it, while anyone holds it.
_LIVE: "weakref.WeakValueDictionary[Tuple[str, int], Network]" = \
    weakref.WeakValueDictionary()


def build(name: str, batch_size: Optional[int] = None) -> Network:
    """Build a catalog network by name.

    While any caller holds the network a recipe built, the same recipe
    returns that network rather than a new one.

    Args:
        name: one of :func:`available` (case-insensitive, dashes ignored).
        batch_size: overrides the paper's default for that network
            (128 for the conventional nets, 64 for VGG-16, 32 for the
            very deep variants).
    """
    key = recipe(name, batch_size)
    network = _LIVE.get(key)
    if network is None:
        network = _LIVE[key] = _BUILDERS[key[0]](key[1])
        # The result cache keys this network by its recipe in process.
        network._repro_recipe = key
    return network


def paper_conventional_networks() -> List[Network]:
    """The six conventional configurations of Figures 1, 4, 11, 12, 14."""
    return [build(name, batch) for name, batch in PAPER_CONVENTIONAL]


def paper_very_deep_networks() -> List[Network]:
    """The four very deep configurations of Figure 15."""
    return [build(name, batch) for name, batch in PAPER_VERY_DEEP]
