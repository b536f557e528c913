"""Memory profiling: the analyses behind Figures 1, 4 and 5.

* :func:`baseline_memory_profile` — the network-wide allocation size and
  the maximum fraction of it that is actually *used* at any instant when
  training proceeds layer-wise (Figure 1's two axes).  The gap between
  the two is the paper's motivating observation: 53-79% of allocated
  memory is never simultaneously live.
* :func:`memory_breakdown` — allocation split by functionality: weights,
  feature maps, gradient maps, workspace (Figure 4).
* :func:`per_layer_profile` — per-layer X+Y+WS vs. weights for the
  layers that carry weights (Figure 5, VGG-16 style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.algo_config import AlgoConfig
from ..core.executor import baseline_allocation_bytes
from ..core.liveness import LivenessAnalysis, liveness_of
from ..graph.layer import LayerKind
from ..graph.network import Network, NetworkNode


def _working_set_bytes(
    network: Network,
    liveness: LivenessAnalysis,
    node: NetworkNode,
    algos: AlgoConfig,
    backward: bool,
) -> int:
    """Bytes one layer's kernel actually touches at that instant."""
    total = node.weight_bytes + algos.workspace_bytes(node)
    own = liveness.storage_of(node.index)

    if not backward:
        # Forward reads X, writes Y.
        seen = {own.owner}
        total += own.nbytes
        for storage in liveness.input_storages(node.index):
            if storage.owner not in seen:
                seen.add(storage.owner)
                total += storage.nbytes
        return total

    # Backward reads dY (always), X and/or Y only if the kernel needs
    # them, and writes dX (one per input storage) and dW.
    total += own.nbytes  # dY
    total += node.weight_bytes  # dW
    seen = set()
    if node.layer.backward_needs_y:
        seen.add(own.owner)
        total += own.nbytes
    for storage in liveness.input_storages(node.index):
        total += storage.nbytes  # dX
        if node.layer.backward_needs_x and storage.owner not in seen:
            seen.add(storage.owner)
            total += storage.nbytes
    return total


@dataclass
class BaselineProfile:
    """Figure 1's two axes for one network."""

    network_name: str
    allocation_bytes: int
    max_layer_usage_bytes: int

    @property
    def max_usage_fraction(self) -> float:
        if self.allocation_bytes == 0:
            return 0.0
        return self.max_layer_usage_bytes / self.allocation_bytes

    @property
    def unused_fraction(self) -> float:
        return 1.0 - self.max_usage_fraction


def baseline_memory_profile(
    network: Network, algos: AlgoConfig
) -> BaselineProfile:
    """Network-wide allocation vs. the largest layer-wise working set."""
    liveness = liveness_of(network)
    total = baseline_allocation_bytes(network, algos)["total"]
    max_ws = 0
    for node in network:
        if node.kind is LayerKind.INPUT:
            continue
        max_ws = max(
            max_ws,
            _working_set_bytes(network, liveness, node, algos, backward=False),
            _working_set_bytes(network, liveness, node, algos, backward=True),
        )
    return BaselineProfile(network.name, total, max_ws)


def memory_breakdown(network: Network, algos: AlgoConfig) -> Dict[str, int]:
    """Figure 4: allocation by functionality, plus the feature-map share.

    Keys: ``weights`` (W + dW), ``feature_maps``, ``gradient_maps``,
    ``workspace``, ``total``, and ``feature_map_fraction``.
    """
    raw = baseline_allocation_bytes(network, algos)
    breakdown = {
        "weights": raw["weights"] + raw["weight_gradients"],
        "feature_maps": raw["feature_maps"],
        "gradient_maps": raw["gradient_maps"],
        "workspace": raw["workspace"],
        "total": raw["total"],
    }
    breakdown["feature_map_fraction"] = (
        breakdown["feature_maps"] / breakdown["total"] if breakdown["total"] else 0.0
    )
    return breakdown


@dataclass
class LayerMemoryRow:
    """One bar group of Figure 5."""

    name: str
    kind: str
    region: str                 # "feature extraction" | "classifier"
    feature_map_bytes: int      # X + Y for this layer
    workspace_bytes: int
    weight_bytes: int


def per_layer_profile(network: Network, algos: AlgoConfig) -> List[LayerMemoryRow]:
    """Per-layer memory usage for weighted layers (Figure 5)."""
    liveness = liveness_of(network)
    rows = []
    for node in network:
        if node.kind not in (LayerKind.CONV, LayerKind.FC):
            continue
        fmap = liveness.storage_of(node.index).nbytes
        seen = {liveness.storage_of(node.index).owner}
        for storage in liveness.input_storages(node.index):
            if storage.owner not in seen:
                seen.add(storage.owner)
                fmap += storage.nbytes
        rows.append(LayerMemoryRow(
            name=node.name,
            kind=node.kind.value,
            region=("feature extraction" if node.is_feature_extraction
                    else "classifier"),
            feature_map_bytes=fmap,
            workspace_bytes=algos.workspace_bytes(node),
            weight_bytes=node.weight_bytes,
        ))
    return rows


def feature_extraction_share(network: Network) -> float:
    """Fraction of feature-map bytes in the feature-extraction region.

    The paper quotes 81% for AlexNet and 96% for VGG-16 (256) —
    the justification for targeting only those layers (Section III).
    """
    liveness = liveness_of(network)
    total = feat = 0
    for storage in liveness.all_storages():
        total += storage.nbytes
        if network[storage.owner].is_feature_extraction:
            feat += storage.nbytes
    return feat / total if total else 0.0
