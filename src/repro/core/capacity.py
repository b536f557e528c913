"""Capacity planning: the largest batch a GPU can train (Section I).

The paper motivates vDNN with exactly this question: "a single GPU can
only accommodate a batch size of 64 for VGG-16" under the baseline
policy, while the best-performing batch is 256.  This module answers it
for any network/policy/GPU combination by exponential + binary search
over the batch dimension, using the same trainability oracle as the
rest of the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..graph.network import Network
from ..hw.config import SystemConfig
from .api import evaluate, point_label
from .dynamic import UntrainableError


def _trainable(network: Network, system: SystemConfig,
               policy: str, algo: str, batch: int) -> bool:
    sized = network.with_batch_size(batch)
    try:
        return evaluate(sized, system, policy=policy, algo=algo).trainable
    except UntrainableError:
        return False


def max_trainable_batch(
    network: Network,
    system: SystemConfig,
    policy: str = "base",
    algo: str = "p",
    upper_limit: int = 4096,
) -> int:
    """Largest batch size trainable under the given policy (0 if none).

    Monotonicity in the batch dimension holds for every policy here
    (all allocations scale with N except weights, which are constant),
    so binary search is sound.
    """
    if not _trainable(network, system, policy, algo, 1):
        return 0

    # Exponential probe for an untrainable upper bound.
    low = 1
    high = 2
    while high <= upper_limit and _trainable(network, system, policy, algo, high):
        low, high = high, high * 2
    if high > upper_limit:
        return upper_limit

    # Binary search in (low trainable, high untrainable].
    while high - low > 1:
        mid = (low + high) // 2
        if _trainable(network, system, policy, algo, mid):
            low = mid
        else:
            high = mid
    return low


@dataclass(frozen=True)
class CapacityReport:
    """Max batch per policy for one network on one GPU."""

    network_name: str
    gpu_name: str
    max_batch: Dict[str, int]

    def headroom(self, policy: str, baseline: str = "base") -> float:
        """Batch multiplier a policy buys over the baseline."""
        base = self.max_batch.get(baseline, 0)
        if base == 0:
            return float("inf") if self.max_batch.get(policy, 0) else 1.0
        return self.max_batch.get(policy, 0) / base


def capacity_report(
    network: Network,
    system: SystemConfig,
    policies: Optional[Dict[str, tuple]] = None,
    upper_limit: int = 1024,
) -> CapacityReport:
    """Max trainable batch for the paper's main policy points.

    Default sweep: baseline(p), baseline(m), vDNN_conv(p), vDNN_all(m)
    and vDNN_dyn.
    """
    policies = policies or {
        point_label(*point): point for point in (
            ("base", "p"), ("base", "m"), ("conv", "p"), ("all", "m"),
            ("dyn", "p"))}
    result = {}
    for label, (policy, algo) in policies.items():
        result[label] = max_trainable_batch(
            network, system, policy, algo, upper_limit
        )
    return CapacityReport(network.name, system.gpu.name, result)
