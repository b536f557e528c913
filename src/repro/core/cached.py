"""Cache-aware entry points for the three iteration simulators.

Every caller that can hit the content-addressed cache — ``evaluate``,
the parallel sweep executor and the multi-tenant admission ladder
(all through :func:`repro.core.api.run_point`), and the planners'
adopted points — keys through these functions so that one
(network, system, policy, algos) point maps to exactly one cache key no
matter which layer asks for it.  N co-tenant jobs over the same network
therefore reuse one simulation.
"""

from __future__ import annotations

from typing import Optional

from ..graph.network import Network
from ..hw.config import SystemConfig
from ..perf.cache import cache_enabled, get_cache
from ..perf.fingerprint import fingerprint_point
from .algo_config import AlgoConfig
from .executor import IterationResult, simulate_baseline, simulate_vdnn
from .policy import TransferPolicy
from .recompute import simulate_recompute


def baseline_key(network: Network, system: SystemConfig,
                 algos: AlgoConfig) -> str:
    return fingerprint_point("baseline", network, system, algos=algos)


def vdnn_key(network: Network, system: SystemConfig,
             policy: TransferPolicy, algos: AlgoConfig) -> str:
    return fingerprint_point("vdnn", network, system,
                             policy=policy, algos=algos)


def recompute_key(network: Network, system: SystemConfig, algos: AlgoConfig,
                  segment_count: Optional[int] = None) -> str:
    return fingerprint_point("recompute", network, system, algos=algos,
                             extra={"segment_count": segment_count})


def dynamic_key(network: Network, system: SystemConfig) -> str:
    return fingerprint_point("dynamic", network, system)


def _through_cache(key: str, compute, use_cache: Optional[bool]):
    if not cache_enabled(use_cache):
        return compute()
    return get_cache().get_or_compute(key, compute)


def cached_baseline(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """:func:`simulate_baseline` through the content-addressed cache."""
    return _through_cache(
        baseline_key(network, system, algos),
        lambda: simulate_baseline(network, system, algos),
        use_cache,
    )


def cached_vdnn(
    network: Network,
    system: SystemConfig,
    policy: TransferPolicy,
    algos: AlgoConfig,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """:func:`simulate_vdnn` through the content-addressed cache."""
    return _through_cache(
        vdnn_key(network, system, policy, algos),
        lambda: simulate_vdnn(network, system, policy, algos),
        use_cache,
    )


def cached_recompute(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    segment_count: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """:func:`simulate_recompute` through the content-addressed cache."""
    return _through_cache(
        recompute_key(network, system, algos, segment_count),
        lambda: simulate_recompute(network, system, algos, segment_count),
        use_cache,
    )
