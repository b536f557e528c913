"""Result-cache keys, and cache-aware vDNN and recompute simulations.

Every caller that can hit the result cache — ``evaluate``, the parallel
sweep executor and the multi-tenant admission ladder (all through
:func:`repro.core.api.run_point`), and the planners' adopted points —
keys through these functions so that one (network, system, policy,
algos) point maps to exactly one cache key no matter which layer asks
for it.  N co-tenant jobs over the same network therefore reuse one
simulation.

A ``*_key`` function names its point with ``keyer``: by default
:func:`~repro.perf.fingerprint.fingerprint_point`, its name on disk, or
:func:`~repro.perf.fingerprint.lookup_key`, its key in memory.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..graph.network import Network
from ..hw.config import SystemConfig
from ..perf.cache import cache_enabled, get_cache
from ..perf.fingerprint import fingerprint_point, lookup_key
from .algo_config import AlgoConfig
from .executor import IterationResult, simulate_vdnn
from .policy import TransferPolicy
from .recompute import simulate_recompute


def baseline_key(network: Network, system: SystemConfig,
                 algos: AlgoConfig, keyer=fingerprint_point):
    return keyer("baseline", network, system, algos=algos)


def vdnn_key(network: Network, system: SystemConfig,
             policy: TransferPolicy, algos: AlgoConfig,
             keyer=fingerprint_point):
    return keyer("vdnn", network, system, policy=policy, algos=algos)


def recompute_key(network: Network, system: SystemConfig, algos: AlgoConfig,
                  segment_count: Optional[int] = None,
                  keyer=fingerprint_point):
    return keyer("recompute", network, system, algos=algos,
                 extra={"segment_count": segment_count})


def _through_cache(key: Callable, compute, use_cache: Optional[bool]):
    """``compute()`` through the cache, under ``key(lookup_key)`` in
    memory and ``key(fingerprint_point)`` on disk."""
    if not cache_enabled(use_cache):
        return compute()
    return get_cache().get_or_compute(
        key(lookup_key), compute, partial(key, fingerprint_point))


def cached_vdnn(
    network: Network,
    system: SystemConfig,
    policy: TransferPolicy,
    algos: AlgoConfig,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """:func:`simulate_vdnn` through the result cache."""
    return _through_cache(
        partial(vdnn_key, network, system, policy, algos),
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
    """:func:`simulate_recompute` through the result cache."""
    return _through_cache(
        partial(recompute_key, network, system, algos, segment_count),
        lambda: simulate_recompute(network, system, algos, segment_count),
        use_cache,
    )
