"""High-level public API: evaluate networks under memory-manager policies.

Typical use::

    from repro import zoo
    from repro.core import evaluate, compare_policies

    net = zoo.build("vgg16", 256)
    result = evaluate(net, policy="dyn")
    print(result.trainable, result.max_usage_bytes, result.total_time)

``policy`` accepts ``"base"``, ``"all"``, ``"conv"``, ``"comp"``
(compressed offload through the cDMA engine), ``"none"``, ``"dyn"`` or
``"joint"`` (the per-layer keep/offload/compress/recompute planner);
``algo`` accepts ``"m"`` (memory-optimal) or ``"p"``
(performance-optimal).  ``compare_policies`` reproduces one network's
column group of the paper's Figures 11/14.

Every entry point consults the content-addressed simulation cache
(:mod:`repro.perf`): identical (network, system, policy, algo) points
are simulated once and replayed from pickled results afterwards.  Pass
``use_cache=False`` (or set ``REPRO_NO_CACHE=1``) to force fresh
simulation; results are bit-identical either way.  ``compare_policies``
additionally accepts ``jobs`` to fan its ten configurations out
across worker processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults import FaultSpec
from ..graph.network import Network
from ..hw.config import PAPER_SYSTEM, SystemConfig
from ..obs import Instrumentation
from .algo_config import AlgoConfig
from .cached import cached_baseline, cached_vdnn
from .dynamic import simulate_dynamic
from .executor import IterationResult
from .policy import TransferPolicy

_POLICIES = ("all", "conv", "comp", "dyn", "joint", "base", "none")
_ALGOS = ("m", "p")


def _algo_config(network: Network, algo: str) -> AlgoConfig:
    if algo == "m":
        return AlgoConfig.memory_optimal(network)
    if algo == "p":
        return AlgoConfig.performance_optimal(network)
    raise ValueError(f"algo must be one of {_ALGOS}, got {algo!r}")


def evaluate(
    network: Network,
    system: Optional[SystemConfig] = None,
    policy: str = "dyn",
    algo: str = "p",
    use_cache: Optional[bool] = None,
    verify: bool = False,
    faults: Optional[FaultSpec] = None,
    fault_seed: int = 0,
    obs: Optional[Instrumentation] = None,
) -> IterationResult:
    """Simulate one training iteration of ``network`` under a policy.

    ``faults`` injects a deterministic :class:`~repro.faults.FaultSpec`
    into the vDNN transfer machinery.  Faulted (and traced) runs always
    simulate fresh — the content-addressed cache only stores perfect-
    machine results, so it can never replay a faulted run as clean or
    vice versa.  ``base`` has no transfer machinery to fault: asking for
    it is a usage error rather than a silent no-op.

    ``obs`` attaches an :class:`~repro.obs.Instrumentation` object that
    accumulates metrics and spans during the run.  Instrumented runs
    simulate fresh for the same reason traced runs do (a cache replay
    would observe nothing), and are bit-identical to uninstrumented
    ones — the differential suite asserts this for the whole zoo.
    """
    system = system or PAPER_SYSTEM
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if faults is not None or verify or obs is not None:
        from .dynamic import adopt_dynamic
        from .executor import simulate_baseline, simulate_vdnn

        if policy == "base":
            if faults is not None:
                raise ValueError(
                    "the baseline policy performs no offload/prefetch "
                    "transfers; fault injection applies to vDNN policies "
                    "(all, conv, dyn)")
            return simulate_baseline(
                network, system, _algo_config(network, algo), verify=verify,
                obs=obs)
        if policy == "dyn":
            transfer, algos, _passes = adopt_dynamic(network, system)
            result = simulate_vdnn(
                network, system, transfer, algos, verify=verify,
                faults=faults, fault_seed=fault_seed, obs=obs)
            # Match simulate_dynamic's relabeling so fresh (verified,
            # faulted, instrumented) dyn runs compare equal to cached ones.
            result.policy_label = "vDNN_dyn"
            result.algo_label = algos.label
            return result
        if policy == "joint":
            if faults is not None:
                raise ValueError(
                    "joint planning under fault injection is not "
                    "supported; fault injection applies to the vDNN "
                    "transfer policies (all, conv, comp, dyn)")
            from .joint import adopt_joint, simulate_joint_config

            config, algos, _passes = adopt_joint(network, system)
            result = simulate_joint_config(
                network, system, config, algos, verify=verify, obs=obs)
            # Same relabeling contract as dyn above.
            result.policy_label = "vDNN_joint"
            result.algo_label = algos.label
            return result
        transfer = {
            "all": TransferPolicy.vdnn_all,
            "conv": TransferPolicy.vdnn_conv,
            "comp": TransferPolicy.vdnn_comp,
            "none": TransferPolicy.none,
        }[policy]()
        return simulate_vdnn(
            network, system, transfer, _algo_config(network, algo),
            verify=verify, faults=faults, fault_seed=fault_seed, obs=obs)
    if policy == "dyn":
        return simulate_dynamic(network, system, use_cache=use_cache)
    if policy == "joint":
        from .joint import simulate_joint

        return simulate_joint(network, system, use_cache=use_cache)
    algos = _algo_config(network, algo)
    if policy == "base":
        return cached_baseline(network, system, algos, use_cache=use_cache)
    transfer = {
        "all": TransferPolicy.vdnn_all,
        "conv": TransferPolicy.vdnn_conv,
        "comp": TransferPolicy.vdnn_comp,
        "none": TransferPolicy.none,
    }[policy]()
    return cached_vdnn(network, system, transfer, algos, use_cache=use_cache)


def oracular_baseline(
    network: Network,
    system: Optional[SystemConfig] = None,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """The paper's oracle: baseline(p) on a capacity-unlimited GPU."""
    system = (system or PAPER_SYSTEM).with_oracular_gpu()
    return cached_baseline(
        network, system, AlgoConfig.performance_optimal(network),
        use_cache=use_cache,
    )


def compare_policies(
    network: Network,
    system: Optional[SystemConfig] = None,
    include_dynamic: bool = True,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> Dict[str, IterationResult]:
    """One network's full policy x algorithm sweep (Figures 11/14).

    Keys follow the paper's column labels: ``all(m)``, ``all(p)``,
    ``conv(m)``, ``conv(p)``, ``comp(m)``, ``comp(p)``, ``dyn``,
    ``joint``, ``base(m)``, ``base(p)``.

    With ``jobs > 1`` the configurations are simulated concurrently in
    worker processes (warming the cache), then assembled serially from
    cache hits — same results, less wall time.
    """
    system = system or PAPER_SYSTEM

    from ..perf.sweep import SweepPoint, resolve_jobs, sweep

    if resolve_jobs(jobs) > 1 and cache_is_on(use_cache):
        points = [
            SweepPoint(network=network, policy=policy, algo=algo,
                       system=system)
            for policy in ("all", "conv", "comp") for algo in _ALGOS
        ]
        if include_dynamic:
            points.append(
                SweepPoint(network=network, policy="dyn", system=system))
            points.append(
                SweepPoint(network=network, policy="joint", system=system))
        points += [
            SweepPoint(network=network, policy="base", algo=algo,
                       system=system)
            for algo in _ALGOS
        ]
        sweep(points, jobs=jobs, use_cache=use_cache)

    results: Dict[str, IterationResult] = {}
    for policy in ("all", "conv", "comp"):
        for algo in _ALGOS:
            results[f"{policy}({algo})"] = evaluate(
                network, system, policy, algo, use_cache=use_cache)
    if include_dynamic:
        results["dyn"] = evaluate(network, system, "dyn",
                                  use_cache=use_cache)
        results["joint"] = evaluate(network, system, "joint",
                                    use_cache=use_cache)
    for algo in _ALGOS:
        results[f"base({algo})"] = evaluate(
            network, system, "base", algo, use_cache=use_cache)
    return results


def cache_is_on(use_cache: Optional[bool] = None) -> bool:
    """Whether the simulation cache applies (flag, then environment)."""
    from ..perf.cache import cache_enabled

    return cache_enabled(use_cache)
