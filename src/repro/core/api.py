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

This module is the one table of what a ``policy(algo)`` label means:
:func:`resolve_point` turns a label into the configuration that runs,
adopting ``dyn`` and ``joint`` through their ladders.  ``evaluate``,
``repro verify`` (dynamic and static), sweep keys, admission rungs and
cluster workers all resolve labels through it.

Every entry point consults the content-addressed simulation cache
(:mod:`repro.perf`): identical (network, system, policy, algo) points
are simulated once and replayed from pickled results afterwards.  Pass
``use_cache=False`` (or set ``REPRO_NO_CACHE=1``) to force fresh
simulation; results are bit-identical either way.  ``compare_policies``
additionally accepts ``jobs`` to fan its ten configurations out
across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from ..faults import FaultSpec
from ..graph.network import Network
from ..hw.config import PAPER_SYSTEM, SystemConfig
from ..perf.cache import cache_enabled, get_cache
from .algo_config import AlgoConfig
from .cached import (_through_cache, baseline_key, dynamic_key,
                     recompute_key, vdnn_key)
from .dynamic import adopt_dynamic
from .executor import IterationResult, simulate_baseline, simulate_vdnn
from .joint import (JointConfig, adopt_joint, adopted_joint_key, joint_key,
                    simulate_joint_config)
from .plan import ScheduleKey, compiled_plan
from .policy import PolicyKind, TransferPolicy
from .recompute import simulate_recompute

if TYPE_CHECKING:
    from ..obs import Instrumentation

# ----------------------------------------------------------------------
# The label table: what ``policy(algo)`` means
# ----------------------------------------------------------------------
_ALGOS = ("m", "p")
#: The policies ``evaluate``, ``repro verify`` and the CLI accept.
POLICIES = ("all", "conv", "comp", "dyn", "joint", "base", "none")
#: Sweep points and admission rungs also accept ``hybrid``: sqrt(L)
#: gradient checkpointing, the admission ladder's last rung.  It records
#: no schedule trace, so ``evaluate`` and the verifiers reject it.
POINT_POLICIES = POLICIES + ("hybrid",)
#: Policies that choose their own algorithms: one point each, labelled
#: without an ``(algo)`` suffix, whatever ``algo`` says.
_SELF_TUNED = ("dyn", "joint", "hybrid")
#: The policy label a ladder-adopted result carries.
_ADOPTED = {"dyn": "vDNN_dyn", "joint": "vDNN_joint"}
#: The paper's Figure 11/14 columns in order: ``compare_policies`` keys.
SWEEP_COLUMNS = (("all", "m"), ("all", "p"), ("conv", "m"), ("conv", "p"),
                 ("comp", "m"), ("comp", "p"), ("dyn", "p"), ("joint", "p"),
                 ("base", "m"), ("base", "p"))


def algo_config(network: Network, algo: str) -> AlgoConfig:
    """The ``m`` (memory-optimal) or ``p`` (performance-optimal)
    algorithm configuration of ``network``."""
    if algo == "m":
        return AlgoConfig.memory_optimal(network)
    if algo == "p":
        return AlgoConfig.performance_optimal(network)
    raise ValueError(f"algo must be one of {_ALGOS}, got {algo!r}")


def point_label(policy: str, algo: str = "p",
                policies: Sequence[str] = POLICIES) -> str:
    """The column label of ``policy(algo)``: ``all(m)``, ``base(p)``,
    ``dyn``.  Raises :class:`ValueError` for a policy outside
    ``policies``, or an algo other than ``m``/``p`` where it counts."""
    if policy not in policies:
        raise ValueError(f"policy must be one of {policies}, got {policy!r}")
    if policy in _SELF_TUNED:
        return policy
    if algo not in _ALGOS:
        raise ValueError(f"algo must be one of {_ALGOS}, got {algo!r}")
    return f"{policy}({algo})"


@dataclass(frozen=True)
class Point:
    """One label resolved for one network: the configuration that runs.

    ``config`` is the vDNN walk's :class:`TransferPolicy` or the joint
    planner's :class:`~repro.core.joint.JointConfig`, and ``None`` for
    ``base`` and ``hybrid``.  ``dyn`` and ``joint`` points hold what
    their ladders adopted.
    """

    network: Network
    system: SystemConfig
    policy: str
    algos: AlgoConfig
    config: Union[TransferPolicy, JointConfig, None] = None

    def key(self) -> str:
        """The cache key of the configuration's own simulation."""
        if self.policy == "base":
            return baseline_key(self.network, self.system, self.algos)
        if self.policy == "hybrid":
            return recompute_key(self.network, self.system, self.algos)
        if self.policy == "joint":
            return joint_key(self.network, self.system, self.config,
                             self.algos)
        return vdnn_key(self.network, self.system, self.config, self.algos)

    def schedule_key(self) -> Optional[ScheduleKey]:
        """What :meth:`simulate` executes, or None for ``hybrid``, whose
        checkpointing walk records no trace: points with equal keys
        simulate the same schedule."""
        if self.policy == "hybrid":
            return None
        network, system = self.network, self.system
        plan = compiled_plan(network, system, self.algos)
        if self.policy == "base":
            return plan.schedule_key(network, system, None)
        if self.policy == "joint":
            return plan.schedule_key(network, system, self.config.policy(),
                                     drop=self.config.drop)
        return plan.schedule_key(network, system, self.config)

    def simulate(self, verify: bool = False,
                 faults: Optional[FaultSpec] = None, fault_seed: int = 0,
                 obs: Optional[Instrumentation] = None) -> IterationResult:
        """Simulate one iteration fresh.  Only the vDNN walk takes
        ``faults``; ``hybrid`` records no trace and takes no ``obs``."""
        network, system, algos = self.network, self.system, self.algos
        if self.policy == "base":
            return simulate_baseline(network, system, algos, verify=verify,
                                     obs=obs)
        if self.policy == "hybrid":
            return simulate_recompute(network, system, algos)
        if self.policy == "joint":
            return simulate_joint_config(network, system, self.config,
                                         algos, verify=verify, obs=obs)
        return simulate_vdnn(network, system, self.config, algos,
                             verify=verify, faults=faults,
                             fault_seed=fault_seed, obs=obs)

    def relabel(self, result: IterationResult) -> IterationResult:
        """Label a ladder-adopted result ``vDNN_dyn``/``vDNN_joint``, so
        fresh and cached adopted results compare equal."""
        if self.policy in _ADOPTED:
            result.policy_label = _ADOPTED[self.policy]
            result.algo_label = self.algos.label
        return result


def resolve_point(network: Network, system: SystemConfig, policy: str,
                  algo: str = "p") -> Point:
    """Turn a ``policy(algo)`` label into the configuration that runs.

    ``dyn`` and ``joint`` run their ladders here and raise
    :class:`~repro.core.dynamic.UntrainableError` when nothing fits;
    ``hybrid`` checkpoints with memory-optimal algorithms.
    """
    point_label(policy, algo, POINT_POLICIES)
    if policy == "dyn":
        transfer, algos, _passes = adopt_dynamic(network, system)
        return Point(network, system, policy, algos, transfer)
    if policy == "joint":
        config, algos, _passes = adopt_joint(network, system)
        return Point(network, system, policy, algos, config)
    algos = algo_config(network, "m" if policy == "hybrid" else algo)
    if policy in ("base", "hybrid"):
        return Point(network, system, policy, algos)
    return Point(network, system, policy, algos,
                 TransferPolicy(PolicyKind(policy)))


def point_key(network: Network, system: SystemConfig, policy: str,
              algo: str = "p") -> str:
    """The cache key :func:`run_point` stores a label's result under.

    ``dyn`` and ``joint`` results are keyed by network and system alone,
    so their keys need no ladder.
    """
    if policy == "dyn":
        return dynamic_key(network, system)
    if policy == "joint":
        return adopted_joint_key(network, system)
    return resolve_point(network, system, policy, algo).key()


def run_point(network: Network, system: SystemConfig, policy: str,
              algo: str = "p",
              use_cache: Optional[bool] = None) -> IterationResult:
    """A label's result through the content-addressed cache.

    A ``dyn`` or ``joint`` result is also cached, relabelled, under
    :func:`point_key`, so a warm call skips the whole ladder; a cold
    call still replays the adopted configuration's own simulation.
    """
    key = (point_key(network, system, policy)
           if policy in _ADOPTED and cache_enabled(use_cache) else None)
    if key is not None:
        cached = get_cache().get(key)
        if cached is not None:
            return cached
    point = resolve_point(network, system, policy, algo)
    result = point.relabel(
        _through_cache(point.key(), point.simulate, use_cache))
    if key is not None:
        get_cache().put(key, result)
    return result


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
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
    vice versa.  ``base`` has no transfer machinery to fault and
    ``joint`` does not plan under faults: asking for either is a usage
    error rather than a silent no-op.

    ``obs`` attaches an :class:`~repro.obs.Instrumentation` object that
    accumulates metrics and spans during the run.  Instrumented runs
    simulate fresh for the same reason traced runs do (a cache replay
    would observe nothing), and are bit-identical to uninstrumented
    ones — the differential suite asserts this for the whole zoo.
    """
    system = system or PAPER_SYSTEM
    point_label(policy, algo)
    if faults is None and not verify and obs is None:
        return run_point(network, system, policy, algo, use_cache)
    if faults is not None and policy in ("base", "joint"):
        raise ValueError(
            "fault injection applies to the vDNN transfer policies (all, "
            "conv, comp, dyn): the baseline policy performs no "
            "offload/prefetch transfers and joint planning under fault "
            "injection is not supported")
    point = resolve_point(network, system, policy, algo)
    return point.relabel(point.simulate(
        verify=verify, faults=faults, fault_seed=fault_seed, obs=obs))


def oracular_baseline(
    network: Network,
    system: Optional[SystemConfig] = None,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """The paper's oracle: baseline(p) on a capacity-unlimited GPU."""
    system = (system or PAPER_SYSTEM).with_oracular_gpu()
    return run_point(network, system, "base", "p", use_cache)


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
    columns = [(policy, algo) for policy, algo in SWEEP_COLUMNS
               if include_dynamic or policy not in _ADOPTED]

    from ..perf.sweep import SweepPoint, resolve_jobs, sweep

    if resolve_jobs(jobs) > 1 and cache_enabled(use_cache):
        sweep([SweepPoint(network=network, policy=policy, algo=algo,
                          system=system) for policy, algo in columns],
              jobs=jobs, use_cache=use_cache)
    return {point_label(policy, algo): evaluate(
                network, system, policy, algo, use_cache=use_cache)
            for policy, algo in columns}
