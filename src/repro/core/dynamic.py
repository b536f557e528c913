"""vDNN_dyn: the dynamic memory-transfer / algorithm selection policy.

Section III-C: because training repeats one identical iteration millions
of times, vDNN can afford a short profiling stage that *tries*
configurations in decreasing order of performance and adopts the first
one that is trainable:

1. ``vDNN_all`` with memory-optimal algorithms — the feasibility probe.
   If even this does not fit, the network is untrainable, full stop.
2. No offloading + performance-optimal algorithms (the best possible
   configuration).  If it fits, use it for the whole training run.
   Otherwise try the same fastest algorithms with ``vDNN_conv`` and then
   ``vDNN_all`` offloading.
3. A greedy pass that starts from the fastest algorithms and locally
   downgrades individual layers to less workspace-hungry algorithms
   until the configuration fits, tried first with ``vDNN_conv`` then
   with ``vDNN_all``.
4. Fallback: ``vDNN_all`` with memory-optimal algorithms (known to fit
   from step 1).

The paper profiles each configuration by running it.  Here a probe is
an abstract walk of the compiled plan (:mod:`repro.core.interpret`): the
ladder reads only whether a configuration is trainable and its peak
usage, and the interpreter computes both exactly as the simulator
would.  Only the adopted point is simulated, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..graph.network import Network
from ..hw.config import SystemConfig
from .algo_config import AlgoConfig
from .cached import cached_vdnn
from .executor import IterationResult
from .interpret import interpret_plan
from .plan import compiled_plan
from .policy import TransferPolicy


class UntrainableError(RuntimeError):
    """Even vDNN_all with memory-optimal algorithms does not fit."""


@dataclass
class ProfilingPass:
    """Record of one configuration probe.

    Only fields an interpreted and a simulated probe both fill, so the
    two histories of one ladder compare with ``==``.
    """

    description: str
    policy: TransferPolicy
    algo_label: str
    trainable: bool
    max_usage_bytes: int


@dataclass
class DynamicPlan:
    """The configuration vDNN_dyn settles on, plus its probe history."""

    policy: TransferPolicy
    algos: AlgoConfig
    result: IterationResult
    passes: List[ProfilingPass] = field(default_factory=list)

    @property
    def description(self) -> str:
        return f"{self.policy.describe()} + algos[{self.algos.label}]"


# ----------------------------------------------------------------------
# The ladder toolkit: shared by the vDNN_dyn and joint ladders
# ----------------------------------------------------------------------
#: Probes one greedy algorithm-downgrade loop spends before giving up.
_DOWNGRADE_PROBES = 64


def _recording(run, policy_of=lambda subject: subject):
    """A ladder probe that records a :class:`ProfilingPass` per call.

    ``run(subject, algos, description)`` evaluates one configuration;
    ``subject`` is a ``TransferPolicy`` (vDNN_dyn) or a ``JointConfig``
    (joint), and ``policy_of`` lowers it to the recorded policy.
    Returns ``(probe, passes)``.
    """
    passes: List[ProfilingPass] = []

    def probe(subject, algos: AlgoConfig, description: str):
        result = run(subject, algos, description)
        passes.append(ProfilingPass(
            description, policy_of(subject), algos.label,
            result.trainable, result.max_usage_bytes))
        return result

    return probe, passes


def _greedy_downgrade(network: Network, probe, subject, label: str,
                      description: str):
    """Shrink the most workspace-hungry layers until ``subject`` fits.

    Starts from the fastest algorithms (labelled ``label``) and always
    downgrades the layer holding the largest workspace.  The paper walks
    layers in order, each as far as implicit GEMM; the two agree on
    trainability but not on fixed points (VGG-16 (256) on 12 GB: four
    layers stop at FFT_TILING here, three reach implicit GEMM in order).

    Returns ``(algos, result)`` for the first fit, or None once every
    layer is at implicit GEMM or the probe allowance is spent.
    """
    algos = AlgoConfig.performance_optimal(network)
    algos.label = label
    for probe_index in range(_DOWNGRADE_PROBES):
        result = probe(subject, algos, f"{description} {probe_index}")
        if result.trainable:
            return algos, result
        hungriest = sorted(
            algos.profiles.items(),
            key=lambda item: item[1].workspace_bytes,
            reverse=True,
        )
        if not any(algos.downgrade(network, layer_index)
                   for layer_index, profile in hungriest
                   if profile.workspace_bytes):
            break
    return None


def _shortfall(result, budget_bytes: int) -> str:
    """Why a feasibility probe missed: its peak, or pinned host memory."""
    if result.max_usage_bytes > budget_bytes:
        return f"needs {result.max_usage_bytes} bytes (> {budget_bytes})"
    # The peak fits, so the walk stopped on pinned-host exhaustion.
    return (f"ran out of pinned host memory (peak "
            f"{result.max_usage_bytes} bytes fits in {budget_bytes})")


# ----------------------------------------------------------------------
# The vDNN_dyn ladder
# ----------------------------------------------------------------------
def run_profiling_ladder(
    network: Network,
    probe,
    budget_bytes: int,
) -> Tuple[TransferPolicy, AlgoConfig, object]:
    """The vDNN_dyn ladder, abstracted over how configurations are tried.

    ``probe(policy, algos, description)`` evaluates one configuration
    and returns an object with ``trainable`` and ``max_usage_bytes``
    attributes.  :func:`adopt_dynamic` probes by interpreting the
    compiled plan; a test oracle substitutes a probe that also
    simulates and checks that both agree.

    Returns the adopted ``(policy, algos, probe_result)``; raises
    :class:`UntrainableError` when the pass-1 feasibility probe fails.
    """
    memory_optimal = AlgoConfig.memory_optimal(network)
    performance_optimal = AlgoConfig.performance_optimal(network)

    # Pass 1: trainability probe — vDNN_all, memory-optimal.
    feasibility = probe(
        TransferPolicy.vdnn_all(), memory_optimal,
        "pass1: vDNN_all(m) feasibility",
    )
    if not feasibility.trainable:
        raise UntrainableError(
            f"{network.name}: even vDNN_all with memory-optimal algorithms "
            f"{_shortfall(feasibility, budget_bytes)}"
        )

    # Pass 2: fastest algorithms, no offloading at all.
    best = probe(
        TransferPolicy.none(), performance_optimal, "pass2: no-offload(p)"
    )
    if best.trainable:
        return TransferPolicy.none(), performance_optimal, best

    # Pass 2b: fastest algorithms with static offloading.
    for policy in (TransferPolicy.vdnn_conv(), TransferPolicy.vdnn_all()):
        result = probe(
            policy, performance_optimal, f"pass2b: {policy.describe()}(p)"
        )
        if result.trainable:
            return policy, performance_optimal, result

    # Pass 3: greedy per-layer algorithm downgrades.
    for policy in (TransferPolicy.vdnn_conv(), TransferPolicy.vdnn_all()):
        greedy = _greedy_downgrade(network, probe, policy, "dyn",
                                   f"greedy[{policy.describe()}] probe")
        if greedy is not None:
            algos, result = greedy
            return policy, algos, result

    # Fallback: the known-feasible configuration from pass 1.
    return TransferPolicy.vdnn_all(), memory_optimal, feasibility


def adopt_dynamic(
    network: Network, system: SystemConfig
) -> Tuple[TransferPolicy, AlgoConfig, List[ProfilingPass]]:
    """The vDNN_dyn ladder alone: the adopted ``(policy, algos, passes)``.

    Every probe is an abstract walk of the compiled plan; nothing is
    simulated.  Raises :class:`UntrainableError` when pass 1 fails.
    """
    probe, passes = _recording(
        lambda policy, algos, _description: interpret_plan(
            network, system, compiled_plan(network, system, algos), policy))
    policy, algos, _probe = run_profiling_ladder(
        network, probe, system.gpu.memory_bytes)
    return policy, algos, passes


def plan_dynamic(
    network: Network,
    system: SystemConfig,
    use_cache: Optional[bool] = None,
) -> DynamicPlan:
    """Run the vDNN_dyn ladder, then simulate the adopted point once."""
    policy, algos, passes = adopt_dynamic(network, system)
    result = cached_vdnn(network, system, policy, algos, use_cache=use_cache)
    return DynamicPlan(policy, algos, result, passes)


def simulate_dynamic(
    network: Network,
    system: SystemConfig,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """Convenience: ``evaluate(..., policy="dyn")``, the adopted result
    relabelled ``vDNN_dyn``; a warm call skips the profiling ladder."""
    from .api import run_point

    return run_point(network, system, "dyn", use_cache=use_cache)
