"""Joint keep/offload/compress/recompute planning (the merged frontier).

vDNN moves feature maps across PCIe (offload), the cDMA engine shrinks
what moves (compressed offload), and gradient checkpointing drops and
re-materializes them from producers (recompute).  Each is the right
answer for *some* layers: a cheap-to-replay tail storage wastes PCIe
bandwidth a heavyweight early CONV output needs, while a highly sparse
ReLU output compresses so well that offloading it is nearly free.  This
module decides among all four choices **per trigger layer** under one
deterministic plan-derived cost model.  A decision set is plain data
(:class:`JointConfig`): the vDNN walk itself runs it, offloading or
compressing through the policy and dropping the triggers in
``config.drop``, so no walk code lives here.

Like :mod:`repro.core.dynamic`, the ladder (:func:`run_joint_ladder`)
is probe-abstracted and adopts by trainability and modeled costs only
— never by simulated time.  :func:`adopt_joint` probes by abstract
interpretation of the compiled plan, and only the adopted point is
simulated; a per-probe oracle in the tests checks the interpreter
against the simulator on every probe a ladder issues.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graph.network import Network
from ..hw.config import SystemConfig
from ..perf.fingerprint import fingerprint_point
from .algo_config import AlgoConfig
from .cached import _through_cache
from .dynamic import (ProfilingPass, UntrainableError,
                      _greedy_downgrade, _recording, _shortfall)
from .executor import IterationResult, _VDNNSimulation, _run_iteration
from .interpret import interpret_joint_plan
from .plan import CompiledPlan, compiled_plan
from .policy import TransferPolicy
from .recompute import droppable


class JointDecision(enum.Enum):
    """What one trigger layer does with its offload candidates."""

    KEEP = "keep"
    OFFLOAD = "offload"
    OFFLOAD_COMP = "comp"
    RECOMPUTE = "recompute"


#: Deterministic tie-break when two actions model the same cost:
#: compression wins (least pinned pressure), recompute loses (it
#: re-runs kernels and its modeled replay is the least certain).
_ACTION_RANK = {
    JointDecision.OFFLOAD_COMP: 0,
    JointDecision.OFFLOAD: 1,
    JointDecision.RECOMPUTE: 2,
}


@dataclass(frozen=True)
class JointConfig:
    """Per-trigger-layer joint decisions.

    The three sets partition the *managed* triggers (disjoint by
    construction in the ladder); every other trigger keeps its
    candidates resident (KEEP).  ``policy()`` lowers the config to the
    executor's :class:`~repro.core.policy.TransferPolicy`: drop
    triggers ride the offload wants-set so the forward walk visits
    them, and the walk's drop set intercepts them before any DMA.
    """

    offload: FrozenSet[int] = field(default_factory=frozenset)
    compress: FrozenSet[int] = field(default_factory=frozenset)
    drop: FrozenSet[int] = field(default_factory=frozenset)

    def policy(self) -> TransferPolicy:
        return TransferPolicy.custom(
            self.offload | self.compress | self.drop, self.compress)

    def describe(self) -> str:
        return (f"joint(off={len(self.offload)}, "
                f"comp={len(self.compress)}, drop={len(self.drop)})")


@dataclass
class JointPlan:
    """The configuration the joint ladder settles on, plus its probes."""

    config: JointConfig
    algos: AlgoConfig
    result: IterationResult
    passes: List[ProfilingPass] = field(default_factory=list)

    @property
    def description(self) -> str:
        return f"{self.config.describe()} + algos[{self.algos.label}]"


# ----------------------------------------------------------------------
# Deterministic cost model
# ----------------------------------------------------------------------
def droppable_owners(network: Network, plan: CompiledPlan) -> FrozenSet[int]:
    """Storages a joint plan may drop: the checkpointing eligibility of
    :func:`repro.core.recompute.droppable`."""
    return frozenset(info.owner for info in droppable(
        network, (rec.info for rec in plan.records.values())))


def trigger_costs(
    network: Network, plan: CompiledPlan
) -> Dict[int, Dict[JointDecision, float]]:
    """Modeled exposed seconds of each action, per trigger layer.

    Pure plan arithmetic, no simulation:

    * OFFLOAD / OFFLOAD_COMP: the transfer time not hidden behind the
      trigger kernel, paid once out and once back (``2 * max(0,
      dma - kernel)`` per candidate, with the compressed wire format
      for OFFLOAD_COMP).
    * RECOMPUTE: the replayed forward kernel time of every candidate's
      chain — only offered when *all* of a trigger's candidates are
      recomputable (the INPUT batch never is).
    """
    recomputable = droppable_owners(network, plan)
    costs: Dict[int, Dict[JointDecision, float]] = {}
    for step in plan.forward:
        if not step.offload_candidates:
            continue
        kernel = step.seconds
        off = sum(2.0 * max(0.0, rec.dma_seconds - kernel)
                  for rec in step.offload_candidates)
        comp = sum(2.0 * max(0.0, rec.comp_dma_seconds - kernel)
                   for rec in step.offload_candidates)
        table = {JointDecision.OFFLOAD: off,
                 JointDecision.OFFLOAD_COMP: comp}
        if all(rec.owner in recomputable
               for rec in step.offload_candidates):
            replay = 0.0
            for rec in step.offload_candidates:
                for member in rec.info.chain:
                    mstep = plan.forward_at.get(member)
                    if mstep is not None and not mstep.is_input:
                        replay += mstep.seconds
            table[JointDecision.RECOMPUTE] = replay
        costs[step.index] = table
    return costs


def _best_action(
    table: Dict[JointDecision, float]
) -> Tuple[JointDecision, float]:
    action, cost = min(table.items(),
                       key=lambda kv: (kv[1], _ACTION_RANK[kv[0]]))
    return action, cost


def _config_of(chosen: Dict[int, JointDecision]) -> JointConfig:
    return JointConfig(
        offload=frozenset(t for t, a in chosen.items()
                          if a is JointDecision.OFFLOAD),
        compress=frozenset(t for t, a in chosen.items()
                           if a is JointDecision.OFFLOAD_COMP),
        drop=frozenset(t for t, a in chosen.items()
                       if a is JointDecision.RECOMPUTE),
    )


def _modeled_cost(config: JointConfig,
                  costs: Dict[int, Dict[JointDecision, float]]) -> float:
    total = 0.0
    for trigger in config.offload:
        total += costs[trigger][JointDecision.OFFLOAD]
    for trigger in config.compress:
        total += costs[trigger][JointDecision.OFFLOAD_COMP]
    for trigger in config.drop:
        total += costs[trigger][JointDecision.RECOMPUTE]
    return total


# ----------------------------------------------------------------------
# The joint ladder
# ----------------------------------------------------------------------
def _greedy_flips(triggers, costs) -> List[Tuple[int, JointDecision]]:
    """Pass 3's chain: each trigger's modeled-cheapest action, cheapest
    first (trigger index breaks ties)."""
    order = sorted(triggers, key=lambda t: (_best_action(costs[t])[1], t))
    return [(t, _best_action(costs[t])[0]) for t in order]


def _first_trainable_prefix(flips, flip_prefix, budget_bytes: int):
    """Pass 3's search (step 3 of :func:`run_joint_ladder`): the first
    trainable ``(config, result) = flip_prefix(k)``, or None."""
    starts = [k for k, (_t, action) in enumerate(flips, 1)
              if k == 1 or action is JointDecision.RECOMPUTE]
    for lo, hi in zip(starts, starts[1:] + [len(flips) + 1]):
        fit = None  # the probe of prefix `hi`, once one fitted
        while lo < hi:
            mid = (lo + hi) // 2
            config, result = flip_prefix(mid)
            if result.max_usage_bytes <= budget_bytes:
                hi, fit = mid, (config, result)
            else:
                lo = mid + 1
        if fit is not None and fit[1].trainable:
            return fit
    return None


def run_joint_ladder(
    network: Network,
    system: SystemConfig,
    probe,
    budget_bytes: int,
):
    """The joint planning ladder, abstracted over how probes run.

    ``probe(config, algos, description)`` evaluates one joint
    configuration and returns an object with ``trainable`` and
    ``max_usage_bytes`` attributes.  :func:`adopt_joint` probes by
    interpreting the compiled plan.  Adoption depends only on
    trainability and the deterministic cost model, so any probe that
    agrees on those two facts adopts the same configuration.

    1. Feasibility with memory-optimal algorithms: everything
       offloaded; if that misses, everything recomputable dropped.
       Both missing means the network is untrainable, full stop.
    2. Keep everything on device with the fastest algorithms.
    3. Greedy: flip triggers one at a time to their modeled-cheapest
       action (cheapest first); the first prefix that trains is the
       candidate.  Each RECOMPUTE flip starts a drop-free segment, and
       the search bisects each for its first fitting prefix: adopted if
       it trains, else (a pinned-host abort) on to the next segment.
       Exact: inside a segment a longer prefix keeps a subset of a
       shorter one's device contents at every walk step and pins at
       least as much host memory, so the peak never rises and an abort
       never clears (a drop flip's replays can raise the peak).
    4. The pure frontiers at fastest algorithms: all-compress,
       all-offload, all-recompute.  Among every trainable candidate
       from passes 3-4, adopt the modeled-cheapest (ladder order
       breaks ties) — this is what makes the joint plan never worse
       than its pure constituents at the same budget.
    5. Greedy per-layer algorithm downgrades under the all-cheapest
       decision set.
    6. Fallback: the known-feasible pass-1 configuration.

    Returns ``(config, algos, probe_result)``; raises
    :class:`~repro.core.dynamic.UntrainableError` when pass 1 fails.
    """
    memory_optimal = AlgoConfig.memory_optimal(network)
    performance_optimal = AlgoConfig.performance_optimal(network)
    plan = compiled_plan(network, system, performance_optimal)
    triggers = sorted(plan.offload_indices(
        TransferPolicy.vdnn_all(), network))
    costs = trigger_costs(network, plan)
    drop_ok = frozenset(t for t in triggers
                        if JointDecision.RECOMPUTE in costs[t])

    all_offload = JointConfig(offload=frozenset(triggers))
    all_compress = JointConfig(compress=frozenset(triggers))
    # "All recompute": undroppable triggers (e.g. the INPUT batch's
    # consumer) offload instead — dropping them is impossible.
    all_drop = JointConfig(offload=frozenset(triggers) - drop_ok,
                           drop=drop_ok)

    # Pass 1: feasibility, memory-optimal algorithms.
    feasibility = probe(all_offload, memory_optimal,
                        "pass1: joint all-offload(m) feasibility")
    fallback = (all_offload, memory_optimal, feasibility)
    if not feasibility.trainable:
        drop_feasibility = probe(all_drop, memory_optimal,
                                 "pass1b: joint all-recompute(m) "
                                 "feasibility")
        if not drop_feasibility.trainable:
            raise UntrainableError(
                f"{network.name}: neither all-offload nor all-recompute "
                f"fits with memory-optimal algorithms: all-offload "
                f"{_shortfall(feasibility, budget_bytes)}, all-recompute "
                f"{_shortfall(drop_feasibility, budget_bytes)}")
        fallback = (all_drop, memory_optimal, drop_feasibility)

    # Pass 2: keep everything on device, fastest algorithms.
    keep = JointConfig()
    best = probe(keep, performance_optimal, "pass2: joint keep-all(p)")
    if best.trainable:
        return keep, performance_optimal, best

    # Passes 3 + 4: collect trainable candidates, adopt the
    # modeled-cheapest one.
    candidates: List[Tuple[float, int, JointConfig, object]] = []
    flips = _greedy_flips(triggers, costs)

    def flip_prefix(k: int):
        config = _config_of(dict(flips[:k]))
        return config, probe(config, performance_optimal,
                             f"pass3: joint greedy flip {k}/{len(flips)}")

    first = _first_trainable_prefix(flips, flip_prefix, budget_bytes)
    if first is not None:
        config, result = first
        candidates.append((_modeled_cost(config, costs), 0, config, result))
    for seq, (config, label) in enumerate((
            (all_compress, "all-compress"),
            (all_offload, "all-offload"),
            (all_drop, "all-recompute"))):
        result = probe(config, performance_optimal,
                       f"pass4: joint {label}(p)")
        if result.trainable:
            candidates.append(
                (_modeled_cost(config, costs), 1 + seq, config, result))
    if candidates:
        candidates.sort(key=lambda item: (item[0], item[1]))
        _cost, _seq, config, result = candidates[0]
        return config, performance_optimal, result

    # Pass 5: greedy per-layer algorithm downgrades, cheapest decisions.
    cheapest = _config_of(
        {t: _best_action(costs[t])[0] for t in triggers})
    greedy = _greedy_downgrade(network, probe, cheapest, "joint",
                               "pass5: joint downgrade probe")
    if greedy is not None:
        algos, result = greedy
        return cheapest, algos, result

    # Pass 6: the known-feasible configuration from pass 1.
    return fallback


def simulate_joint_config(
    network: Network,
    system: SystemConfig,
    config: JointConfig,
    algos: AlgoConfig,
    verify: bool = False,
    obs=None,
) -> IterationResult:
    """One training iteration under an explicit joint decision set.

    The vDNN walk of :func:`~repro.core.executor.simulate_vdnn` with
    the config's drop set as data (no fault injection: planning under
    faults is out of scope).
    """
    plan = compiled_plan(network, system, algos)
    return _run_iteration(_VDNNSimulation(
        network, system, config.policy(), algos, plan, verify=verify,
        obs=obs, drop=config.drop, label=config.describe()))


# ----------------------------------------------------------------------
# Cache-aware entry points (mirror core/cached.py's idiom; they live
# here because cached.py is imported by dynamic.py, which this module
# imports — the joint keys would otherwise create an import cycle)
# ----------------------------------------------------------------------
def joint_key(network: Network, system: SystemConfig,
              config: JointConfig, algos: AlgoConfig) -> str:
    # The policy canonicalizes offload ∪ drop together; `extra` carries
    # the drop partition so OFFLOAD-vs-RECOMPUTE configs never collide.
    return fingerprint_point("joint", network, system,
                             policy=config.policy(), algos=algos,
                             extra={"drop": sorted(config.drop)})


def adopted_joint_key(network: Network, system: SystemConfig) -> str:
    return fingerprint_point("joint-adopted", network, system)


def cached_joint(
    network: Network,
    system: SystemConfig,
    config: JointConfig,
    algos: AlgoConfig,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """:func:`simulate_joint_config` through the content-addressed cache."""
    return _through_cache(
        joint_key(network, system, config, algos),
        lambda: simulate_joint_config(network, system, config, algos),
        use_cache,
    )


def adopt_joint(
    network: Network, system: SystemConfig
) -> Tuple[JointConfig, AlgoConfig, List[ProfilingPass]]:
    """The joint ladder alone: the adopted ``(config, algos, passes)``.

    Every probe is an abstract walk of the compiled plan under the
    config's drop set; nothing is simulated.  Raises
    :class:`~repro.core.dynamic.UntrainableError` when pass 1 fails.
    """
    probe, passes = _recording(
        lambda config, algos, _description: interpret_joint_plan(
            network, system, compiled_plan(network, system, algos), config),
        JointConfig.policy)
    config, algos, _probe = run_joint_ladder(
        network, system, probe, system.gpu.memory_bytes)
    return config, algos, passes


def plan_joint(
    network: Network,
    system: SystemConfig,
    use_cache: Optional[bool] = None,
) -> JointPlan:
    """Run the joint ladder, then simulate the adopted point once."""
    config, algos, passes = adopt_joint(network, system)
    result = cached_joint(network, system, config, algos, use_cache=use_cache)
    return JointPlan(config, algos, result, passes)


def simulate_joint(
    network: Network,
    system: SystemConfig,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """Convenience: ``evaluate(..., policy="joint")``, the adopted result
    relabelled ``vDNN_joint``; a warm call skips the ladder."""
    from .api import run_point

    return run_point(network, system, "joint", use_cache=use_cache)
