"""Gradient checkpointing (recomputation) — the offloading alternative.

The paper saves memory by *moving* feature maps across PCIe; the other
classic approach (Chen et al.'s sublinear-memory training, later
combined with offloading by SuperNeurons) saves memory by *dropping*
feature maps after forward propagation and recomputing them from sparse
checkpoints during backward propagation — trading an extra forward pass
for capacity instead of PCIe bandwidth.

:func:`simulate_recompute` runs one training iteration under sqrt(L)
checkpointing on the same compiled plan as the vDNN executor, so
`benchmarks/bench_ext_recompute.py` can compare the two fairly: memory
floor, time overhead, and where each wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..alloc.pool import Allocation, LiveByteCounter
from ..alloc.stats import UsageTracker
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..sim.stream import make_stream_pair
from ..sim.timeline import EventKind
from .algo_config import AlgoConfig
from .executor import IterationResult, _feature_extraction_time
from .liveness import StorageInfo, liveness_of
from .plan import ForwardStep, compiled_plan

_FORWARD = EventKind.FORWARD
_BACKWARD = EventKind.BACKWARD


@dataclass(frozen=True)
class CheckpointPlan:
    """Which storages a recompute run keeps vs drops.

    A pure partition of the droppable feature-extraction storages —
    every droppable owner is a checkpoint or dropped, never both —
    plus the droppable order the segment walk-back follows.  Built by
    :func:`checkpoint_plan`; consumed by :class:`_RecomputeSimulation`
    (segments and walk-back) and by the numpy
    :class:`~repro.numerics.TrainingRuntime`, whose ``dropped`` is the
    storage drop set its vDNN walk (:class:`repro.core.walk.PlanWalk`)
    frees and replays owner by owner, and audited statically by
    :func:`repro.analysis.verify_recompute_plan` (SP405).
    """

    checkpoints: FrozenSet[int]
    dropped: FrozenSet[int]
    droppable_order: Tuple[int, ...]


def droppable(network: Network,
              storages: Iterable[StorageInfo]) -> List[StorageInfo]:
    """The storages a checkpoint or joint plan may drop.

    Needed backward, produced by a feature-extraction layer, and not
    the INPUT batch (inputs cannot be recomputed from anything).
    """
    return [s for s in storages
            if s.needed_backward
            and network[s.owner].is_feature_extraction
            and network[s.owner].kind is not LayerKind.INPUT]


def checkpoint_plan(network: Network,
                    segment_count: Optional[int] = None,
                    exclude: FrozenSet[int] = frozenset()
                    ) -> CheckpointPlan:
    """sqrt(L) checkpoint selection over the droppable storages.

    Orders the :func:`droppable` storages by owner, less the owners in
    ``exclude`` (the storages an offloading policy moves to the host in
    the offload + recompute hybrid), and keeps every segment boundary:
    ``segment_count`` segments when given and positive, else
    ``isqrt(count)``.  A negative count raises :class:`ValueError`.
    """
    if segment_count is not None and segment_count < 0:
        raise ValueError(
            f"segment count must be non-negative, got {segment_count}")
    storages = liveness_of(network).all_storages()
    order = sorted((s for s in droppable(network, storages)
                    if s.owner not in exclude), key=lambda s: s.owner)
    count = len(order)
    segments = segment_count or max(1, math.isqrt(count))
    stride = max(1, math.ceil(count / segments))
    checkpoints = frozenset(
        s.owner for i, s in enumerate(order) if i % stride == 0)
    return CheckpointPlan(
        checkpoints=checkpoints,
        dropped=frozenset(
            s.owner for s in order if s.owner not in checkpoints),
        droppable_order=tuple(s.owner for s in order),
    )


class _RecomputeSimulation:
    """One iteration under checkpoint/recompute memory management.

    Kernel times, workspaces, tags and the backward steps' gradient
    allocations and releases come from the :class:`CompiledPlan` the
    vDNN walks of this point share; no placement is read, so blocks are
    only counted.
    """

    def __init__(self, network: Network, system: SystemConfig,
                 algos: AlgoConfig, segment_count: Optional[int]):
        self.network = network
        self.plan = compiled_plan(network, system, algos)
        self.liveness = liveness_of(network)
        self.pool = LiveByteCounter()
        self.compute, _memory, self.timeline = make_stream_pair()
        self.usage = UsageTracker()
        self.device: Dict[int, Allocation] = {}
        self.gradients: Dict[int, Allocation] = {}
        self.recompute_kernel_seconds = 0.0
        self._dead_resident: Set[int] = set()

        plan = checkpoint_plan(network, segment_count)
        self.dropped = plan.dropped
        # Map each storage to the checkpointed segment that regenerates
        # it: the contiguous run of dropped owners after a checkpoint.
        self._droppable_order = plan.droppable_order
        self._position = {owner: position for position, owner
                          in enumerate(plan.droppable_order)}

    # -- helpers --------------------------------------------------------
    def _alloc(self, nbytes: int, tag: str) -> Allocation:
        allocation = self.pool.alloc(nbytes, tag)
        self.usage.record(self.compute.ready_time, self.pool.live_bytes)
        return allocation

    def _free(self, allocation: Allocation) -> None:
        self.pool.free(allocation)
        self.usage.record(self.compute.ready_time, self.pool.live_bytes)

    def _forward_kernel(self, step: ForwardStep, recompute: bool) -> None:
        """One forward kernel inside its transient workspace."""
        workspace = self._alloc(step.ws_bytes, step.ws_tag) \
            if step.ws_bytes else None
        label = step.name + "(re)" if recompute else step.name
        self.compute.push(_FORWARD, label, step.seconds,
                          nbytes=step.dram_nbytes, layer_index=step.index)
        if recompute:
            self.recompute_kernel_seconds += step.seconds
        if workspace is not None:
            self._free(workspace)

    # -- persistent -----------------------------------------------------
    def allocate_persistent(self) -> int:
        for item in self.plan.persistent:
            self._alloc(item.nbytes, item.w_tag)
            self._alloc(item.nbytes, item.dw_tag)
        return self.plan.persistent_bytes

    # -- forward --------------------------------------------------------
    def run_forward(self) -> None:
        device, dropped = self.device, self.dropped
        input_storages = self.liveness.input_storages
        for step in self.plan.forward:  # repro: hot
            index = step.index
            rec = step.alloc_rec
            if rec is not None:
                device[rec.owner] = self._alloc(rec.nbytes, step.y_tag)
            if not step.is_input:
                self._forward_kernel(step, False)
            for storage in input_storages(index):
                if storage.forward_release_at != index:
                    continue
                if storage.owner == 0 and dropped:
                    continue  # replays may need the input batch
                if not storage.needed_backward or storage.owner in dropped:
                    self._free(device.pop(storage.owner))

    # -- recompute ------------------------------------------------------
    def _ensure_storage(self, owner: int) -> None:
        """Regenerate a dropped storage (and its segment) on demand."""
        if owner in self.device:
            return
        position = self._position.get(owner)
        if position is not None:
            # The segment: walk back to the nearest materialized storage
            # in droppable order, then replay forward kernels to `owner`.
            start = position
            while start > 0 and \
                    self._droppable_order[start - 1] not in self.device:
                start -= 1
            to_rebuild = self._droppable_order[start:position + 1]
        else:
            # A dead intermediate the replay flows through (e.g. a BN
            # output feeding only an ADD): regenerate just its chain and
            # remember to discard it after the current backward step.
            to_rebuild = (owner,)
            self._dead_resident.add(owner)

        # Inputs feeding the rebuild range but produced outside it must
        # themselves be live (recurse; terminates at checkpoints/input).
        records = self.plan.records
        rebuild_set = set(to_rebuild)
        for owner_index in to_rebuild:
            for member in records[owner_index].info.chain:
                for producer in self.network[member].producers:
                    source = self.network[producer].storage_index
                    if source not in rebuild_set and source not in self.device:
                        self._ensure_storage(source)

        for owner_index in to_rebuild:
            if owner_index in self.device:
                continue  # regenerated by a recursive ensure above
            rec = records[owner_index]
            self.device[owner_index] = self._alloc(
                rec.nbytes, f"Y[{rec.name}](re)")
            for member in rec.info.chain:
                step = self.plan.forward_at[member]
                if not step.is_input:
                    self._forward_kernel(step, True)

    # -- backward -------------------------------------------------------
    def run_backward(self) -> None:
        device, gradients = self.device, self.gradients
        for step in self.plan.backward:  # repro: hot
            for rec in step.required:
                self._ensure_storage(rec.owner)

            for rec in step.grad_allocs:
                if rec.owner not in gradients:
                    gradients[rec.owner] = self._alloc(rec.nbytes, rec.g_tag)

            workspace = self._alloc(step.ws_bytes, step.ws_tag) \
                if step.ws_bytes else None
            self.compute.push(_BACKWARD, step.name, step.seconds,
                              nbytes=step.dram_nbytes,
                              layer_index=step.index)

            for owner, gradient in step.releases:
                allocation = (gradients if gradient else device).pop(
                    owner, None)
                if allocation is not None:
                    self._free(allocation)
            if workspace is not None:
                self._free(workspace)

            # Regenerated dead intermediates served this step's replay;
            # drop them rather than let them camp in memory.
            for owner in self._dead_resident:
                allocation = device.pop(owner, None)
                if allocation is not None:
                    self._free(allocation)
            self._dead_resident.clear()

        for allocation in list(device.values()):
            self._free(allocation)
        device.clear()
        for allocation in list(gradients.values()):
            self._free(allocation)
        gradients.clear()


def droppable_count(network: Network) -> int:
    """How many storages a checkpoint plan may drop (Chen et al.'s L)."""
    return len(droppable(network, liveness_of(network).all_storages()))


@dataclass(frozen=True)
class RecomputePlan:
    """A budget-fitted checkpoint plan plus the probes that chose it.

    ``probes`` records every ``(segment_count, fits)`` pair the ladder
    tried, in order — the recompute analogue of vDNN_dyn's profiling
    passes.
    """

    segment_count: int
    plan: CheckpointPlan
    result: IterationResult
    probes: Tuple[Tuple[int, bool], ...]


def plan_recompute(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    budget_bytes: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> RecomputePlan:
    """Budgeted segment selection: the most checkpoints that fit.

    Recompute time falls monotonically as checkpoints grow (shorter
    replays), while memory grows — so the cheapest plan under a budget
    is the one with the most segments that still fits.  The ladder
    walks the stride values 1, 2, 3, ... (segment counts descending
    from "checkpoint everything" toward the sqrt(L) default and past it
    to a single segment) and adopts the first fitting count; each probe
    is one content-addressed :func:`simulate_recompute` point.  With no
    budget the GPU capacity is used, so ``plan.result.trainable``
    matches the adoption decision.
    """
    from .cached import cached_recompute

    count = droppable_count(network)
    budget = system.gpu.memory_bytes if budget_bytes is None \
        else budget_bytes
    probes: List[Tuple[int, bool]] = []
    seen: set = set()
    adopted: Optional[Tuple[int, IterationResult]] = None
    for stride in range(1, max(count, 1) + 1):
        segments = max(1, math.ceil(count / stride))
        if segments in seen:
            continue
        seen.add(segments)
        result = cached_recompute(network, system, algos, segments,
                                  use_cache=use_cache)
        fits = result.max_usage_bytes <= budget
        probes.append((segments, fits))
        if fits:
            adopted = (segments, result)
            break
    if adopted is None:
        # Even the single-checkpoint floor misses the budget; return it
        # anyway so callers can report the (untrainable) memory floor.
        result = cached_recompute(network, system, algos, 1,
                                  use_cache=use_cache)
        if not probes or probes[-1][0] != 1:
            probes.append((1, result.max_usage_bytes <= budget))
        adopted = (1, result)
    segments, result = adopted
    return RecomputePlan(
        segment_count=segments,
        plan=checkpoint_plan(network, segments),
        result=result,
        probes=tuple(probes),
    )


def simulate_recompute(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    segment_count: Optional[int] = None,
) -> IterationResult:
    """One training iteration under sqrt(L) gradient checkpointing.

    Returns an :class:`IterationResult` comparable with the vDNN and
    baseline executors (``policy_label`` is ``"recompute"``;
    ``offload_bytes`` is zero — nothing crosses PCIe).
    """
    sim = _RecomputeSimulation(network, system, algos, segment_count)
    persistent = sim.allocate_persistent()
    sim.run_forward()
    sim.run_backward()
    sim.usage.record(sim.timeline.end_time, sim.pool.live_bytes)

    peak = sim.usage.max_bytes
    external = sim.plan.external_bytes
    total_peak = peak + external
    trainable = total_peak <= system.gpu.memory_bytes
    return IterationResult(
        network_name=network.name,
        policy_label="recompute",
        algo_label=algos.label,
        trainable=trainable,
        failure=None if trainable else (
            f"peak usage {total_peak} bytes exceeds GPU capacity "
            f"{system.gpu.memory_bytes} bytes"
        ),
        timeline=sim.timeline,
        usage=sim.usage,
        managed_max_bytes=peak,
        managed_avg_bytes=sim.usage.average_bytes,
        external_bytes=external,
        persistent_bytes=persistent,
        total_time=sim.timeline.span,
        feature_extraction_time=_feature_extraction_time(
            network, sim.timeline, classifier=sim.plan.classifier_indices),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=sim.recompute_kernel_seconds,
    )
